"""A cylinder's return system does only the work its output needs: the
recoded language is built on first read, and the 2-block measures are read
off the letter frequencies.  Both are checked against reference copies of
the earlier algorithms, the recoded language read off L_13 of sigma when
the section is induced and the 2-block measures solved as the positive left
eigenvector of the substitution on 2-blocks, on the corpus of
`test_asymptotics` and on seeded random primitive inputs."""

import random

import pytest

from flowmcg import flows, pf
from flowmcg.errors import InternalCheckError, ResourceLimitError, ValidationError
from flowmcg.flows import induce, make_flow_code, restrict_flow_code, substitution_code
from flowmcg.numberfield import FieldElement, integer_charpoly
from flowmcg.pf import cylinder_measure, pf_data, positive_eigenvector
from flowmcg.substitution import (
    Substitution,
    cycle_lengths,
    fixed_point,
    is_aperiodic,
    is_primitive,
)
from flowmcg.words import CHECK_DEPTH, SlidingBlockCode

from test_asymptotics import CORPUS


def reference_recoded_language(sub, w):
    """Every recoded length to `CHECK_DEPTH`, built eagerly: the windows of
    tau(y0 y1)·...·tau(y(n-1) yn) that start inside tau(y0 y1), over y in
    L_(n+1) of sigma, and every shorter length as their prefixes."""
    _, _, tau = flows._first_returns(sub, w)
    n = CHECK_DEPTH
    distinct = set()
    for y in sub.language(n + 1).blocks_of(n + 1):
        head = len(tau[y[:2]])
        visits = [v for ab in zip(y, y[1:]) for v in tau[ab]][: head + n - 1]
        for start in range(head):
            window = tuple(visits[start : start + n])
            assert len(window) == n
            distinct.add(window)
    return {m: frozenset(v[:m] for v in distinct) for m in range(1, n + 1)}


def reference_two_block_measures(sub):
    """mu(ab) for ab in L_2 as the positive left eigenvector, of total mass
    1, of the substitution acting on 2-blocks (ab -> the 2-blocks of
    sigma(ab) that start inside sigma(a)), through the characteristic
    polynomial of that |L_2| x |L_2| matrix."""
    data = pf_data(sub)
    pairs = sub.two_blocks()
    index = {ab: i for i, ab in enumerate(pairs)}
    counts = [[0] * len(pairs) for _ in pairs]
    for i, (image, cut) in enumerate(sub.two_block_images(1)):
        for pos in range(cut):
            counts[i][index[image[pos : pos + 2]]] += 1
    vec = positive_eigenvector(
        data.field, counts, data.field.generator(), transposed=True, charpoly=integer_charpoly(counts)
    )
    return dict(zip(pairs, vec))


def sections(sub):
    """Every letter, and the prefixes of length 2 and 3 of the fixed points
    grown from the letters on a cycle of the first-letter map."""
    prefixes = {fixed_point(sub, a, m) for a in cycle_lengths(sub.first_letter_map()) for m in (2, 3)}
    return [(a,) for a in range(sub.size)] + sorted(prefixes)


def outcome(build):
    """What build returns, or the type of the package error it raises."""
    try:
        return build()
    except (InternalCheckError, ResourceLimitError, ValidationError) as exc:
        return type(exc)


def random_inputs(seed, count):
    """Primitive aperiodic substitutions on 2-3 letters with images of 1-4
    letters, drawn from random.Random(seed)."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        d = rng.randint(2, 3)
        rules = {str(a): "".join(str(rng.randrange(d)) for _ in range(rng.randint(1, 4))) for a in range(d)}
        sub = Substitution.from_rules(rules)
        if is_primitive(sub) and not is_aperiodic(sub).periodic:
            found.append(rules)
    return found


RANDOM = random_inputs(45, 24)


def _compare_recoded(rules, words):
    """Each section's recoded table, read from the longest length down, is
    the reference's, or both raise the same error."""
    sub = Substitution.from_rules(rules)
    for w in words(sub):
        expected = outcome(lambda: reference_recoded_language(sub, w))
        table = outcome(lambda: induce(sub, w).recoded_language)
        if isinstance(table, type):
            assert table == expected, w
            continue
        assert table.n_max == CHECK_DEPTH
        got = outcome(lambda: {m: table.blocks_of(m) for m in range(CHECK_DEPTH, 0, -1)})
        assert got == expected, w


@pytest.mark.parametrize("rules", CORPUS.values(), ids=CORPUS)
def test_recoded_languages_match_the_eager_reference_on_the_corpus(rules):
    _compare_recoded(rules, sections)


@pytest.mark.parametrize("rules", RANDOM, ids=[",".join(f"{a}>{w}" for a, w in r.items()) for r in RANDOM])
def test_recoded_languages_match_the_eager_reference_on_random_inputs(rules):
    _compare_recoded(rules, lambda sub: [(a,) for a in range(sub.size)])


@pytest.mark.parametrize("rules", list(CORPUS.values()) + RANDOM, ids=list(CORPUS) + [str(i) for i in range(len(RANDOM))])
def test_two_block_measures_match_the_eigenvector_reference(rules):
    got = pf._two_block_measures(Substitution.from_rules(rules))
    expected = reference_two_block_measures(Substitution.from_rules(rules))
    assert list(got) == list(expected)
    for ab, mu in expected.items():
        assert (got[ab].nums, got[ab].den) == (mu.nums, mu.den), ab


def test_induce_builds_no_recoded_block():
    sub = Substitution.from_rules({"0": "0012", "1": "12", "2": "012"})
    for w in sections(sub):
        assert induce(sub, w).recoded_language.blocks == {}, w


def test_one_read_builds_the_windows_once_for_every_length(monkeypatch):
    built = []
    windows = flows._recoded_windows

    def counted(*args):
        built.append(args)
        return windows(*args)

    monkeypatch.setattr(flows, "_recoded_windows", counted)
    sub = Substitution.from_rules({"0": "01", "1": "02", "2": "0"})
    table = induce(sub, "0").recoded_language
    expected = reference_recoded_language(sub, (0,))
    assert built == []
    assert table.blocks_of(3) == expected[3]
    assert len(built) == 1
    for m in range(1, CHECK_DEPTH + 1):
        assert table.blocks_of(m) == expected[m], m
    assert len(built) == 1
    assert sorted(table.blocks) == list(range(1, CHECK_DEPTH + 1))


def test_a_symbol_budget_surfaces_when_the_section_is_induced():
    """The spans of L_13 are taken at induce time: here the return pass
    needs sigma alone, but every image is 12 long only at sigma^2, whose
    images outgrow the symbol budget, so the section is refused there and
    not on a later read."""
    sub = Substitution.from_rules({"0": "0" * 1500 + "1", "1": "0"})
    assert flows._first_returns(sub, (0,))[1] == 1
    with pytest.raises(ResourceLimitError):
        induce(sub, "0")


def test_short_visits_fail_when_the_windows_are_built(monkeypatch):
    sub = Substitution.from_rules({"0": "01", "1": "0"})
    table = induce(sub, "0").recoded_language
    tau = flows._first_returns(sub, (0,))[2]
    # one nonempty tau(ab) emptied: the windows through it come up short
    monkeypatch.setitem(tau, min(tau), ())
    with pytest.raises(InternalCheckError, match="visits too short"):
        table.blocks_of(1)


def test_codes_on_sections_read_the_same_blocks_as_the_reference():
    sub = Substitution.from_rules({"0": "01", "1": "10"})
    system = induce(sub, "0")
    relabel = SlidingBlockCode(system.alphabet, system.alphabet, 0, {(i,): i for i in range(system.size)})
    code = make_flow_code(sub, relabel, system, system, kind="automorphism")
    assert code.verified_depth == CHECK_DEPTH
    composite = flows.compose_flow_codes(code, code)
    assert composite.conjugacy.rule == relabel.rule
    expected = reference_recoded_language(sub, (0,))
    table = system.recoded_language
    assert {m: table.blocks_of(m) for m in table.blocks} == {m: expected[m] for m in table.blocks}


def test_lambda_is_inverted_once_per_field(monkeypatch):
    """A sections pass on one substitution (every letter induced, every
    3-block measured, the substitution code composed and restricted)
    inverts the generator of each field once: that of sigma, and that of
    sigma^2, which composing builds."""
    inverted = []
    inverse = FieldElement.inverse

    def counted(self):
        if self == self.field.generator():
            inverted.append(self.field)
        return inverse(self)

    monkeypatch.setattr(FieldElement, "inverse", counted)
    sub = Substitution.from_rules({"0": "0012", "1": "12", "2": "012"})
    for a in "012":
        induce(sub, a)
    for w in sub.language(3).blocks_of(3):
        cylinder_measure(sub, w)
    code = substitution_code(sub)
    square = flows.compose_flow_codes(code, code)
    restrict_flow_code(code, "0")
    restrict_flow_code(square, "0")
    field = pf_data(sub).field
    assert [id(f) for f in inverted] == [id(field), id(square.source.field)]
    assert field.generator_inverse() * field.generator() == field.one()
    assert field.generator_inverse() is field.generator_inverse()


def test_the_generator_inverse_is_one_over_lambda_in_every_corpus_field():
    for rules in CORPUS.values():
        field = pf_data(Substitution.from_rules(rules)).field
        assert field.generator_inverse() == field.one() / field.generator()


@pytest.mark.parametrize("rules", [{"0": "0"}, {"0": "00"}, *CORPUS.values()], ids=["0>0", "0>00", *CORPUS])
def test_two_blocks_are_the_language_of_length_two(rules):
    # the 2-block measures weigh sub.two_blocks(), so it must be L_2
    sub = Substitution.from_rules(rules)
    assert set(sub.two_blocks()) == sub.language(2).blocks_of(2)


def test_the_one_point_of_a_one_letter_identity_has_measure_one():
    sub = Substitution.from_rules({"0": "0"})
    one = pf_data(sub).field.one()
    assert [cylinder_measure(sub, "0" * n) for n in range(1, 6)] == [one] * 5
    assert pf.occurrence_measures(sub, 0, {(0, 0): {"x": 1}}) == {"x": one}
