"""The pruned automorphism search against the unpruned one it replaced.

`reference_candidates` lists every assignment of outputs to the windows
that passes the 2-block check across overlaps, and
`reference_preserving_candidates` keeps those that pass the full language
check; `search_automorphisms` then filters each one through the inverse and
round-trip checks.  Swapping it in gives the reference report.
`sample_offset` and `reference_table` compare the codes' images of a
fixed-point sample, as shifts and the table were identified before they
were read off the rules.  `closing_dfs` is the candidate search with a check
for every admissible block of every length, as it was before the checks
were built from the longest blocks alone.
"""

import pytest

from flowmcg import automorphisms, substitution, words
from flowmcg.automorphisms import (
    _enumerate_candidates,
    _equal_mod_shift,
    search_automorphisms,
)
from flowmcg.errors import InternalCheckError, ResourceLimitError
from flowmcg.mcg import assemble_mcg
from flowmcg.pf import cr_check
from flowmcg.substitution import Substitution, cycle_lengths
from flowmcg.words import (
    CHECK_DEPTH,
    INVERSE_RADIUS_BUDGET,
    SlidingBlockCode,
    compose_codes,
    language_violation,
)

from test_substitution import counted_generations
from test_tails import reference_fixed_point

# the ten primitive aperiodic substitutions of test_criterion_09
FIXED = {
    "fib": {"0": "01", "1": "0"},
    "tm": {"0": "01", "1": "10"},
    "tribonacci": {"0": "01", "1": "02", "2": "0"},
    "cyclic4": {"0": "012230", "1": "123301", "2": "230012", "3": "301123"},
    "s01_00": {"0": "01", "1": "00"},
    "s0111_0": {"0": "0111", "1": "0"},
    "s0012_12_012": {"0": "0012", "1": "12", "2": "012"},
    "s011_01": {"0": "011", "1": "01"},
    "sigma4": {"0": "01", "1": "12", "2": "23", "3": "30"},
    "s02_01_1": {"0": "02", "1": "01", "2": "1"},
}
# the first twelve primitive aperiodic draws of test_criterion_09's generator
POOL = {
    "pool00": {"0": "01", "1": "010"},
    "pool01": {"0": "1100", "1": "100"},
    "pool02": {"0": "111", "1": "101"},
    "pool03": {"0": "1202", "1": "2", "2": "0"},
    "pool04": {"0": "221", "1": "001", "2": "21"},
    "pool05": {"0": "1111", "1": "010"},
    "pool06": {"0": "21", "1": "0210", "2": "2011"},
    "pool07": {"0": "1010", "1": "00"},
    "pool08": {"0": "021", "1": "02", "2": "21"},
    "pool09": {"0": "0010", "1": "101"},
    "pool10": {"0": "010", "1": "011"},
    "pool11": {"0": "1101", "1": "00"},
}
INPUTS = {**FIXED, **POOL}
FIXTURES = ("tm", "fib", "tribonacci", "cyclic4")
# the reference needs millions of candidates (or about 10 s) on these
REFERENCE_TOO_SLOW = {("sigma4", 1), ("pool06", 1), ("cyclic4", 2), ("pool03", 2)}

CASES = [
    (name, r)
    for r in (0, 1, 2)
    for name in INPUTS
    if (r < 2 or name in FIXTURES) and (name, r) not in REFERENCE_TOO_SLOW
]


def reference_candidates(lang, radius, d, n_check):
    """Every 2-block-consistent assignment, in lexicographic order."""
    width = 2 * radius + 1
    blocks = sorted(lang.blocks_of(width))
    pairs = set(lang.blocks_of(2))
    index = {w: i for i, w in enumerate(blocks)}
    succ = [[] for _ in blocks]
    for u in blocks:
        for last in range(d):
            join = u + (last,)
            if lang.admissible(join):
                succ[index[u]].append(index[join[1:]])

    out = [None] * len(blocks)
    found = []

    def consistent(i):
        for j in succ[i]:
            if out[j] is not None and (out[i], out[j]) not in pairs:
                return False
        for h in range(len(blocks)):
            if out[h] is not None and i in succ[h]:
                if (out[h], out[i]) not in pairs:
                    return False
        return True

    def walk(i):
        if i == len(blocks):
            if len(found) == automorphisms.CANDIDATE_BUDGET:
                raise ResourceLimitError("reference candidate budget")
            found.append(tuple(out))
            return
        for letter in range(d):
            out[i] = letter
            if consistent(i):
                walk(i + 1)
        out[i] = None

    walk(0)
    return blocks, found


def preserves_language(code, lang, n_check):
    """Images of admissible blocks are admissible, for outputs up to
    n_check, read off a language deep enough for all of them."""
    assert lang.n_max >= n_check + 2 * code.radius
    return language_violation(code, lang, lang, n_check) is None


def reference_preserving_candidates(lang, radius, d, n_check):
    """The reference candidates whose code preserves the language to depth
    n_check, checked in full on each one."""
    blocks, found = reference_candidates(lang, radius, d, n_check)
    kept = [
        outputs
        for outputs in found
        if preserves_language(
            SlidingBlockCode(
                lang.alphabet, lang.alphabet, radius, dict(zip(blocks, outputs))
            ),
            lang,
            n_check,
        )
    ]
    return blocks, kept


def rules(codes):
    return [dict(c.rule) for c in codes]


@pytest.mark.parametrize("name,radius", CASES, ids=[f"{n}-r{r}" for n, r in CASES])
def test_search_matches_reference(monkeypatch, name, radius):
    sub = Substitution.from_rules(INPUTS[name])
    pruned = search_automorphisms(sub, radius=radius)
    monkeypatch.setattr(
        automorphisms, "_enumerate_candidates", reference_preserving_candidates
    )
    reference = search_automorphisms(Substitution.from_rules(INPUTS[name]), radius=radius)
    assert rules(pruned.codes) == rules(reference.codes)
    assert rules(pruned.inverses) == rules(reference.inverses)
    assert rules(pruned.elements) == rules(reference.elements)
    assert pruned.table == reference.table


# short check depths, where each block length prunes something the shorter
# ones let through
DEPTH_CASES = [
    (name, r, extra)
    for name in FIXTURES + ("s02_01_1", "pool08")
    for r in (0, 1, 2)
    for extra in (0, 1, 2)
    if (name, r) not in {("cyclic4", 2), ("pool08", 2)}
]


@pytest.mark.parametrize(
    "name,radius,extra",
    DEPTH_CASES,
    ids=[f"{n}-r{r}-depth+{e}" for n, r, e in DEPTH_CASES],
)
def test_candidates_are_the_language_preserving_assignments(name, radius, extra):
    sub = Substitution.from_rules(INPUTS[name])
    n_check = max(2, 2 * radius + 1) + extra
    lang = sub.language(n_check + 2 * radius)
    blocks, found = _enumerate_candidates(lang, radius, sub.size, n_check)
    ref_blocks, ref_found = reference_candidates(lang, radius, sub.size, n_check)
    assert blocks == ref_blocks
    expected = [
        outputs
        for outputs in ref_found
        if preserves_language(
            SlidingBlockCode(
                sub.alphabet, sub.alphabet, radius, dict(zip(blocks, outputs))
            ),
            lang,
            n_check,
        )
    ]
    assert found == expected



@pytest.mark.parametrize("name,radius", CASES, ids=[f"{n}-r{r}" for n, r in CASES])
def test_codes_preserve_the_language(name, radius):
    sub = Substitution.from_rules(INPUTS[name])
    report = search_automorphisms(sub, radius=radius)
    lang = sub.language(CHECK_DEPTH + 2 * radius)
    assert report.codes
    for code in report.codes:
        assert preserves_language(code, lang, CHECK_DEPTH)


def closing_dfs(lang, radius, d, n_check):
    """The candidate search with a check for every admissible block of every
    length n + 2·radius, 2 <= n <= n_check, each at the position of its last
    window: the windows, the candidates and the search nodes visited."""
    width = 2 * radius + 1
    blocks = sorted(lang.blocks_of(width))
    index = {w: i for i, w in enumerate(blocks)}
    succ = [[] for _ in blocks]
    for u in sorted(lang.blocks_of(width + 1)):
        succ[index[u[:-1]]].append(index[u[1:]])
    order, pos = [], [-1] * len(blocks)
    for root in range(len(blocks)):
        stack = [root]
        while stack:
            i = stack.pop()
            if pos[i] < 0:
                pos[i] = len(order)
                order.append(i)
                stack.extend(reversed(succ[i]))
    closing = [[] for _ in blocks]
    for n in range(2, n_check + 1):
        images = lang.blocks_of(n)
        for w in lang.blocks_of(n + 2 * radius):
            wins = [index[w[i : i + width]] for i in range(n)]
            closing[max(pos[i] for i in wins)].append((wins, images))

    out = [0] * len(blocks)
    found = []
    nodes = 0

    def walk(p):
        nonlocal nodes
        if p == len(order):
            found.append(tuple(out))
            return
        for letter in range(d):
            nodes += 1
            out[order[p]] = letter
            if all(
                tuple(out[i] for i in wins) in images for wins, images in closing[p]
            ):
                walk(p + 1)

    walk(0)
    return blocks, sorted(found), nodes


def n_bonacci(k):
    return {**{str(i): f"0{i + 1}" for i in range(k - 1)}, str(k - 1): "0"}


# searches that walk many nodes: REFERENCE_TOO_SLOW is slow only for the
# unpruned reference, and these three at radius 1
WALKS = {
    "5-bonacci": n_bonacci(5),
    "6-bonacci": n_bonacci(6),
    "cyclic5": {"0": "01", "1": "12", "2": "23", "3": "34", "4": "40"},
}
CLOSING_CASES = CASES + sorted(REFERENCE_TOO_SLOW) + [(name, 1) for name in WALKS]


@pytest.mark.parametrize(
    "name,radius", CLOSING_CASES, ids=[f"{n}-r{r}" for n, r in CLOSING_CASES]
)
def test_checks_from_the_longest_blocks_prune_like_every_block(monkeypatch, name, radius):
    rules = {**INPUTS, **WALKS}[name]
    sub = Substitution.from_rules(rules)
    lang = sub.language(CHECK_DEPTH + 2 * radius)
    blocks, found, nodes = closing_dfs(lang, radius, sub.size, CHECK_DEPTH)
    # the same node count: the search fits a budget of exactly that many
    # nodes and exceeds one fewer
    monkeypatch.setattr(automorphisms, "CANDIDATE_BUDGET", nodes)
    fresh = Substitution.from_rules(rules).language(CHECK_DEPTH + 2 * radius)
    assert _enumerate_candidates(fresh, radius, sub.size, CHECK_DEPTH) == (blocks, found)
    monkeypatch.setattr(automorphisms, "CANDIDATE_BUDGET", nodes - 1)
    with pytest.raises(ResourceLimitError, match="search nodes"):
        _enumerate_candidates(lang, radius, sub.size, CHECK_DEPTH)


@pytest.mark.parametrize(
    "rules", [{"0": "022", "1": "0", "2": "0021"}, *WALKS.values()], ids=lambda r: ",".join(r.values())
)
def test_visit_order_does_not_depend_on_how_the_table_was_built(monkeypatch, rules):
    """L_{2r+2} generated before the longest length, or read off it: the
    same windows visited in the same order, so the same node count."""
    radius = 1
    depth = CHECK_DEPTH + 2 * radius
    read_off = Substitution.from_rules(rules).language(depth)
    generated = Substitution.from_rules(rules).language(depth)
    generated.blocks_of(2 * radius + 2)
    nodes = closing_dfs(generated, radius, len(rules), CHECK_DEPTH)[2]
    for lang in (read_off, generated):
        monkeypatch.setattr(automorphisms, "CANDIDATE_BUDGET", nodes)
        _enumerate_candidates(lang, radius, len(rules), CHECK_DEPTH)
        monkeypatch.setattr(automorphisms, "CANDIDATE_BUDGET", nodes - 1)
        with pytest.raises(ResourceLimitError, match="search nodes"):
            _enumerate_candidates(lang, radius, len(rules), CHECK_DEPTH)


# symbols of the fixed-point prefix the sample oracle compares images on
SAMPLE = 4096


def reference_sample(sub):
    """The fixed-point prefix of the least seed on a first-letter cycle."""
    cycles = cycle_lengths(sub.first_letter_map())
    seed = min(cycles)
    return reference_fixed_point(sub, seed, SAMPLE, cycles[seed], False)


def sample_offset(out_a, radius_a, out_b, radius_b):
    """The offset k, |k| <= radius_a + radius_b, at which two codes' images
    of the same sample agree as a = shift^k b, or None; at most one may."""
    # position t of the sample has index t - r in each image
    hits = []
    for k in range(-radius_a - radius_b, radius_a + radius_b + 1):
        j = k + radius_a - radius_b
        start, stop = max(0, -j), min(len(out_a), len(out_b) - j)
        if out_a[start:stop] == out_b[start + j : stop + j]:
            hits.append(k)
    assert len(hits) <= 1, hits
    return hits[0] if hits else None


def reference_table(report):
    """The composition table built as before: each composite is a code over
    every admissible window of its radius, applied to the shift sample and
    matched against the elements' images of it."""
    sub = report.sub
    sample = reference_sample(sub)
    lang = sub.language(4 * report.radius + 1)
    images = [e.apply(sample) for e in report.elements]
    table = []
    for outer in report.elements:
        row = []
        for inner in report.elements:
            comp = compose_codes(outer, inner, lang)
            comp_image = comp.apply(sample)
            hits = [
                pos
                for pos, e in enumerate(report.elements)
                if sample_offset(comp_image, comp.radius, images[pos], e.radius)
                is not None
            ]
            assert len(hits) == 1
            row.append(hits[0])
        table.append(tuple(row))
    return tuple(table)


@pytest.mark.parametrize("name,radius", CASES, ids=[f"{n}-r{r}" for n, r in CASES])
def test_table_matches_composed_codes(name, radius):
    report = search_automorphisms(Substitution.from_rules(INPUTS[name]), radius=radius)
    assert report.table == reference_table(report)


@pytest.mark.parametrize("name,radius", CASES, ids=[f"{n}-r{r}" for n, r in CASES])
def test_equal_mod_shift_matches_the_sample(name, radius):
    sub = Substitution.from_rules(INPUTS[name])
    report = search_automorphisms(sub, radius=radius)
    lang = sub.language(4 * radius + 1)
    sample = reference_sample(sub)
    images = [code.apply(sample) for code in report.codes]
    for a, image_a in zip(report.codes, images):
        for b, image_b in zip(report.codes, images):
            assert _equal_mod_shift(a, b, lang) == sample_offset(
                image_a, a.radius, image_b, b.radius
            )


@pytest.mark.parametrize("name", ["tm", "cyclic4"])
def test_search_grows_no_fixed_point(monkeypatch, name):
    calls = []
    grow = substitution.fixed_point

    def counted(*args, **kwargs):
        calls.append(args)
        return grow(*args, **kwargs)

    sub = Substitution.from_rules(INPUTS[name])
    # the aperiodicity screen grows the fixed point of a rational-lambda input
    substitution.is_aperiodic(sub)
    monkeypatch.setattr(substitution, "fixed_point", counted)
    monkeypatch.setattr(automorphisms, "fixed_point", counted, raising=False)
    report = search_automorphisms(sub, radius=1)
    assert len(report.elements) > 1
    assert calls == []


@pytest.mark.parametrize("name", ["tm", "fib", "cyclic4"])
def test_search_generates_one_language_length(monkeypatch, name):
    calls = counted_generations(monkeypatch)
    search_automorphisms(Substitution.from_rules(INPUTS[name]), radius=1)
    # the aperiodicity screen builds no language, so the search asks for
    # L_{CHECK_DEPTH + 2} first
    assert calls == [CHECK_DEPTH + 2]


@pytest.mark.parametrize("name", ["tm", "cyclic4"])
def test_search_makes_no_language_check_and_no_long_apply(monkeypatch, name):
    radius = 1
    checks = []

    def counted(*args):
        checks.append(args)
        return language_violation(*args)

    monkeypatch.setattr(words, "language_violation", counted)
    monkeypatch.setattr(automorphisms, "language_violation", counted, raising=False)
    lengths = []
    apply = SlidingBlockCode.apply

    def recorded(self, seq):
        lengths.append(len(seq))
        return apply(self, seq)

    monkeypatch.setattr(SlidingBlockCode, "apply", recorded)
    report = search_automorphisms(Substitution.from_rules(INPUTS[name]), radius=radius)
    # the language the search builds: its check depth, the inverse budget,
    # or a radius-2r composite compared with radius-r elements
    depth = max(
        CHECK_DEPTH + 2 * radius,
        2 * (radius + INVERSE_RADIUS_BUDGET) + 1,
        6 * radius + 1,
    )
    assert len(report.elements) > 1
    assert checks == []
    assert lengths and max(lengths) <= depth


# the inputs whose balance check certifies the embedding, so that
# assemble_mcg identifies the finite part with the automorphism quotient
BALANCED = (
    "fib", "tm", "tribonacci", "cyclic4", "sigma4",
    "pool00", "pool03", "pool06", "pool08", "pool10", "pool11",
)
# balanced too, but asymptotic_classes finds no class on them yet
BALANCED_NO_CLASS = ("s0012_12_012", "s011_01", "s02_01_1", "pool01", "pool04")


def test_balanced_inputs():
    found = [
        name
        for name in INPUTS
        if cr_check(Substitution.from_rules(INPUTS[name])).is_balanced
    ]
    assert sorted(found) == sorted(BALANCED + BALANCED_NO_CLASS)


@pytest.mark.parametrize("name", BALANCED)
def test_quotient_order_at_most_class_count(name):
    finite = assemble_mcg(Substitution.from_rules(INPUTS[name])).finite_part
    assert 1 <= finite.group.order <= finite.class_count


def test_quotient_larger_than_class_count_is_refused(monkeypatch):
    quotient = automorphisms.shift_quotient

    def enlarged(report):
        group = quotient(report)
        return group.replace(order=len(group.table) + 1)

    # assemble_mcg imports the quotient from its home module when called
    monkeypatch.setattr(automorphisms, "shift_quotient", enlarged)
    # cyclic4: four classes, quotient Z/4; order 5 is within 4! but not 4
    with pytest.raises(InternalCheckError, match="exceeds the class count 4"):
        assemble_mcg(Substitution.from_rules(INPUTS["cyclic4"]))
