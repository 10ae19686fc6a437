"""The cross-section core: one derived substitution, return-word
continuations read off the language, one reader of word arguments, and
nothing kept on a substitution that refers back to it."""

import gc
import weakref

import pytest

from flowmcg import flows
from flowmcg.coinvariants import (
    build_coinvariants,
    coinvariants_report,
    cylinder_class,
    derived_proper,
    element_equal,
    restrict_class,
    trace,
)
from flowmcg.errors import InternalCheckError, ValidationError
from flowmcg.flows import (
    _starts,
    cocycle_slopes,
    compose_flow_codes,
    derived_substitution,
    identity_code,
    induce,
    make_flow_code,
    restrict_flow_code,
    return_words,
    substitution_code,
)
from flowmcg.mcg import assemble_mcg
from flowmcg.pf import cylinder_measure
from flowmcg.substitution import Substitution, cycle_lengths, fixed_point, is_primitive
from flowmcg.words import CHECK_DEPTH, Alphabet, SlidingBlockCode, Word, section_word, word_idx

from test_one_core import RULES

# circle-factor inputs: every letter of the first lies on a 5-cycle of the
# first-letter map
CIRCLE = [
    {"0": "101234", "1": "201234", "2": "301234", "3": "401234", "4": "001234"},
    {"0": "01", "1": "21", "2": "00"},
]
ON_CYCLE = [
    (rules, a)
    for rules in RULES + CIRCLE
    for a in sorted(cycle_lengths(Substitution.from_rules(rules).first_letter_map()))
]


def _id(rules):
    return ",".join(f"{b}>{w}" for b, w in sorted(rules.items()))


# the 14 pairs whose first-letter cycle is longer than 1
LONG_CYCLE = {
    *(("0>1202,1>2,2>0", a) for a in range(3)),
    *((r, a) for r in ("0>1111,1>010", "0>1010,1>00", "0>1101,1>00") for a in range(2)),
    *((_id(CIRCLE[0]), a) for a in range(5)),
}


@pytest.mark.parametrize(
    "rules,a", ON_CYCLE, ids=[f"{_id(r)}@{a}" for r, a in ON_CYCLE]
)
def test_derived_substitution_recodes_every_letter_on_a_cycle(rules, a):
    sub = Substitution.from_rules(rules)
    system = induce(sub, (a,))
    rec = derived_substitution(sub, (a,))
    assert is_primitive(rec)
    table = system.recoded_language
    assert rec.alphabet == table.alphabet
    for n in range(1, table.n_max + 1):
        assert rec.language(n).blocks_of(n) == table.blocks_of(n), n
    # the coinvariants' zeta is the same memoised substitution, on the same
    # return words in the same order
    derived = derived_proper(sub, base=a)
    assert derived.section == (a,)
    assert derived.return_words == tuple(w.idx for w in system.return_words)
    assert derived_substitution(sub, (a,)) is rec is derived.zeta


def test_the_long_cycles_are_covered():
    found = {
        (_id(r), a)
        for r, a in ON_CYCLE
        if cycle_lengths(Substitution.from_rules(r).first_letter_map())[a] > 1
    }
    assert found == LONG_CYCLE


def test_letters_off_every_cycle_have_no_recoded_substitution(fib):
    pool10 = Substitution.from_rules({"0": "010", "1": "011"})
    for sub in (fib, pool10):
        assert 1 not in cycle_lengths(sub.first_letter_map())
        # the section is still induced; only its derived substitution is refused
        assert induce(sub, "1").base_word == (1,)
        with pytest.raises(ValidationError):
            derived_substitution(sub, (1,))
    # 01 is a prefix of the Fibonacci fixed point, so it is recoded
    assert is_primitive(derived_substitution(fib, (0, 1)))


def test_one_check_rejects_a_letter_off_every_cycle(fib):
    # 1 never begins an image of the Fibonacci substitution; the derived
    # substitution holds the only check, and every reader of ζ reports it
    message = "letter does not begin its own image under any power"
    for call in (
        lambda: derived_substitution(fib, (1,)),
        lambda: derived_proper(fib, base=1),
        lambda: restrict_class(fib, {"0": 1}, "1"),
    ):
        with pytest.raises(ValidationError, match=message):
            call()


def _prefixes(sub, length):
    """Every prefix of length 1 to `length` of a fixed point grown from a
    letter on a cycle of the first-letter map."""
    cycles = cycle_lengths(sub.first_letter_map())
    return [fixed_point(sub, a, k) for a in sorted(cycles) for k in range(1, length + 1)]


@pytest.mark.parametrize("rules", RULES, ids=[_id(r) for r in RULES])
def test_every_prefix_section_is_recoded_by_its_derived_substitution(rules):
    sub = Substitution.from_rules(rules)
    for u in _prefixes(sub, 8):
        system = induce(sub, u)
        rec = derived_substitution(sub, u)
        assert rec is derived_substitution(sub, u) and is_primitive(rec), u
        table = system.recoded_language
        assert rec.alphabet == table.alphabet and table.n_max == CHECK_DEPTH
        for n in range(1, table.n_max + 1):
            assert rec.language(n).blocks_of(n) == table.blocks_of(n), (u, n)


@pytest.mark.parametrize("name", ["fib", "tm", "tribonacci"])
def test_a_word_that_is_no_fixed_point_prefix_has_no_recoded_substitution(request, name):
    sub = request.getfixturevalue(name)
    cycles = cycle_lengths(sub.first_letter_map())
    prefixes = set(_prefixes(sub, 4))
    others = [
        w
        for n in (2, 3, 4)
        for w in sorted(sub.language(n).blocks_of(n))
        if w[0] in cycles and w not in prefixes
    ]
    assert others
    for w in others:
        assert induce(sub, w).base_word == w
        with pytest.raises(ValidationError, match="not a prefix of the fixed point"):
            derived_substitution(sub, w)


def test_the_whole_space_is_presented_by_the_substitution_on_its_letters():
    for rules in RULES + CIRCLE:
        sub = Substitution.from_rules(rules)
        assert derived_substitution(sub, None) is sub
        assert return_words(sub, None) == tuple((a,) for a in range(sub.size))
        assert tuple(w.idx for w in induce(sub, None).return_words) == return_words(sub, None)


def test_inducing_a_long_prefix_builds_no_derived_substitution(monkeypatch):
    # on a 5-cycle of the first-letter map Durand's derived substitution of
    # this prefix splits sigma^5 of every return word; induce needs none of it
    def refuse(sub, u):
        raise AssertionError("induce reached the derived substitution")

    monkeypatch.setattr(flows, "_derive", refuse)
    sub = Substitution.from_rules(CIRCLE[0])
    u = word_idx(sub.alphabet, "4012341")
    assert flows._prefix_fault(sub, u) is None
    system = induce(sub, u)
    assert system.base_word == u and system.size == len(return_words(sub, u))


def test_the_split_rejects_a_piece_that_is_no_return_word(monkeypatch):
    # with the last return word of [0] dropped, sigma(01)·0 = 0100 splits
    # into 01 and a piece 0 that is no longer known
    sub = Substitution.from_rules({"0": "01", "1": "0"})
    full = flows.return_words
    monkeypatch.setattr(flows, "return_words", lambda s, w: full(s, w)[:-1])
    with pytest.raises(InternalCheckError, match="unknown return word"):
        derived_substitution(sub, (0,))


def _naive_starts(block, w):
    return [i for i in range(len(block) - len(w) + 1) if block[i : i + len(w)] == w]


@pytest.mark.parametrize("rules", RULES + CIRCLE, ids=[_id(r) for r in RULES + CIRCLE])
def test_the_occurrence_scan_finds_every_start_in_order(rules):
    sub = Substitution.from_rules(rules)
    blocks = [sub.iterate_idx(b, p) for b in range(sub.size) for p in (1, 2, 5)]
    words = [w for n in (1, 2, 3, 4) for w in sorted(sub.language(n).blocks_of(n))]
    # words outside the language, and one longer than most blocks
    words += [(0,) * 5, tuple(range(sub.size)) * 2, (sub.size - 1,) * 40]
    for block in blocks:
        for w in words:
            assert _starts(block, w) == _naive_starts(block, w), (block, w)


def test_the_occurrence_scan_at_the_edges():
    assert _starts((0, 0, 0, 0, 0), (0, 0, 0)) == [0, 1, 2]
    assert _starts((1, 0, 1), (1, 0, 1, 0)) == []
    # w[0] occurs only where w no longer fits
    assert _starts((0, 0, 1, 1), (1, 1, 0)) == []
    assert _starts((0, 0, 1, 1), (1, 1)) == [2]
    assert _starts((), (0,)) == []


@pytest.mark.parametrize("whole", [None, "", (), []])
def test_section_word_reads_the_whole_space_as_none(fib, whole):
    assert section_word(fib.alphabet, whole) is None
    assert section_word(fib.alphabet, "01") == (0, 1)
    with pytest.raises(ValidationError):
        section_word(fib.alphabet, "2")


def test_a_section_is_whole_a_cylinder_or_a_code_target(fib):
    whole = induce(fib, None)
    assert whole.is_whole_space and whole.base_word is None
    cylinder = induce(fib, "01")
    assert not cylinder.is_whole_space and cylinder.base_word == (0, 1)
    target = substitution_code(fib).target
    assert not target.is_whole_space and target.base_word is None


def test_the_order_unit_is_built_on_each_use(fib):
    g = build_coinvariants(fib)
    unit = g.order_unit
    assert unit is not g.order_unit
    assert element_equal(g, unit, g.order_unit)
    assert trace(g, unit) == g.field.one()
    assert element_equal(g, cylinder_class(g, ""), unit)
    # the cylinders of the letters partition the space
    assert element_equal(g, cylinder_class(g, "0") + cylinder_class(g, "1"), unit)


def test_restriction_reads_continuations_off_the_language(fib):
    # every 40-block has weight 1: each return word starts one 40-block per
    # symbol, whatever follows it
    blocks = fib.language(40).blocks_of(40)
    rc = restrict_class(fib, {b: 1 for b in blocks}, "0")
    assert rc.return_words == ((0, 1), (0,))
    assert rc.weights == (2, 1)


def test_restriction_takes_every_prefix_section(fib):
    # 01 is a prefix of the Fibonacci fixed point 0100101001...; 00 is not
    rc = restrict_class(fib, {"0": 1}, "01")
    assert rc.section == (0, 1) and rc.return_words == return_words(fib, (0, 1))
    message = "word is not a prefix of the fixed point grown from its first letter"
    assert flows._prefix_fault(fib, (0, 0)) == message
    for bad in ("00", "001", "0010"):
        with pytest.raises(ValidationError, match=message):
            restrict_class(fib, {"0": 1}, bad)
    with pytest.raises(ValidationError):
        restrict_class(fib, {"0": 1}, 0)
    assert restrict_class(fib, {"0": 1}, (0,)) == restrict_class(fib, {"0": 1}, "0")


def test_restriction_on_every_prefix_section_of_the_fixed_ten():
    # the first ten RULES are the fixed ten
    sections = [(r, u) for r in RULES[:10] for u in _prefixes(Substitution.from_rules(r), 4)]
    assert len(sections) == 72
    for rules, u in sections:
        sub = Substitution.from_rules(rules)
        returns = return_words(sub, u)
        assert restrict_class(sub, {u: 1}, u).weights == (1,) * len(returns), (rules, u)
        letters = {(a,): 1 for a in range(sub.size)}
        rc = restrict_class(sub, letters, u)
        assert rc.weights == tuple(len(r) for r in returns), (rules, u)
        for i, r in enumerate(returns):
            unit = tuple(int(j == i) for j in range(len(returns)))
            assert restrict_class(sub, {r + u: 1}, u).weights == unit, (rules, u, r)


@pytest.mark.parametrize("empty", ["", (), ",,", []])
def test_an_empty_word_is_the_whole_space(fib, empty):
    assert induce(fib, empty).is_whole_space
    assert restrict_class(fib, {"0": 1}, empty).section is None
    code = substitution_code(fib)
    assert restrict_flow_code(code, empty) is code


FREEING_CALLS = {
    "induce-letter": lambda sub: induce(sub, "0"),
    "induce-word": lambda sub: induce(sub, "01"),
    "coinvariants_report": coinvariants_report,
    "induce-whole": lambda sub: induce(sub, None),
    "substitution_code": substitution_code,
    "identity_code": identity_code,
    "compose_flow_codes": lambda sub: compose_flow_codes(substitution_code(sub), substitution_code(sub)),
    "restrict_flow_code": lambda sub: restrict_flow_code(substitution_code(sub), "0"),
    "cocycle_slopes": lambda sub: cocycle_slopes(substitution_code(sub)),
    "assemble_mcg": assemble_mcg,
    "recoded-language": lambda sub: induce(sub, "0").recoded_language.blocks_of(CHECK_DEPTH),
    "automorphism-on-a-section": lambda sub: compose_flow_codes(*[_section_identity(sub, "01")] * 2),
}


def _section_identity(sub, word):
    """The identity of a section's recoding as an automorphism code, which
    reads its recoded language."""
    system = induce(sub, word)
    rule = {(i,): i for i in range(system.size)}
    code = SlidingBlockCode(system.alphabet, system.alphabet, 0, rule)
    return make_flow_code(sub, code, system, system, kind="automorphism")


@pytest.mark.parametrize("call", FREEING_CALLS.values(), ids=FREEING_CALLS)
def test_a_substitution_is_freed_by_refcount_after_use(call):
    """Nothing these calls keep on a substitution or return refers back to
    it, so it goes with its last reference, the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        sub = Substitution.from_rules({"0": "01", "1": "0"})
        alive = weakref.ref(sub)
        call(sub)
        del sub
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


def test_a_recoded_language_is_read_after_its_substitution_is_freed():
    """The recoded table keeps the spans of sigma it reads, not sigma: a
    table first read once its substitution is gone holds the blocks of one
    read while it lived."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        sub = Substitution.from_rules({"0": "01", "1": "0"})
        alive = weakref.ref(sub)
        table = induce(sub, "0").recoded_language
        del sub
        assert alive() is None and table.blocks == {}
        after = {n: table.blocks_of(n) for n in range(1, CHECK_DEPTH + 1)}
    finally:
        if enabled:
            gc.enable()
    live = induce(Substitution.from_rules({"0": "01", "1": "0"}), "0").recoded_language
    assert after == {n: live.blocks_of(n) for n in range(1, CHECK_DEPTH + 1)}


def _system(s):
    return (s.base_word, s.return_words, s.weights, s.base_measure)


def _word_calls(fib):
    """Per function: the index form of a word it takes, and the call."""
    group = build_coinvariants(fib)
    code = substitution_code(fib)

    def class_of(w):
        g = cylinder_class(group, w)
        return g.level, g.vector

    def restricted_code(w):
        fc = restrict_flow_code(code, w)
        return _system(fc.source), _system(fc.target)

    return {
        "induce": ((0, 1), lambda w: _system(induce(fib, w))),
        "cylinder_measure": ((0, 1), lambda w: cylinder_measure(fib, w)),
        "cylinder_class": ((0, 1), class_of),
        "restrict_class": ((0,), lambda w: restrict_class(fib, {"00": 1}, w)),
        "restrict_flow_code": ((0, 1), restricted_code),
        "cocycle_slopes": (
            (0, 1, 0, 0, 1, 0, 1, 0),
            lambda w: cocycle_slopes(code, x0=w, k_range=range(8)),
        ),
    }


CALLS = [
    "induce",
    "cylinder_measure",
    "cylinder_class",
    "restrict_class",
    "restrict_flow_code",
    "cocycle_slopes",
]


@pytest.mark.parametrize("name", CALLS)
def test_word_arguments_are_read_alike(fib, name):
    idx, call = _word_calls(fib)[name]
    text = "".join(fib.alphabet.symbols[a] for a in idx)
    expected = call(idx)
    assert call(text) == expected
    assert call(Word(fib.alphabet, idx)) == expected
    assert call(list(idx)) == expected

    foreign = Word(Alphabet.of("ab"), idx)
    for bad in (foreign, idx[:-1] + (2,), 3.5):
        with pytest.raises(ValidationError):
            call(bad)


def test_derived_proper_reads_its_letter_like_a_word(fib):
    assert derived_proper(fib, base=0).return_words == derived_proper(fib, base="0").return_words
    for bad in (0.7, 2, -1, "2", "01"):
        with pytest.raises(ValidationError):
            derived_proper(fib, base=bad)


def test_word_idx_forms(fib):
    assert word_idx(fib.alphabet, "010") == (0, 1, 0)
    assert word_idx(fib.alphabet, Word.parse(fib.alphabet, "10")) == (1, 0)
    assert word_idx(fib.alphabet, [1, 1]) == (1, 1)
    for bad in (3.5, None, (0, -1), ("0", "1"), (0.0,)):
        with pytest.raises(ValidationError):
            word_idx(fib.alphabet, bad)
