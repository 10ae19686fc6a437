"""One implementation each for fixed points, return words and comparison up
to shift, checked against reference copies of the earlier algorithms: a
return-word scan that deepens sigma^(c*d)(b) until the set repeats and is
closed under the substitution, and fixed points grown by repeated
application."""

from math import lcm

import pytest

from flowmcg.asymptotics import _tails_agree, action_on_classes, asymptotic_classes
from flowmcg.automorphisms import _equal_mod_shift, search_automorphisms
from flowmcg.errors import InternalCheckError, ValidationError
from flowmcg.flows import return_words
from flowmcg.substitution import Substitution, cycle_lengths, fixed_point
from flowmcg.words import Alphabet, LanguageTable, SlidingBlockCode, compose_codes, shift_offsets

# the ten primitive aperiodic inputs of test_criterion_09, then the first
# twelve primitive aperiodic draws of its generator (seed 20260822)
RULES = [
    {"0": "01", "1": "0"},
    {"0": "01", "1": "10"},
    {"0": "01", "1": "02", "2": "0"},
    {"0": "012230", "1": "123301", "2": "230012", "3": "301123"},
    {"0": "01", "1": "00"},
    {"0": "0111", "1": "0"},
    {"0": "0012", "1": "12", "2": "012"},
    {"0": "011", "1": "01"},
    {"0": "01", "1": "12", "2": "23", "3": "30"},
    {"0": "02", "1": "01", "2": "1"},
    {"0": "01", "1": "010"},
    {"0": "1100", "1": "100"},
    {"0": "111", "1": "101"},
    {"0": "1202", "1": "2", "2": "0"},
    {"0": "221", "1": "001", "2": "21"},
    {"0": "1111", "1": "010"},
    {"0": "21", "1": "0210", "2": "2011"},
    {"0": "1010", "1": "00"},
    {"0": "021", "1": "02", "2": "21"},
    {"0": "0010", "1": "101"},
    {"0": "010", "1": "011"},
    {"0": "1101", "1": "00"},
]
IDS = [",".join(f"{a}>{w}" for a, w in sorted(r.items())) for r in RULES]


def reference_return_words(sub, letter, seed, depth_cap=40):
    """Return words of `letter` along the fixed point seeded at `seed`, in
    order of first occurrence; the scan deepens until the set repeats and
    the image of every return word splits into known return words.  Both
    letters must begin their own images under `sub`."""
    prev = None
    for depth in range(2, depth_cap):
        prefix = sub.iterate_idx(seed, depth)
        occ = [i for i, a in enumerate(prefix) if a == letter]
        current = tuple(dict.fromkeys(prefix[a:b] for a, b in zip(occ, occ[1:])))
        if current and current == prev and _closed(sub, letter, current):
            return current
        prev = current
    raise AssertionError("reference scan did not stabilize")


def _closed(sub, letter, returns):
    for r in returns:
        image = sub.apply_idx(r)
        occ = [i for i, a in enumerate(image) if a == letter]
        if not occ or occ[0] != 0:
            return False
        pieces = [image[a:b] for a, b in zip(occ, occ[1:])] + [image[occ[-1]:]]
        if any(p not in returns for p in pieces):
            return False
    return True


def naive_fixed_point(sub, seed, power, reach):
    """sigma^power applied to the seed, letter by letter, until the word is
    at least `reach` long."""
    w = (seed,)
    while len(w) < reach:
        for _ in range(power):
            w = sub.apply_idx(w)
    return w


@pytest.mark.parametrize("rules", RULES, ids=IDS)
def test_return_words_match_the_deepening_scan(rules):
    # the order is that of the fixed point grown from the least letter on
    # a first-letter cycle
    sub = Substitution.from_rules(rules)
    cycles = cycle_lengths(sub.first_letter_map())
    seed = min(cycles)
    for b, c in sorted(cycles.items()):
        expected = reference_return_words(sub.power(lcm(c, cycles[seed])), b, seed)
        assert return_words(sub, (b,)) == expected


@pytest.mark.parametrize("rules", RULES, ids=IDS)
def test_fixed_point_matches_repeated_application(rules):
    sub = Substitution.from_rules(rules)
    for left, letter_map in (
        (False, sub.first_letter_map()),
        (True, sub.last_letter_map()),
    ):
        cycles = cycle_lengths(letter_map)
        for seed, c in sorted(cycles.items()):
            for power in (c, 2 * c):
                w = naive_fixed_point(sub, seed, power, 300)
                for n in range(0, 301):
                    expected = w[len(w) - n :] if left else w[:n]
                    got = fixed_point(sub, seed, n, left=left)
                    assert got == expected, (seed, power, left, n)
        for a in range(sub.size):
            if a not in cycles:
                with pytest.raises(ValidationError):
                    fixed_point(sub, a, 5, left=left)


@pytest.mark.parametrize("rules", [{"0": "01", "1": "10"}, {"0": "01", "1": "0"}], ids=["tm", "fib"])
def test_one_fixed_point_is_kept_per_seed_and_side(rules):
    # the class action grows its tails and pads: each reads the one prefix
    # kept for its seed and side
    sub = Substitution.from_rules(rules)
    report = search_automorphisms(sub, 1)
    classes = asymptotic_classes(sub)
    for code in report.codes:
        action_on_classes(code, classes)
    kept = [(key[1], key[-1]) for key in sub._memo if isinstance(key, tuple) and key[0] == "fixed_point"]
    assert len(kept) == len(set(kept)) > 0


def test_fixed_point_rejects_a_seed_that_does_not_grow():
    sub = Substitution.from_rules({"0": "0", "1": "10"})
    assert fixed_point(sub, 0, 1) == (0,)
    with pytest.raises(ValidationError, match="does not grow"):
        fixed_point(sub, 0, 2)


def test_shift_offsets_only_offset_zero():
    x = (0, 1, 1, 0, 1, 0, 0, 1)
    assert list(shift_offsets(x, x, range(-2, 3), 3)) == [0]
    # offset 0 is a hit, though falsy
    assert _tails_agree(x, x, 2)


def test_shift_offsets_negative_offsets():
    x = (5, 0, 1, 2)
    y = (0, 1, 2)
    assert list(shift_offsets(x, y, range(-2, 3), 3)) == [-1]
    assert list(shift_offsets(y, x, range(-2, 3), 3)) == [1]


def test_shift_offsets_overlap_at_the_minimum():
    x = (0, 1, 2)
    y = (1, 2, 7)
    # x[i] == y[i - 1] on i = 1, 2: an overlap of two symbols
    assert list(shift_offsets(x, y, range(-1, 2), 2)) == [-1]
    assert list(shift_offsets(x, y, range(-1, 2), 3)) == []
    assert _tails_agree(x, y, 1)
    assert not _tails_agree(x, y, 2)


def test_shift_offsets_all_periodic_offsets():
    x = (0, 1) * 6
    assert list(shift_offsets(x, x, range(-4, 5), 4)) == [-4, -2, 0, 2, 4]


def test_equal_mod_shift_offsets(fib):
    lang = fib.language(8)
    ident, shift, back = (
        SlidingBlockCode.shift_power(fib.alphabet, lang, k) for k in (0, 1, -1)
    )
    assert _equal_mod_shift(ident, ident, lang) == 0
    assert _equal_mod_shift(shift, ident, lang) == 1
    assert _equal_mod_shift(ident, shift, lang) == -1
    assert _equal_mod_shift(back, ident, lang) == -1
    # radius-2 composites against radius-1 elements
    ident1 = SlidingBlockCode(fib.alphabet, fib.alphabet, 1, {w: w[1] for w in lang.blocks_of(3)})
    for outer, inner, element, k in [
        (shift, back, ident1, 0),
        (shift, shift, shift, 1),
        (back, back, back, -1),
    ]:
        composite = compose_codes(outer, inner, lang)
        assert composite.radius == 2
        assert _equal_mod_shift(composite, element, lang) == k


def test_equal_mod_shift_ambiguous_on_a_periodic_language():
    alphabet = Alphabet.of("01")
    # the language of (01)^infinity, where shift^2 is the identity
    periodic = {n: frozenset(((0, 1) * n)[i : i + n] for i in (0, 1)) for n in range(1, 6)}
    lang = LanguageTable(alphabet, periodic, 5)
    # radius 1, so offsets -2 .. 2 are tried
    ident = SlidingBlockCode(alphabet, alphabet, 1, {w: w[1] for w in periodic[3]})
    with pytest.raises(InternalCheckError, match=r"ambiguous: offsets \[-2, 0, 2\]"):
        _equal_mod_shift(ident, ident, lang)
