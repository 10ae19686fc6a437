"""The tail layer against its plain definitions, kept here as references:
shift matching by full overlaps, one-sided fixed points by whole iterates,
the action on classes by first letters for substitutions and by applying a
block code to the whole tail, and exact signs refined from the field's
first isolating interval every time."""

import random
from fractions import Fraction

import pytest

from flowmcg.asymptotics import TAIL_CHECK, action_on_classes, asymptotic_classes
from flowmcg.errors import InternalCheckError, ValidationError
from flowmcg.numberfield import NumberField
from flowmcg.pf import pf_data
from flowmcg.substitution import Substitution, fixed_point
from flowmcg.words import SlidingBlockCode, shift_offsets

from test_field_integers import interval_eval


def reference_shift_offsets(x, y, shifts, min_overlap):
    out = []
    for j in shifts:
        start = max(0, -j)
        stop = min(len(x), len(y) - j)
        if stop - start >= min_overlap and x[start:stop] == y[start + j : stop + j]:
            out.append(j)
    return out


def reference_fixed_point(sub, seed, length, power, left):
    step = sub.power(power)
    w = step.image_idx(seed)
    if (w[-1] if left else w[0]) != seed:
        end = "end" if left else "start"
        raise ValidationError(f"seed letter does not {end} its own image")
    while len(w) < length:
        nxt = step.apply_idx(w)
        if len(nxt) == len(w):
            raise ValidationError("seed does not grow; substitution not expanding here")
        w = nxt
    return w[len(w) - length :] if left else w[:length]


def reference_action(op, classes):
    """The permutation, or the type and message of the error raised
    instead: a substitution commuting with sigma sends the class of seed a
    to that of the first letter of op(a); a block code's image of each
    whole tail is matched against the class tails on TAIL_CHECK symbols."""
    sub = classes.sub
    seeds = [cls[0][1] for cls in classes.classes]
    if isinstance(op, Substitution):
        if any(op.apply(sub.images[c]) != sub.apply(op.images[c]) for c in range(sub.size)):
            return ValidationError, "map does not commute with the substitution"
        targets = [op.images[a].idx[0] for a in seeds]
        if sorted(targets) != seeds:
            return ValidationError, "map does not permute the asymptotic classes"
        return tuple(seeds.index(t) for t in targets)
    k = classes.power
    powered = sub.power(k)
    max_shift = max(len(powered.image_idx(c)) for c in range(sub.size))
    shifts = range(-max_shift, max_shift + 1)
    tails = [reference_fixed_point(sub, a, TAIL_CHECK, k, False) for a in seeds]
    r = op.radius
    perm = []
    for i, (b, a) in enumerate(cls[0] for cls in classes.classes):
        pad = reference_fixed_point(sub, b, r, k, True)
        whole = pad + reference_fixed_point(sub, a, TAIL_CHECK + r, k, False)
        img = op.apply(whole)
        hits = [
            t for t, other in enumerate(tails)
            if reference_shift_offsets(img, other, shifts, max_shift + 1)
        ]
        if len(hits) != 1:
            return (
                InternalCheckError,
                f"image of class {i} matched {len(hits)} classes within the tail budget",
            )
        perm.append(hits[0])
    if sorted(perm) != list(range(len(tails))):
        return InternalCheckError, "induced map on classes is not a bijection"
    return tuple(perm)


def reference_sign(root, coeffs):
    if all(c == 0 for c in coeffs):
        return 0
    if all(c == 0 for c in coeffs[1:]):
        return (coeffs[0] > 0) - (coeffs[0] < 0)
    while True:
        lo, hi = interval_eval(coeffs, root.lo, root.hi)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        root = root.refined((root.hi - root.lo) / 4)


# shift_offsets ------------------------------------------------------------


def _pairs(rng, letters):
    """Random x and y, with y often holding a shifted copy of x, sometimes
    broken past the compared head."""
    for _ in range(150):
        x = tuple(rng.randrange(letters) for _ in range(rng.randrange(0, 90)))
        kind = rng.randrange(4)
        if kind == 0:
            y = tuple(rng.randrange(letters) for _ in range(rng.randrange(0, 90)))
        else:
            cut = rng.randrange(0, len(x) + 1)
            pad = tuple(rng.randrange(letters) for _ in range(rng.randrange(0, 12)))
            y = list(pad + x[cut:] + pad)
            if kind == 2 and len(y) > 20:
                k = rng.randrange(17, len(y))
                y[k] = (y[k] + 1) % letters
            y = tuple(y)
        yield x, y


def _shift_lists(rng, x, y):
    n = len(x) + len(y) + 3
    yield range(-n, n + 1)
    yield [rng.randrange(-n, n + 1) for _ in range(rng.randrange(0, 30))]
    yield [5, -5, 5, 0, 0, n + 40, -n - 40]
    yield []


@pytest.mark.parametrize("letters", [2, 3, 300])
def test_shift_offsets_match_full_overlap_comparison(letters):
    rng = random.Random(letters)
    for x, y in _pairs(rng, letters):
        for shifts in _shift_lists(rng, x, y):
            for min_overlap in (-1, 0, 1, 5, 16, 17, 40, len(x) // 2, len(x) + 1):
                got = list(shift_offsets(x, y, shifts, min_overlap))
                assert got == reference_shift_offsets(x, y, shifts, min_overlap)


@pytest.mark.parametrize("period", [(0, 1), (0, 0, 1), (2, 0, 1, 1, 0), tuple(range(17))])
def test_shift_offsets_on_periodic_words(period):
    x = period * (70 // len(period) + 1)
    for y in (x, x[3:], x[: len(x) - 5], (1,) + x, x[: len(x) // 2]):
        for min_overlap in (0, 1, 16, 20, len(y)):
            shifts = range(-len(x) - 2, len(x) + 3)
            got = list(shift_offsets(x, y, shifts, min_overlap))
            assert got == reference_shift_offsets(x, y, shifts, min_overlap)


def test_shift_offsets_on_empty_and_short_overlaps():
    for x, y in [((), ()), ((), (1,)), ((1,), ()), ((1,), (1,)), ((0, 1), (1, 0))]:
        for min_overlap in (-2, 0, 1, 2, 3):
            shifts = range(-4, 5)
            got = list(shift_offsets(x, y, shifts, min_overlap))
            assert got == reference_shift_offsets(x, y, shifts, min_overlap)


# fixed_point --------------------------------------------------------------

RULES = {
    "tm": {"0": "01", "1": "10"},
    "fib": {"0": "01", "1": "0"},
    "tribonacci": {"0": "01", "1": "02", "2": "0"},
    "cyclic4": {"0": "012230", "1": "123301", "2": "230012", "3": "301123"},
    "sigma4": {"0": "01", "1": "12", "2": "23", "3": "30"},
    "pool06": {"0": "21", "1": "0210", "2": "2011"},
    "s0111_0": {"0": "0111", "1": "0"},
    "slow": {"0": "0", "1": "110"},
}
LENGTHS = (0, 1, 2, 3, 7, 16, 17, 100, 511, 1000, 2048, 4095, 4096)


def _outcome(call):
    try:
        return call()
    except ValidationError as err:
        return str(err)


def reference_cycle_length(letter_map, seed):
    """Least m >= 1 with letter_map^m(seed) == seed, or 1 for a seed on no
    cycle (which starts, or ends, no image of itself)."""
    x = seed
    for m in range(1, len(letter_map) + 1):
        x = letter_map[x]
        if x == seed:
            return m
    return 1


@pytest.mark.parametrize("name", sorted(RULES))
@pytest.mark.parametrize("multiple", [1, 2, 3])
@pytest.mark.parametrize("left", [False, True])
def test_fixed_point_matches_whole_iterates(name, multiple, left):
    # the point of a seed on a cycle of length c is fixed by sigma^c and by
    # every multiple of it
    sub = Substitution.from_rules(RULES[name])
    reference = Substitution.from_rules(RULES[name])
    letter_map = reference.last_letter_map() if left else reference.first_letter_map()
    for seed in range(sub.size):
        power = multiple * reference_cycle_length(letter_map, seed)
        for length in LENGTHS:
            got = _outcome(lambda: fixed_point(sub, seed, length, left=left))
            want = _outcome(lambda: reference_fixed_point(reference, seed, length, power, left))
            assert got == want, (name, seed, length)


def test_fixed_point_serves_longer_then_shorter_lengths_from_one_substitution():
    # sigma^3 fixes both tribonacci points of seed 0: the right one's cycle
    # has length 1, the left one's length 3
    sub = Substitution.from_rules(RULES["tribonacci"])
    reference = Substitution.from_rules(RULES["tribonacci"])
    for left in (False, True):
        for length in (1, 5, 300, 4096, 2047, 12, 4096, 1, 0, 3000):
            want = reference_fixed_point(reference, 0, length, 3, left)
            assert fixed_point(sub, 0, length, left=left) == want


def test_fixed_point_errors_keep_their_messages():
    slow = Substitution.from_rules(RULES["slow"])
    assert fixed_point(slow, 0, 1) == (0,)
    for _ in range(2):
        with pytest.raises(ValidationError, match="^seed does not grow; substitution not expanding here$"):
            fixed_point(slow, 0, 2)
    with pytest.raises(ValidationError, match="^seed letter does not end its own image$"):
        fixed_point(slow, 1, 5, left=True)
    # 1 is on no cycle of 0 -> 0, 1 -> 0, and is refused before any length
    with pytest.raises(ValidationError, match="^seed letter does not start its own image$"):
        fixed_point(Substitution.from_rules(RULES["s0111_0"]), 1, 0)
    # the last-letter map of Thue-Morse swaps 0 and 1, so seed 0 ends sigma^2(0)
    tm = Substitution.from_rules(RULES["tm"])
    assert fixed_point(tm, 0, 3, left=True) == (1, 1, 0)


# action_on_classes --------------------------------------------------------


@pytest.mark.parametrize("name", ["tm", "fib", "tribonacci", "cyclic4"])
def test_action_on_classes_matches_the_whole_tail_image(name):
    sub = Substitution.from_rules(RULES[name])
    classes = asymptotic_classes(sub)
    letters = list(sub.alphabet)
    swap = dict(zip(letters, letters))
    swap[letters[0]], swap[letters[1]] = letters[1], letters[0]
    rotation = dict(zip(letters, letters[1:] + letters[:1]))
    ops = [sub, sub.power(2)]
    for rules in (swap, rotation):
        ops.append(Substitution.from_rules(rules, letters))
        ops.append(SlidingBlockCode.from_symbol_map(sub.alphabet, sub.alphabet, rules))
    for op in ops:
        want = reference_action(op, classes)
        try:
            got = action_on_classes(op, classes)
        except (ValidationError, InternalCheckError) as err:
            got = type(err), str(err)
        assert got == want


# sign ---------------------------------------------------------------------


def _elements(root, rng):
    """Small random elements, and lambda - q for q ever closer to lambda,
    whose signs need narrow intervals."""
    d = root.degree
    out = [tuple(Fraction(rng.randint(-9, 9)) for _ in range(d)) for _ in range(60)]
    for k in range(1, 40, 3):
        near = root.refined(Fraction(1, 2**k))
        for q in (near.lo, near.hi):
            out.append((-q, Fraction(1)) + (Fraction(0),) * (d - 2))
            out.append((q, Fraction(-1)) + (Fraction(0),) * (d - 2))
    out.append((Fraction(0),) * d)
    out.append((Fraction(-3),) + (Fraction(0),) * (d - 1))
    return out


@pytest.mark.parametrize("name", ["fib", "tribonacci", "s0111_0", "pool06"])
def test_sign_matches_a_fresh_refinement_in_any_order(name):
    root = pf_data(Substitution.from_rules(RULES[name])).field.root
    assert root.degree >= 2
    elements = _elements(root, random.Random(name))
    want = [reference_sign(root, c) for c in elements]
    assert 1 in want and -1 in want and 0 in want
    for order in (elements, elements[::-1]):
        field = NumberField(root)
        got = {c: field.element(c).sign() for c in order}
        assert [got[c] for c in elements] == want
    for c, s in zip(elements, want):
        fresh = NumberField(root)
        assert fresh.element(c).sign() == s

