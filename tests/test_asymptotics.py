"""Asymptotic classes, one per right seed, and the action on them.  The
former construction, which merged seeds and dropped leaves by comparing
2,048-symbol tails up to shift, is kept here as the oracle."""

import itertools
import random

import pytest

from flowmcg.asymptotics import (
    action_on_classes,
    asymptotic_classes,
    classes_to_dot,
    stabilize_power,
)
from flowmcg.errors import InternalCheckError, ValidationError
from flowmcg.substitution import Substitution, fixed_point, is_aperiodic, is_primitive
from flowmcg.words import SlidingBlockCode, shift_offsets

from test_cross_sections import CIRCLE
from test_one_core import RULES
from test_tails import reference_fixed_point


def junctions(classes):
    return list(classes.classes)


def test_stabilizing_powers(tm, fib, cyclic4):
    assert stabilize_power(tm) == 2
    assert stabilize_power(fib) == 2
    assert stabilize_power(cyclic4) == 1


def test_thue_morse_has_two_classes(tm):
    classes = asymptotic_classes(tm)
    assert classes.count == 2
    assert junctions(classes) == [((0, 0), (1, 0)), ((0, 1), (1, 1))]


def test_fibonacci_has_one_class(fib):
    classes = asymptotic_classes(fib)
    assert classes.count == 1
    assert junctions(classes) == [((0, 0), (1, 0))]


def test_constant_length_six_has_four_classes(cyclic4):
    classes = asymptotic_classes(cyclic4)
    assert classes.count == 4
    assert junctions(classes) == [
        ((0, 0), (3, 0)),
        ((0, 1), (1, 1)),
        ((1, 2), (2, 2)),
        ((2, 3), (3, 3)),
    ]


def test_substitution_acts_trivially_on_classes(tm, cyclic4):
    for sub in (tm, cyclic4):
        classes = asymptotic_classes(sub)
        n = classes.count
        assert action_on_classes(sub, classes) == tuple(range(n))


def test_letter_swap_exchanges_the_classes(tm):
    classes = asymptotic_classes(tm)
    swap = SlidingBlockCode.from_symbol_map(tm.alphabet, tm.alphabet, {"0": "1", "1": "0"})
    assert action_on_classes(swap, classes) == (1, 0)


def test_rotation_cycles_the_classes(cyclic4):
    classes = asymptotic_classes(cyclic4)
    rot = SlidingBlockCode.from_symbol_map(
        cyclic4.alphabet, cyclic4.alphabet, {"0": "1", "1": "2", "2": "3", "3": "0"}
    )
    perm = action_on_classes(rot, classes)
    assert perm == (1, 2, 3, 0)
    # order four
    seen = perm
    for _ in range(3):
        seen = tuple(perm[i] for i in seen)
    assert seen == (0, 1, 2, 3)


def test_dot_export_mentions_every_class(tm):
    classes = asymptotic_classes(tm)
    dot = classes_to_dot(classes)
    assert "cluster_0" in dot and "cluster_1" in dot
    assert dot.count("label=") >= 4


def test_class_action_compares_the_whole_certified_tail():
    # 0→1202, 1→2, 2→0: on 512 symbols σ's image of class 0 also matched
    # class 0 at offset 157
    sub = Substitution.from_rules({"0": "1202", "1": "2", "2": "0"})
    perm = action_on_classes(sub, asymptotic_classes(sub))
    assert perm == (1, 2, 0)


# the oracle ----------------------------------------------------------------


def _agree(x, y, max_shift):
    shifts = range(-max_shift, max_shift + 1)
    return next(shift_offsets(x, y, shifts, max_shift + 1), None) is not None


def oracle_classes(sub, check=2048):
    """(power, junctions per class), or the message of the error raised:
    the classes of the seeds, with leaves whose windows agree up to shift
    on half their length dropped and seeds whose tails agree merged."""
    k = stabilize_power(sub)
    powered = sub.power(k)
    d = sub.size
    right_seeds = [a for a in range(d) if powered.first_letter_map()[a] == a]
    left_seeds = [b for b in range(d) if powered.last_letter_map()[b] == b]
    lang2 = sub.language(2)
    raw = []
    for a in right_seeds:
        bs = [b for b in left_seeds if lang2.admissible((b, a))]
        if len(bs) >= 2:
            raw.append([(b, a) for b in bs])
    if not raw:
        return "no asymptotic class found; enumeration should be nonempty"
    max_shift = max(len(powered.image_idx(c)) for c in range(d))
    shifts = range(-max_shift, max_shift + 1)
    for leaves in raw:
        kept = []
        for b, a in leaves:
            w = reference_fixed_point(sub, b, check, k, True) + reference_fixed_point(sub, a, check, k, False)
            if not any(
                next(shift_offsets(w, seen, shifts, len(w) // 2), None) is not None
                for _, seen in kept
            ):
                kept.append(((b, a), w))
        leaves[:] = [leaf for leaf, _ in kept]
    raw = [leaves for leaves in raw if len(leaves) >= 2]
    if not raw:
        return f"tail check of {check} symbols leaves no class with two leaves"
    merged, tails = [], []
    for leaves in raw:
        tail = reference_fixed_point(sub, leaves[0][1], check, k, False)
        for i, seen in enumerate(tails):
            if _agree(tail, seen, max_shift):
                merged[i].extend(leaves)
                break
        else:
            merged.append(list(leaves))
            tails.append(tail)
    for leaves in merged:
        leaves.sort()
        if len(set(leaves)) != len(leaves):
            return "repeated junction inside a class"
    return k, [tuple(leaves) for leaves in merged]


def oracle_action(op, sub, k, classes, check=2048):
    """The permutation a substitution induces by matching the image of each
    class tail against the class tails up to shift, or the error message."""
    powered = sub.power(k)
    max_shift = max(
        max(len(powered.image_idx(c)) for c in range(sub.size)),
        max(len(w) for w in op.images),
    )
    tails = [reference_fixed_point(sub, cls[0][1], check, k, False) for cls in classes]
    perm = []
    for i, tail in enumerate(tails):
        img = op.apply_idx(tail)[:check]
        hits = [t for t, other in enumerate(tails) if _agree(img, other, max_shift)]
        if len(hits) != 1:
            return f"image of class {i} matched {len(hits)} classes within the tail budget"
        perm.append(hits[0])
    if sorted(perm) != list(range(len(tails))):
        return "induced map on classes is not a bijection"
    return tuple(perm)


def _renamings(rules):
    letters = sorted(rules)
    for perm in itertools.permutations(letters):
        name = dict(zip(letters, perm))
        yield {name[a]: "".join(name[c] for c in w) for a, w in rules.items()}


def _key(rules):
    return ",".join(f"{a}>{w}" for a, w in sorted(rules.items()))


# the fixed ten and the pool (RULES), every renaming of the pool, and the
# circle-factor inputs
CORPUS = {
    _key(r): r
    for r in RULES + [q for rules in RULES[10:] for q in _renamings(rules)] + CIRCLE
}
# the oracle merges two seeds of each: their tails agree far past the
# longest image of sigma^k, then differ
FALSE_MERGES = [
    {"0": "2", "1": "0211", "2": "10"},
    {"0": "0332", "1": "0", "2": "3", "3": "2130"},
]


def _letter_ops(sub):
    """sigma, sigma^2, the swap of the first two letters and the rotation of
    the alphabet, as substitutions."""
    letters = list(sub.alphabet)
    swap = dict(zip(letters, letters))
    swap[letters[0]], swap[letters[1]] = letters[1], letters[0]
    rotation = dict(zip(letters, letters[1:] + letters[:1]))
    return [sub, sub.power(2)] + [
        Substitution.from_rules(rules, letters) for rules in (swap, rotation)
    ]


def _commutes(op, sub):
    return all(
        op.apply_idx(sub.image_idx(c)) == sub.apply_idx(op.image_idx(c))
        for c in range(sub.size)
    )


@pytest.mark.parametrize("key", sorted(CORPUS))
def test_classes_and_action_match_the_oracle(key):
    sub = Substitution.from_rules(CORPUS[key])
    want = oracle_classes(sub)
    try:
        classes = asymptotic_classes(sub)
    except InternalCheckError as err:
        assert str(err) == want
        return
    assert not isinstance(want, str)
    k, junctions_want = want
    assert classes.power == k
    assert junctions(classes) == junctions_want
    for op in _letter_ops(sub):
        if not _commutes(op, sub):
            with pytest.raises(ValidationError, match="does not commute"):
                action_on_classes(op, classes)
            continue
        perm = action_on_classes(op, classes)
        assert sorted(perm) == list(range(classes.count))
        ref = oracle_action(op, sub, k, junctions_want)
        if not isinstance(ref, str):
            assert perm == ref


@pytest.mark.parametrize("rules", FALSE_MERGES, ids=_key)
def test_the_falsely_merged_inputs_gain_a_class(rules):
    sub = Substitution.from_rules(rules)
    _, merged = oracle_classes(sub)
    assert len(merged) == 2
    assert asymptotic_classes(sub).count == 3


def test_seeds_one_and_two_of_a_false_merge_part_after_1974_symbols():
    # 0→2, 1→0211, 2→10: σ^6's longest image has 521 letters, so the
    # oracle's 2,048-symbol comparison takes u^(2) for a shift of u^(1)
    sub = Substitution.from_rules({"0": "2", "1": "0211", "2": "10"})
    classes = asymptotic_classes(sub)
    assert [cls[0][1] for cls in classes.classes] == [0, 1, 2]
    u1, u2 = (fixed_point(sub, a, 4096) for a in (1, 2))
    assert list(shift_offsets(u2[:2048], u1[:2048], range(-521, 522), 522)) == [-233]
    agree = next(i for i in range(233, 4096) if u2[i] != u1[i - 233]) - 233
    assert agree == 1974


def _sweep(seed, count):
    """`count` distinct primitive aperiodic substitutions on 2 to 4 letters,
    images of 1 to 4 letters."""
    rng = random.Random(seed)
    seen = set()
    while len(seen) < count:
        letters = "0123"[: rng.choice((2, 3, 4))]
        rules = {
            a: "".join(rng.choice(letters) for _ in range(rng.randint(1, 4)))
            for a in letters
        }
        if _key(rules) in seen:
            continue
        sub = Substitution.from_rules(rules)
        if not is_primitive(sub) or is_aperiodic(sub).periodic:
            continue
        seen.add(_key(rules))
        yield sub


@pytest.mark.parametrize("seed", [7, 11])
def test_sigma_permutes_the_classes_on_random_inputs(seed):
    # on these draws the oracle's tail comparisons match an image to no
    # class, or two classes to one, 9 times
    returned = 0
    for sub in _sweep(seed, 300):
        try:
            classes = asymptotic_classes(sub)
        except InternalCheckError as err:
            assert str(err).startswith("no asymptotic class found")
            continue
        returned += 1
        seeds = [cls[0][1] for cls in classes.classes]
        for op in (sub, sub.power(2)):
            perm = action_on_classes(op, classes)
            assert sorted(perm) == list(range(classes.count))
            first = op.first_letter_map()
            assert [seeds[j] for j in perm] == [first[a] for a in seeds]
    assert returned > 150


def test_a_map_that_does_not_commute_is_refused(fib, tm):
    classes = asymptotic_classes(tm)
    with pytest.raises(ValidationError, match="does not commute"):
        action_on_classes(Substitution.from_rules({"0": "01", "1": "0"}), classes)
    with pytest.raises(ValidationError, match="alphabet"):
        action_on_classes(Substitution.from_rules({"a": "ab", "b": "a"}), classes)


def test_a_block_code_whose_image_matches_no_tail_is_refused(tm):
    # flipping the middle letter of 001 alone takes the tails out of the
    # language, so no class tail matches the image
    rule = {w: w[1] for w in tm.language(3).blocks_of(3)}
    rule[(0, 0, 1)] = 1
    flip = SlidingBlockCode(tm.alphabet, tm.alphabet, 1, rule)
    with pytest.raises(InternalCheckError, match="matched 0 classes"):
        action_on_classes(flip, asymptotic_classes(tm))
