from flowmcg.asymptotics import (
    action_on_classes,
    asymptotic_classes,
    classes_to_dot,
    stabilize_power,
)
from flowmcg.substitution import Substitution
from flowmcg.words import SlidingBlockCode


def junctions(classes):
    return [tuple(leaf.junction for leaf in cls) for cls in classes.classes]


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


def test_leaf_windows_extend_the_junction(tm):
    classes = asymptotic_classes(tm)
    for cls in classes.classes:
        for leaf in cls:
            window = leaf.window(8)
            assert len(window) == 16
            assert window[7] == leaf.junction[0]
            assert window[8] == leaf.junction[1]


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
    assert action_on_classes(sub, asymptotic_classes(sub, tail_check_length=4096)) == perm
