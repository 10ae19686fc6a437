from fractions import Fraction

import pytest

from flowmcg.automorphisms import search_automorphisms, shift_quotient
from flowmcg.errors import InternalCheckError
from flowmcg.mcg import action_on_measures
from flowmcg.words import Alphabet, SlidingBlockCode


def test_radius_zero_search_on_thue_morse(tm):
    report = search_automorphisms(tm, radius=0)
    assert len(report.codes) == 2
    assert len(report.elements) == 2
    assert report.elements[0].rule == {(a,): a for a in range(2)}
    q = shift_quotient(report)
    assert (q.order, q.name) == (2, "Z/2")
    assert q.element_orders == (1, 2)


def test_radius_one_search_on_thue_morse(tm):
    report = search_automorphisms(tm, radius=1)
    # shifted copies of the identity and of the exchange, two each beyond
    # radius zero
    assert len(report.codes) == 6
    assert len(report.elements) == 2
    assert shift_quotient(report).name == "Z/2"


def test_radius_one_search_on_fibonacci(fib):
    report = search_automorphisms(fib, radius=1)
    # identity and the two unit shifts; nothing beyond the shift itself
    assert len(report.codes) == 3
    assert len(report.elements) == 1
    q = shift_quotient(report)
    assert (q.order, q.name) == (1, "trivial")


def test_radius_zero_search_finds_order_four_rotation(cyclic4):
    report = search_automorphisms(cyclic4, radius=0)
    assert len(report.codes) == 4
    q = shift_quotient(report)
    assert (q.order, q.name) == (4, "Z/4")
    assert sorted(q.element_orders) == [1, 2, 4, 4]


def test_certificate_names_the_bounds(tm):
    report = search_automorphisms(tm, radius=0)
    assert "radius 0" in report.certificate
    assert "depth 12" in report.certificate


def test_composition_table_is_a_group(cyclic4):
    report = search_automorphisms(cyclic4, radius=0)
    q = shift_quotient(report)
    n = q.order
    # closure and the Latin square property
    for row in q.table:
        assert sorted(row) == list(range(n))


def test_measure_action_finds_the_exchange():
    ab = Alphabet.of(["0", "1"])
    swap = SlidingBlockCode.from_symbol_map(ab, ab, {"0": "1", "1": "0"})
    t0 = {(0,): Fraction(2, 3), (1,): Fraction(1, 3)}
    t1 = {(0,): Fraction(1, 3), (1,): Fraction(2, 3)}
    action = action_on_measures(swap, (t0, t1))
    assert action.permutation == (1, 0)
    assert action.margin == Fraction(1, 3)


def test_measure_action_fixes_a_symmetric_table():
    ab = Alphabet.of(["0", "1"])
    swap = SlidingBlockCode.from_symbol_map(ab, ab, {"0": "1", "1": "0"})
    uniform = {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
    skew = {(0,): Fraction(9, 10), (1,): Fraction(1, 10)}
    identity = SlidingBlockCode.from_symbol_map(ab, ab, {"0": "0", "1": "1"})
    assert action_on_measures(identity, (uniform, skew)).permutation == (0, 1)


def test_measure_action_rejects_ambiguous_tables():
    ab = Alphabet.of(["0", "1"])
    swap = SlidingBlockCode.from_symbol_map(ab, ab, {"0": "1", "1": "0"})
    t0 = {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
    t1 = {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
    with pytest.raises(InternalCheckError):
        action_on_measures(swap, (t0, t1))
