from fractions import Fraction
from types import SimpleNamespace

import pytest

from flowmcg.automorphisms import _element_orders, _identify_group, search_automorphisms, shift_quotient
from flowmcg.errors import InternalCheckError
from flowmcg.mcg import action_on_measures
from flowmcg.substitution import Substitution
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


def _cayley(gens, mul, identity):
    """The Cayley table of the group the generators make, identity first:
    entry [i][j] is the index of element i times element j."""
    elements = [identity]
    for x in elements:  # grows while it is read, until closed
        for g in gens:
            y = mul(x, g)
            if y not in elements:
                elements.append(y)
    index = {x: i for i, x in enumerate(elements)}
    return tuple(tuple(index[mul(x, y)] for y in elements) for x in elements)


def _perms(*gens):
    """Permutation group on the points the generators move, each generator
    given as its cycles."""
    size = 1 + max(p for gen in gens for cycle in gen for p in cycle)
    images = []
    for gen in gens:
        image = list(range(size))
        for cycle in gen:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                image[a] = b
        images.append(tuple(image))
    return _cayley(images, lambda p, q: tuple(p[i] for i in q), tuple(range(size)))


def _dihedral(n):
    """The symmetries of an n-gon: the rotation and the reflection i -> -i."""
    return _perms([tuple(range(n))], [(i, n - i) for i in range(1, (n + 1) // 2)])


def _dicyclic(m):
    """<a, x | a^(2m) = 1, x^2 = a^m, x a = a^-1 x>, elements a^k x^e."""

    def mul(u, v):
        (k, e), (l, f) = u, v
        return ((k + (-1) ** e * l + m * e * f) % (2 * m), (e + f) % 2)

    return _cayley([(1, 0), (0, 1)], mul, (0, 0))


def _involutions(n, commutative):
    """A table with identity 0 in which every other element squares to 0;
    for n = 6 and 12 no group has it, so only the fallback names fit."""
    table = [[0 if i == j else i if j == 0 else j if i == 0 else (i + j) % n for j in range(n)] for i in range(n)]
    if not commutative:
        table[1][2], table[2][1] = table[2][1] + 1, table[2][1]
    return tuple(map(tuple, table))


# one group of each named kind, and two fallbacks of order above 12
GROUPS = {
    "Z/13": _perms([tuple(range(13))]),
    "Z/14": _perms([tuple(range(14))]),
    "Z/2 x Z/2": _perms([(0, 1)], [(2, 3)]),
    "Z/4 x Z/2": _perms([(0, 1, 2, 3)], [(4, 5)]),
    "Z/2 x Z/2 x Z/2": _perms([(0, 1)], [(2, 3)], [(4, 5)]),
    "Z/3 x Z/3": _perms([(0, 1, 2)], [(3, 4, 5)]),
    "Z/6 x Z/2": _perms([(0, 1, 2, 3, 4, 5)], [(6, 7)]),
    "S3": _perms([(0, 1, 2)], [(0, 1)]),
    "D4": _dihedral(4),
    "Q8": _dicyclic(2),
    "D5": _dihedral(5),
    "A4": _perms([(0, 1, 2)], [(0, 1), (2, 3)]),
    "D6": _dihedral(6),
    "Dic3": _dicyclic(3),
    "group of order 14": _dihedral(7),
    "group of order 16": _perms([(0, 1, 2, 3)], [(4, 5, 6, 7)]),
}


@pytest.mark.parametrize("name", GROUPS)
def test_each_group_gets_its_name(name):
    """Every name `_identify_group` gives, on the Cayley table of a group
    of that kind, after the axioms are checked; a cyclic group is named at
    any order, others only up to GROUP_NAME_BOUND."""
    q = shift_quotient(SimpleNamespace(table=GROUPS[name]))
    assert (q.order, q.name) == (len(GROUPS[name]), name)


@pytest.mark.parametrize("commutative, name", [(True, "abelian of order 6"), (False, "group of order 12")])
def test_a_table_no_group_has_gets_a_fallback_name(commutative, name):
    n = 6 if commutative else 12
    table = _involutions(n, commutative)
    assert _identify_group(table, _element_orders(table, 0)) == name


def test_a_cyclic_quotient_of_order_13_is_named():
    """cyclic13, i -> i(i+1): rotating the letters generates the quotient.
    It was named "group of order 13" while GROUP_NAME_BOUND was tested
    before cyclicity."""
    letters = [str(i) for i in range(13)]
    rules = {a: [a, letters[(i + 1) % 13]] for i, a in enumerate(letters)}
    q = shift_quotient(search_automorphisms(Substitution.from_rules(rules, letters), radius=0))
    assert (q.order, q.name) == (13, "Z/13")
