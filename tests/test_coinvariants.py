from fractions import Fraction
from math import prod

import pytest
import sympy

from flowmcg.coinvariants import (
    build_coinvariants,
    coinvariants_report,
    cylinder_class,
    derived_proper,
    element_equal,
    infinitesimal_rank,
    restrict_class,
    trace,
    trace_image,
)
from flowmcg.errors import ValidationError
from flowmcg.substitution import Substitution


def test_derived_return_words(tm, fib):
    d = derived_proper(tm)
    assert ["".join(map(str, w)) for w in d.return_words] == ["011", "01", "0"]
    assert d.lengths == (3, 2, 1)
    d = derived_proper(fib)
    assert ["".join(map(str, w)) for w in d.return_words] == ["01", "0"]


def test_thue_morse_presentation(tm):
    report = coinvariants_report(tm)
    assert report.free_rank == 2
    assert report.invariant_factors == (1, 4)
    assert report.infinitesimal_rank == 1


def test_fibonacci_presentation(fib):
    report = coinvariants_report(fib)
    assert report.free_rank == 2
    assert report.invariant_factors == (1, 1)
    assert report.infinitesimal_rank == 0


def test_constant_length_six_presentation(cyclic4):
    report = coinvariants_report(cyclic4)
    assert report.free_rank == 3
    assert report.invariant_factors == (1, 2, 6)
    assert report.trace_image_description == "Z[1/6]"
    assert report.infinitesimal_rank == 2


def test_sigma4_presentation_completes():
    # the squared derived matrix of this input made the old pivot-loop Smith
    # form grow entries past 100,000 bits without finishing
    sigma4 = Substitution.from_rules({"0": "01", "1": "12", "2": "23", "3": "30"})
    report = coinvariants_report(sigma4)
    assert report.invariant_factors == (1,) * 9 + (2, 4, 32)
    # with chi_N = x^k·g(x), the cokernel on Z^d modulo the eventual kernel
    # has order |g(0)|
    chi = sympy.Matrix(build_coinvariants(sigma4).n_matrix).charpoly().all_coeffs()
    assert prod(report.invariant_factors) == abs(next(c for c in reversed(chi) if c))


def test_order_unit_has_trace_one(tm, fib):
    for sub in (tm, fib):
        g = build_coinvariants(sub)
        assert trace(g, g.order_unit).exact() == g.field.one()


def test_letter_cylinder_traces(tm):
    g = build_coinvariants(tm)
    half = g.field.rational(Fraction(1, 2))
    assert trace(g, cylinder_class(g, "0")).exact() == half
    assert trace(g, cylinder_class(g, "1")).exact() == half


def test_level_relation_respects_equality(fib):
    # raising the level rewrites the vector through the transition matrix
    g = build_coinvariants(fib)
    e = g.element(0, (1, 1))
    assert element_equal(g, e, e.raised(3))
    assert trace(g, e) == trace(g, e.raised(3))


def test_letter_classes_identified_by_symmetry(cyclic4):
    g = build_coinvariants(cyclic4)
    e = [cylinder_class(g, s) for s in "0123"]
    assert element_equal(g, e[0], e[2])
    assert element_equal(g, e[1], e[3])
    assert not element_equal(g, e[0], e[1])
    quarter = g.field.rational(Fraction(1, 4))
    for x in e:
        assert trace(g, x).exact() == quarter


def test_trace_image_membership(tm):
    image = trace_image(tm)
    assert image.description == "Z[1/2]"
    assert image.contains(Fraction(3, 8))
    assert not image.contains(Fraction(1, 3))


def test_infinitesimal_ranks(tm, fib, cyclic4):
    assert infinitesimal_rank(tm) == 1
    assert infinitesimal_rank(fib) == 0
    assert infinitesimal_rank(cyclic4) == 2


def test_restricting_a_cylinder_weight(fib):
    # the indicator of [00], viewed from the section [0]: it fires exactly
    # on visits whose return word is the single letter
    rc = restrict_class(fib, {"00": 1}, "0")
    assert rc.return_words == ((0, 1), (0,))
    assert rc.weights == (0, 1)
    g = build_coinvariants(fib)
    assert element_equal(g, rc.as_group_element(g), cylinder_class(g, "00"))


def test_restriction_to_whole_space_is_letterwise(fib):
    rc = restrict_class(fib, {"0": 1}, None)
    assert rc.base_letter is None
    assert rc.weights == (1, 0)


def test_restriction_base_mismatch_is_rejected(fib):
    rc = restrict_class(fib, {"0": 1}, None)
    g = build_coinvariants(fib)
    with pytest.raises(ValidationError):
        rc.as_group_element(g)
