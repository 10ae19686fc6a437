from fractions import Fraction

import pytest

from flowmcg.errors import ValidationError
from flowmcg.numberfield import AlgebraicNumber, NumberField, classify_roots_vs_unit_circle
from flowmcg.pf import cr_check
from flowmcg.substitution import Substitution


def _field_of(asc, index=-1):
    return NumberField(AlgebraicNumber.real_roots_of(asc)[index])


def test_arithmetic_across_fields_is_rejected():
    golden = _field_of((-1, -1, 1)).generator()  # (1 + sqrt 5) / 2
    silver = _field_of((-1, -2, 1)).generator()  # 1 + sqrt 2
    for op in (
        lambda: golden * silver,
        lambda: golden + silver,
        lambda: golden - silver,
        lambda: golden / silver,
        lambda: golden == silver,
    ):
        with pytest.raises(ValidationError):
            op()


def test_fields_with_the_same_root_agree():
    first, second = _field_of((-1, -1, 1)), _field_of((-1, -1, 1))
    assert first is not second and first == second
    assert first.generator() * second.one() == second.generator()
    # the other root of the same polynomial is a different field
    conjugate = _field_of((-1, -1, 1), index=0)
    assert conjugate != first
    with pytest.raises(ValidationError):
        conjugate.one() + first.one()


def test_algebraic_equality_by_isolating_intervals():
    root = AlgebraicNumber.real_roots_of((-2, 0, 1))[1]
    assert root.equals(root.refined(Fraction(1, 10**6)))
    assert not root.equals(AlgebraicNumber.real_roots_of((-2, 0, 1))[0])
    assert AlgebraicNumber.from_rational(2).equals(AlgebraicNumber.from_rational(2))


def test_scaled_roots_are_placed_against_the_circle():
    # sympy presents the roots 1 +- sqrt 5 as 2*CRootOf(x**2 - x - 1, i)
    assert classify_roots_vs_unit_circle((-4, -2, 1)) == (0, 0, 2)
    assert classify_roots_vs_unit_circle((-1, -1, 1)) == (1, 0, 1)


def test_balance_check_with_a_scaled_dominant_factor():
    # incidence ((2, 2), (2, 0)), characteristic polynomial x^2 - 2x - 4
    sub = Substitution.from_rules({"0": "1010", "1": "00"})
    # the conjugate 1 - sqrt 5 lies outside the unit circle
    verdict = cr_check(sub)
    assert verdict.verdict == "Inconclusive"
    assert verdict.factor_reports[0].outside == 2
