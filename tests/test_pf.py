from fractions import Fraction

import pytest

from flowmcg.errors import ValidationError
from flowmcg.numberfield import AlgebraicNumber
from flowmcg.pf import cr_check, cylinder_measure, is_pisot, pf_data
from flowmcg.substitution import Substitution

from test_asymptotics import CORPUS


def test_thue_morse_expansion_is_two(tm):
    data = pf_data(tm)
    assert data.lam.as_fraction() == 2
    assert data.left == (data.field.rational(Fraction(1, 2)),) * 2


def test_thue_morse_charpoly_splits(tm):
    data = pf_data(tm)
    # x(x - 2), each factor once
    factors = {f: m for f, m in data.charpoly_factors}
    assert factors == {(0, 1): 1, (-2, 1): 1}


def test_fibonacci_expansion_and_frequencies(fib):
    data = pf_data(fib)
    assert data.lam.minpoly == (-1, -1, 1)
    lam = data.field.generator()
    one = data.field.one()
    # frequency of the long letter is lam - 1, the short one 2 - lam
    assert data.left[0] == lam - one
    assert data.left[1] == one + one - lam
    assert data.left[0] + data.left[1] == one


def test_fibonacci_lambda_is_irrational(fib):
    with pytest.raises(ValidationError):
        pf_data(fib).lam.as_fraction()


def test_constant_length_six_example(cyclic4):
    data = pf_data(cyclic4)
    assert data.lam.as_fraction() == 6
    quarter = data.field.rational(Fraction(1, 4))
    assert data.left == (quarter,) * 4


def test_pisot_verdicts(tm, fib, tribonacci):
    assert is_pisot(tm)
    assert is_pisot(fib)
    assert is_pisot(tribonacci)
    # conjugate (1 - sqrt(13)) / 2 has modulus > 1
    wide = Substitution.from_rules({"0": "0111", "1": "0"})
    assert not is_pisot(wide)


def test_a_pisot_expansion_is_always_balanced():
    # Pisot leaves cr_check no reason to give: every conjugate of lambda
    # contracts and every other factor lies inside the circle
    pisot = 0
    for rules in CORPUS.values():
        sub = Substitution.from_rules(rules)
        if is_pisot(sub):
            pisot += 1
            assert cr_check(sub).is_balanced, rules
    assert pisot > 20


def test_cr_verdict_exact_for_equal_column_sums(tm, cyclic4):
    assert cr_check(tm).verdict == "ExactCR"
    assert cr_check(cyclic4).verdict == "ExactCR"


def test_cr_verdict_proved_for_fibonacci(fib):
    verdict = cr_check(fib)
    assert verdict.verdict == "ProvedCR"
    assert verdict.is_balanced


def test_cr_alpha_matches_expansion_for_constant_length(tm):
    verdict = cr_check(tm)
    two = verdict.alpha.field.rational(2)
    assert verdict.alpha == two


def test_pf_rejects_non_primitive():
    with pytest.raises(ValidationError):
        pf_data(Substitution.from_rules({"0": "01", "1": "11"}))


def test_cylinder_measures_sum_to_one(fib):
    data = pf_data(fib)
    total = cylinder_measure(fib, "0") + cylinder_measure(fib, "1")
    assert total == data.field.one()


def test_cylinder_measure_of_block(fib):
    # mu[01] = mu[1]: every 1 is preceded by 0
    assert cylinder_measure(fib, "01") == cylinder_measure(fib, "1")


def test_block_frequencies_are_a_probability_vector(tm):
    freqs = {b: cylinder_measure(tm, b) for b in tm.language(3).blocks_of(3)}
    field = pf_data(tm).field
    total = field.zero()
    for v in freqs.values():
        total = total + v
    assert total == field.one()
    assert len(freqs) == 6


def test_algebraic_number_refinement():
    a = AlgebraicNumber.from_rational(Fraction(3, 7))
    assert a.as_fraction() == Fraction(3, 7)
    lam = pf_data(Substitution.from_rules({"0": "01", "1": "0"})).lam
    tight = lam.refined(Fraction(1, 10**9))
    assert tight.hi - tight.lo <= Fraction(1, 10**9)
    assert tight.lo < Fraction(16180339888, 10**10) < tight.hi
