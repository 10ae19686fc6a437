import json
import math
import random
from fractions import Fraction

import pytest
import sympy
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from flowmcg.cli import run
from flowmcg.errors import ValidationError
from flowmcg.numberfield import (
    AlgebraicNumber,
    NumberField,
    classify_roots_vs_unit_circle,
    factor_charpoly,
    integer_charpoly,
    minimal_polynomial_of_element,
    same_real_algebraic,
)
from flowmcg.pf import cr_check, is_pisot
from flowmcg.substitution import Substitution, incidence_matrix


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


# ---------------------------------------------------------------------------
# the unit-circle classifier against the root isolation it replaced

# the ten primitive aperiodic inputs of test_criterion_09, then the first
# twelve primitive aperiodic draws of its generator (seed 20260822)
CORPUS = [
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


def _reference_on_circle(asc):
    """Circle roots of an irreducible polynomial: none unless it is
    palindromic of even degree, then twice the real roots in (-2, 2) of
    its polynomial in t = x + 1/x."""
    deg = len(asc) - 1
    if deg == 1:
        return 1 if abs(asc[0]) == abs(asc[1]) else 0
    if list(asc) != list(reversed(asc)) or deg % 2 == 1:
        return 0
    m = deg // 2
    t = sympy.Symbol("t")
    ps = [sympy.Poly(2, t), sympy.Poly(t, t)]
    for _ in range(2, m + 1):
        ps.append(sympy.Poly(t, t) * ps[-1] - ps[-2])
    r = sympy.Poly(asc[m], t)
    for k in range(1, m + 1):
        r = r + int(asc[m + k]) * ps[k]
    return 2 * int(r.count_roots(-2, 2))


def _reference_side(root, max_halvings):
    """-1 inside, 1 outside, 0 undecided, from sympy's isolating boxes of a
    root presented as c * CRootOf(q, i)."""
    scale, base = root.as_coeff_Mul()
    factor = Fraction(int(scale.p), int(scale.q))
    eps = sympy.Rational(1, 4)
    for _ in range(max_halvings):
        val = base.eval_rational(eps / abs(scale), eps / abs(scale))
        re = factor * Fraction(int(sympy.re(val).p), int(sympy.re(val).q))
        im = factor * Fraction(int(sympy.im(val).p), int(sympy.im(val).q))
        e = Fraction(eps.p, eps.q)
        lo_sq = max(abs(re) - e, 0) ** 2 + max(abs(im) - e, 0) ** 2
        hi_sq = (abs(re) + e) ** 2 + (abs(im) + e) ** 2
        if hi_sq < 1:
            return -1
        if lo_sq > 1:
            return 1
        eps = eps / 16
    return 0


def reference_classify(asc):
    """The earlier classifier: isolate every complex root and refine its box
    until it clears the circle; the circle roots never do."""
    deg = len(asc) - 1
    if deg == 1:
        num, den = abs(asc[0]), abs(asc[1])
        if num == den:
            return (0, 1, 0)
        return (1, 0, 0) if num < den else (0, 0, 1)
    on = _reference_on_circle(asc)
    undecided = sympy.Poly(list(reversed(asc)), sympy.Symbol("x")).all_roots(radicals=False)
    inside = outside = 0
    # a second, longer pass only when the first leaves more than the circle
    for halvings in (64 if on == 0 else 24, 128):
        if len(undecided) == on:
            break
        sides = [(_reference_side(root, halvings), root) for root in undecided]
        inside += sum(side == -1 for side, _ in sides)
        outside += sum(side == 1 for side, _ in sides)
        undecided = [root for side, root in sides if side == 0]
    assert len(undecided) == on
    return inside, on, outside


def _corpus_factors():
    factors = set()
    for rules in CORPUS:
        sub = Substitution.from_rules(rules)
        for k in (1, 2, 3):
            chi = integer_charpoly(incidence_matrix(sub.power(k)))
            factors.update(f for f, _ in factor_charpoly(chi))
    return sorted(factors)


def _random_factors(count, seed=20261018):
    """Seeded irreducible integer polynomials of degree 2-5 that are not
    self-reciprocal (the reference is slow on circle roots)."""
    rng = random.Random(seed)
    x = sympy.Symbol("x")
    out = []
    while len(out) < count:
        asc = [rng.randint(-5, 5) for _ in range(rng.randint(2, 5) + 1)]
        if asc[-1] <= 0 or asc == asc[::-1]:
            continue
        if sympy.Poly(list(reversed(asc)), x).is_irreducible:
            out.append(tuple(asc))
    return out


def test_circle_classification_matches_the_reference_on_the_corpus():
    factors = _corpus_factors()
    assert len(factors) == 56
    for asc in factors:
        assert classify_roots_vs_unit_circle(asc) == reference_classify(asc), asc


def test_circle_classification_matches_the_reference_on_random_factors():
    for asc in _random_factors(30):
        assert classify_roots_vs_unit_circle(asc) == reference_classify(asc), asc


@pytest.mark.parametrize("n", range(1, 40))
def test_cyclotomic_roots_lie_on_the_circle(n):
    x = sympy.Symbol("x")
    asc = tuple(int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()))
    assert classify_roots_vs_unit_circle(asc) == (0, int(sympy.totient(n)), 0)


@pytest.mark.parametrize(
    "asc, counts",
    [
        ((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1), (1, 8, 1)),  # Lehmer's
        ((1, -1, -1, -1, 1), (1, 2, 1)),  # Salem x^4 - x^3 - x^2 - x + 1
        ((1, -3, 1), (1, 0, 1)),
        # |a_0| = |a_d| without being reciprocal
        ((-1, 3, 1), (1, 0, 1)),
    ],
)
def test_known_circle_counts(asc, counts):
    assert classify_roots_vs_unit_circle(asc) == counts


def test_a_circle_factor_is_reported_and_blocks_balance():
    # charpoly (x - 2)(x^2 + 1): +-i lie on the circle
    sub = Substitution.from_rules({"0": "01", "1": "21", "2": "00"})
    verdict = cr_check(sub)
    report = next(r for r in verdict.factor_reports if r.poly == (1, 0, 1))
    assert (report.inside, report.on, report.outside) == (0, 2, 0)
    assert report.component_vanishes is False
    assert verdict.verdict == "Inconclusive"
    assert not is_pisot(sub)


def test_cr_cli_on_a_circulant_with_a_cyclotomic_factor(tmp_path, capsys):
    # charpoly (x - 6) * Phi_5: equal column sums, not Pisot
    rules = {"0": "101234", "1": "201234", "2": "301234", "3": "401234", "4": "001234"}
    path = tmp_path / "circulant.json"
    path.write_text(json.dumps({"alphabet": list("01234"), "rules": rules}))
    assert run(["cr", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "ExactCR"
    assert payload["pisot"] is False


# ---------------------------------------------------------------------------
# the integer characteristic polynomial and its factors


def test_integer_charpoly_matches_sympy_on_random_matrices():
    rng = random.Random(20261018)
    x = sympy.Symbol("x")
    for n in range(1, 17):
        for _ in range(3):
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            expected = tuple(int(c) for c in reversed(sympy.Matrix(m).charpoly(x).all_coeffs()))
            assert integer_charpoly(m) == expected
    assert integer_charpoly([[0] * 5] * 5) == (0, 0, 0, 0, 0, 1)


def _two_block_matrix(rules):
    """The substitution acting on 2-blocks: ab -> the 2-blocks of sigma(ab)
    that start inside sigma(a)."""
    sub = Substitution.from_rules(rules)
    pairs = sub.two_blocks()
    counts = [[0] * len(pairs) for _ in pairs]
    for i, (image, cut) in enumerate(sub.two_block_images(1)):
        for pos in range(cut):
            counts[i][pairs.index(image[pos : pos + 2])] += 1
    return counts


def test_integer_charpoly_matches_domain_matrix():
    """Berkowitz against sympy's DomainMatrix over ZZ, up to 9x9 with about
    half the entries zero, and on the 16x16 2-block matrix of sigma4."""
    rng = random.Random(14)
    matrices = [
        [[rng.randint(-20, 20) if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(n)]
        for n in range(1, 10)
        for _ in range(20)
    ]
    matrices.append(_two_block_matrix({"0": "01", "1": "12", "2": "23", "3": "30"}))
    assert len(matrices[-1]) == 16
    for m in matrices:
        dm = DomainMatrix([[ZZ(x) for x in row] for row in m], (len(m), len(m)), ZZ)
        assert integer_charpoly(m) == tuple(int(c) for c in reversed(dm.charpoly()))


# irreducible minimal polynomials of degree 1 to 5, ascending; the field is
# that of the largest real root.  3/2, sqrt(3/2) and the cube root of 2/3
# have minimal polynomials that are not monic.
KERNEL_FIELDS = [
    (-3, 2),
    (-1, -1, 1),
    (-3, 0, 2),
    (-1, -1, 0, 1),
    (-2, 0, 0, 3),
    (1, 0, -10, 0, 1),
    (-1, -1, 0, 0, 0, 1),
]


def _random_elements(field, rng, count):
    for _ in range(count):
        cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(field.degree)]
        if any(cs):
            yield field.element(cs)


@pytest.mark.parametrize("asc", KERNEL_FIELDS, ids=str)
def test_inverse_by_cayley_hamilton(asc):
    field = _field_of(asc)
    rng = random.Random(str(asc))
    for a in _random_elements(field, rng, 40):
        assert a * a.inverse() == field.one()
    with pytest.raises(ZeroDivisionError):
        field.zero().inverse()


@pytest.mark.parametrize("asc", KERNEL_FIELDS, ids=str)
def test_multiplication_rows_and_quotients_match_field_arithmetic(asc):
    """Row t of `multiplication_rows` is s·a·lambda^t with s the least
    integer multiplier, monic minimal polynomial or not; `quotients` divides
    each integer row by a as `inv` and multiplication do."""
    field = _field_of(asc)
    lam = field.generator()
    rng = random.Random("rows " + str(asc))
    elements = list(_random_elements(field, rng, 30))
    for a in elements:
        s, rows = field.multiplication_rows(a)
        products = [a * lam ** t for t in range(field.degree)]
        assert [field.element_over(row, s) for row in rows] == products
        assert s == math.lcm(*(x.den for x in products))
        numerators = [[rng.randint(-20, 20) for _ in range(field.degree)] for _ in range(3)]
        assert field.quotients(numerators, a) == [field.element_over(n, 1) * a.inverse() for n in numerators]


@pytest.mark.parametrize("asc", [f for f in KERNEL_FIELDS if len(f) > 2], ids=str)
def test_compare_fraction_matches_bisection(asc):
    """One sign at q decides the comparison inside the isolating interval,
    as halving the interval until q leaves it does."""
    rng = random.Random("compare " + str(asc))
    for root in AlgebraicNumber.real_roots_of(asc):
        for _ in range(40):
            q = root.lo + (root.hi - root.lo) * Fraction(rng.randint(-10, 30), 20)
            cur = root
            while cur.lo <= q <= cur.hi:
                cur = cur.refined((cur.hi - cur.lo) / 4)
            assert root.compare_fraction(q) == (1 if cur.lo > q else -1), (root, q)


@pytest.mark.parametrize("asc", [f for f in KERNEL_FIELDS if len(f) <= 5], ids=str)
def test_minimal_polynomial_of_element_matches_sympy(asc):
    x = sympy.Symbol("x")
    field = _field_of(asc)
    lam = sympy.Poly(list(reversed(asc)), x).real_roots()[-1]
    rng = random.Random(str(asc))
    for a in _random_elements(field, rng, 6):
        expr = sum(sympy.Rational(c.numerator, c.denominator) * lam**k for k, c in enumerate(a.coeffs))
        want = sympy.Poly(sympy.minimal_polynomial(expr, x), x)
        assert minimal_polynomial_of_element(field, a) == tuple(int(c) for c in reversed(want.all_coeffs()))


@pytest.mark.parametrize("asc", [(-1, -1, 1), (1, -3, 0, 1)], ids=str)
def test_same_real_algebraic_tells_conjugates_apart(asc):
    """p(lam) agrees across two field objects on the same root of lam's
    polynomial; on two different roots the values are conjugates: the same
    minimal polynomial, another number."""
    roots = AlgebraicNumber.real_roots_of(asc)
    rng = random.Random(str(asc))
    for _ in range(8):
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in asc[:-1]]
        coeffs[1] = coeffs[1] or Fraction(1)
        for i, r in enumerate(roots):
            a = NumberField(r).element(coeffs)
            for j, t in enumerate(roots):
                assert same_real_algebraic(a, NumberField(t).element(coeffs)) == (i == j)


def _reference_factor_charpoly(matrix):
    """Factors of the characteristic polynomial through sympy's Matrix and
    expression layer, as computed before the integer path."""
    x = sympy.Symbol("x")
    out = []
    for fac, mult in sympy.Poly(sympy.Matrix(matrix).charpoly(x), x).factor_list()[1]:
        fac = fac.primitive()[1]
        if fac.LC() < 0:
            fac = -fac
        out.append((tuple(int(c) for c in reversed(fac.all_coeffs())), int(mult)))
    return sorted(out)


def test_factor_charpoly_is_unchanged_on_the_corpus():
    for rules in CORPUS:
        sub = Substitution.from_rules(rules)
        for k in (1, 2, 3):
            m = incidence_matrix(sub.power(k))
            assert factor_charpoly(integer_charpoly(m)) == _reference_factor_charpoly(m)


@pytest.mark.parametrize(
    "rational, index",
    [
        (Fraction(1767767, 1250000), 2),
        (Fraction(141421357, 10**8), 2),
        (Fraction(141421356, 10**8), 1),
    ],
)
def test_real_roots_closer_than_the_old_sort_key_are_ordered(rational, index):
    # (x^2 - 2)(den x - num): the rational root is within 10^-6 of sqrt 2
    x = sympy.Symbol("x")
    poly = sympy.Poly((x**2 - 2) * (rational.denominator * x - rational.numerator), x)
    roots = AlgebraicNumber.real_roots_of(tuple(int(c) for c in reversed(poly.all_coeffs())))
    expected = [(-2, 0, 1), (-2, 0, 1)]
    expected.insert(index, (-rational.numerator, rational.denominator))
    assert [r.minpoly for r in roots] == expected
    assert all(a < b and not b < a for a, b in zip(roots, roots[1:]))


def test_order_of_numbers_on_a_shared_interval_endpoint():
    sqrt2 = AlgebraicNumber((-2, 0, 1), Fraction(1), Fraction(3, 2))
    one, three_halves = AlgebraicNumber.from_rational(1), AlgebraicNumber.from_rational(Fraction(3, 2))
    assert one < sqrt2 < three_halves
    assert not sqrt2 < one and not three_halves < sqrt2
    assert not sqrt2 < sqrt2.refined(Fraction(1, 10**6)) and not one < one
    assert sorted([three_halves, sqrt2, one]) == [one, sqrt2, three_halves]
