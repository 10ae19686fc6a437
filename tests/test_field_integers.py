"""Number-field arithmetic on integer numerators over one denominator,
against the Fraction-coefficient arithmetic it replaced, kept here as the
reference.  Seeded random elements are drawn in the fields of the dominant
eigenvalues of the report inputs, in the field of a root of 2x^2 - 3 (a
minimal polynomial that is not monic) and in fields whose isolating
interval is negative or contains 0.  The Fraction interval evaluator the
field's signs and approximations were once read off is kept here too, as
the oracle of both."""

import math
import random
from fractions import Fraction

import pytest

from flowmcg.numberfield import AlgebraicNumber, NumberField
from flowmcg.pf import pf_data
from flowmcg.substitution import Substitution

# the ten primitive aperiodic substitutions of test_criterion_09, then the
# first twelve primitive aperiodic draws of its generator
INPUTS = {
    "fib": {"0": "01", "1": "0"},
    "tm": {"0": "01", "1": "10"},
    "tribonacci": {"0": "01", "1": "02", "2": "0"},
    "cyclic4": {"0": "012230", "1": "123301", "2": "230012", "3": "301123"},
    "s01_00": {"0": "01", "1": "00"},
    "s0111_0": {"0": "0111", "1": "0"},
    "s0012_12_012": {"0": "0012", "1": "12", "2": "012"},
    "s011_01": {"0": "011", "1": "01"},
    "sigma4": {"0": "01", "1": "12", "2": "23", "3": "30"},
    "s02_01_1": {"0": "02", "1": "01", "2": "1"},
    "pool00": {"0": "01", "1": "010"},
    "pool01": {"0": "1100", "1": "100"},
    "pool02": {"0": "111", "1": "101"},
    "pool03": {"0": "1202", "1": "2", "2": "0"},
    "pool04": {"0": "221", "1": "001", "2": "21"},
    "pool05": {"0": "1111", "1": "010"},
    "pool06": {"0": "21", "1": "0210", "2": "2011"},
    "pool07": {"0": "1010", "1": "00"},
    "pool08": {"0": "021", "1": "02", "2": "21"},
    "pool09": {"0": "0010", "1": "101"},
    "pool10": {"0": "010", "1": "011"},
    "pool11": {"0": "1101", "1": "00"},
}

# roots given by hand: ascending minimal polynomial and isolating interval
HAND = {
    "sqrt(3/2)": ((-3, 0, 2), Fraction(1), Fraction(2)),
    "-sqrt(3/2)": ((-3, 0, 2), Fraction(-2), Fraction(-1)),
    "-sqrt2": ((-2, 0, 1), Fraction(-2), Fraction(-1)),
    # -2 + sqrt 5, about 0.236, the only root in (-1, 1)
    "across0": ((-1, 4, 1), Fraction(-1), Fraction(1)),
    # (-1 + sqrt 13) / 6, about 0.434, not monic
    "across0_lead3": ((-1, 1, 3), Fraction(-1, 2), Fraction(1)),
    # the root about 0.347 of x^3 - 3x + 1
    "across0_cubic": ((1, -3, 0, 1), Fraction(-1), Fraction(1)),
}


def interval_eval(coeffs, lo, hi):
    """Interval extension of a polynomial over [lo, hi] via monomial bounds."""
    out_lo = Fraction(0)
    out_hi = Fraction(0)
    plo, phi = Fraction(1), Fraction(1)  # bounds for t^k over the interval
    for c in coeffs:
        if c > 0:
            out_lo += c * plo
            out_hi += c * phi
        elif c < 0:
            out_lo += c * phi
            out_hi += c * plo
        # next power bounds
        cands = [plo * lo, plo * hi, phi * lo, phi * hi]
        plo, phi = min(cands), max(cands)
    return out_lo, out_hi


def reference_approx(root, coeffs, eps):
    """The midpoint of `interval_eval` once it is narrower than eps, from
    lambda's interval `root` on in quarter steps."""
    while True:
        lo, hi = interval_eval(coeffs, root.lo, root.hi)
        if hi - lo < eps:
            return (lo + hi) / 2
        root = root.refined((root.hi - root.lo) / 4)


def _root(name):
    if name in INPUTS:
        return pf_data(Substitution.from_rules(INPUTS[name])).field.root
    return AlgebraicNumber(*HAND[name])


class Reference:
    """Q(lambda) as it was: tuples of Fraction coefficients, reduced mod
    the monic minimal polynomial, signs refined from the first isolating
    interval every time."""

    def __init__(self, root):
        self.root = root
        self.d = root.degree
        lead = root.minpoly[-1]
        self.monic = tuple(Fraction(c, lead) for c in root.minpoly)

    def reduce(self, cs):
        d = self.d
        work = [Fraction(c) for c in cs]
        for k in range(len(work) - 1, d - 1, -1):
            c = work[k]
            if c == 0:
                continue
            work[k] = Fraction(0)
            for i in range(d):
                work[k - d + i] += -self.monic[i] * c
        return tuple(work[:d] + [Fraction(0)] * max(0, d - len(work)))

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def mul(self, a, b):
        prod = [Fraction(0)] * (2 * self.d - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        return self.reduce(prod)

    def scal(self, q, a):
        return tuple(Fraction(q) * x for x in a)

    def one(self):
        return self.reduce([1])

    def sign(self, a):
        if all(c == 0 for c in a):
            return 0
        if all(c == 0 for c in a[1:]):
            return (a[0] > 0) - (a[0] < 0)
        root = self.root
        while True:
            lo, hi = interval_eval(a, root.lo, root.hi)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            root = root.refined((root.hi - root.lo) / 4)


def _coeff_tuples(root, rng):
    """Small random coefficient tuples, rationals, zero, and lambda - q for
    q ever closer to lambda, whose signs need narrow intervals."""
    d = root.degree
    out = [
        tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(d))
        for _ in range(30)
    ]
    out += [(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),) + (Fraction(0),) * (d - 1)
            for _ in range(4)]
    out.append((Fraction(0),) * d)
    if d >= 2:
        for k in range(1, 40, 6):
            near = root.refined(Fraction(1, 2**k))
            for q in (near.lo, near.hi):
                out.append((-q, Fraction(1)) + (Fraction(0),) * (d - 2))
    return out


def _canonical(x):
    return x.den > 0 and math.gcd(x.den, *x.nums) == 1


NAMES = list(INPUTS) + list(HAND)


@pytest.mark.parametrize("name", NAMES)
def test_arithmetic_matches_the_fraction_reference(name):
    root = _root(name)
    ref = Reference(root)
    field = NumberField(root)
    rng = random.Random(name)
    tuples = _coeff_tuples(root, rng)
    elements = [field.element(c) for c in tuples]
    for x, c in zip(elements, tuples):
        assert x.coeffs == ref.reduce(c) and _canonical(x)
        for k in (6, -6):
            assert field.element_over([v * k for v in x.nums], x.den * k) == x
    for _ in range(80):
        i, j = rng.randrange(len(tuples)), rng.randrange(len(tuples))
        x, y, a, b = elements[i], elements[j], tuples[i], tuples[j]
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        n = rng.randint(-4, 4)
        for got, want in (
            (x + y, ref.add(a, b)),
            (x - y, ref.sub(a, b)),
            (-x, ref.sub(ref.reduce([]), a)),
            (x * y, ref.mul(a, b)),
            (x * q, ref.scal(q, a)),
            (n * y, ref.scal(n, b)),
        ):
            assert got.coeffs == want and _canonical(got)
        assert (x == y) == (a == b)
        # the same element reached two ways is equal and hashes equally
        again = (x + y) - y
        assert again == x and hash(again) == hash(x) and _canonical(again)
        assert field.element((x * y).coeffs) == y * x
        assert hash(field.element((x * y).coeffs)) == hash(y * x)


@pytest.mark.parametrize("name", NAMES)
def test_inverse_and_power_match_the_fraction_reference(name):
    root = _root(name)
    ref = Reference(root)
    field = NumberField(root)
    rng = random.Random("power " + name)
    for c in _coeff_tuples(root, rng)[:12]:
        x = field.element(c)
        if x.is_zero():
            continue
        assert ref.mul(x.inverse().coeffs, c) == ref.one()
        want = ref.one()
        for k in range(6):
            got = x ** k
            assert got.coeffs == want and _canonical(got)
            assert ref.mul((x ** -k).coeffs, want) == ref.one()
            want = ref.mul(want, c)


@pytest.mark.parametrize("name", NAMES)
def test_sign_matches_the_fraction_reference(name):
    root = _root(name)
    ref = Reference(root)
    tuples = _coeff_tuples(root, random.Random("sign " + name))
    want = [ref.sign(c) for c in tuples]
    assert {1, 0, -1} <= set(want)
    for order in (tuples, tuples[::-1]):
        field = NumberField(root)
        got = {c: field.element(c).sign() for c in order}
        assert [got[c] for c in tuples] == want


def test_hand_intervals_cover_both_sign_paths():
    assert all(_root(name).lo < 0 for name in HAND if name != "sqrt(3/2)")
    assert any(_root(name).hi > 0 > _root(name).lo for name in HAND)
    assert _root("sqrt(3/2)").minpoly[-1] == 2 and _root("sqrt(3/2)").lo >= 0


# polynomials whose least root isolation puts at or below 0: -sqrt 2, the
# root of x^2 - x - 1 in [-1, 0] and the least root of x^3 - 3x + 1
NEGATIVE = [(-2, 0, 1), (-1, -1, 1), (1, -3, 0, 1)]


@pytest.mark.parametrize("asc", NEGATIVE, ids=str)
def test_signs_and_approximations_at_negative_roots_match_the_oracle(asc):
    root = AlgebraicNumber.real_roots_of(asc)[0]
    assert root.hi <= 0
    ref = Reference(root)
    tuples = _coeff_tuples(root, random.Random(f"negative {asc}"))
    want = [ref.sign(c) for c in tuples]
    assert {1, 0, -1} <= set(want)
    field = NumberField(root)
    assert field.signs([field.element(c).nums for c in tuples]) == want
    eps = Fraction(1, 10**12)
    for c in tuples[:8]:
        assert field.approx(field.element(c), eps) == reference_approx(root, c, eps)


@pytest.mark.parametrize("name", [n for n in HAND if n.startswith("across0")])
def test_approximations_across_0_lie_within_eps_of_the_oracle(name):
    """An interval that straddles 0 is refined before it bounds anything,
    so the midpoint may differ from the oracle's, never by eps or more."""
    root = _root(name)
    field = NumberField(root)
    eps = Fraction(1, 10**12)
    for c in _coeff_tuples(root, random.Random("across " + name))[:8]:
        assert abs(field.approx(field.element(c), eps) - reference_approx(root, c, eps)) < eps
