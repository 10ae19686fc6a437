"""Exact arithmetic in real algebraic number fields.

An algebraic number is an integer minimal polynomial (ascending coefficients,
primitive, irreducible, positive leading coefficient) plus an isolating
rational interval; its checks and comparisons read signs of the integer
q^n·f(p/q). Field elements of Q(lambda) are polynomials in lambda of degree
below that of lambda, as integer coefficients over one positive denominator
reduced mod the minimal polynomial in integers. A `NumberField` builds
elements, and they combine by the operators +, -, *, / and ** and by
`FieldElement.inverse`. Signs and approximations refine one integer bound
on lambda's interval; a sign is decided as a nonzero element has nonzero
value.
Characteristic polynomials come from one division-free Berkowitz core, which
also gives quotients (by Cayley–Hamilton) and minimal polynomials.
Factoring over Z and the isolation and counting of real roots come from
`intpoly`, so the module runs on the standard library alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

from .errors import InternalCheckError, Record, ValidationError
from .intpoly import count_real_roots, factor, positive_root_intervals, real_root_intervals


def _sign_at(asc: Sequence[int], t: Fraction | int) -> int:
    """The sign of f(t), read off the integer q^n·f(p/q) for t = p/q, q > 0."""
    p, q = t.as_integer_ratio()
    acc, qk = 0, 1
    for c in reversed(asc):
        acc, qk = acc * p + c * qk, qk * q
    return (acc > 0) - (acc < 0)


class AlgebraicNumber(Record):
    """A real algebraic number, exactly represented."""

    minpoly: tuple[int, ...]  # ascending, primitive, irreducible, lead > 0
    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if len(self.minpoly) < 2 or self.minpoly[-1] <= 0:
            raise ValidationError("minimal polynomial must be nonconstant, lead > 0")
        if self.degree >= 2:
            slo, shi = _sign_at(self.minpoly, self.lo), _sign_at(self.minpoly, self.hi)
            if slo == 0 or shi == 0 or slo == shi:
                raise ValidationError("interval does not isolate a root")

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1

    @property
    def is_rational(self) -> bool:
        return self.degree == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValidationError("not a rational number")
        return Fraction(-self.minpoly[0], self.minpoly[1])

    @classmethod
    def from_rational(cls, q: Fraction | int) -> "AlgebraicNumber":
        q = Fraction(q)
        return cls((-q.numerator, q.denominator), q, q)

    @classmethod
    def real_roots_of(cls, coeffs_asc: Sequence[int]) -> list["AlgebraicNumber"]:
        """All real roots of an integer polynomial, each exactly isolated,
        in increasing order.  A linear factor gives its rational root; the
        interval endpoints around each simple irrational root of another
        factor are rational with differing signs, which __post_init__
        checks."""
        roots = []
        for asc, _mult in factor_charpoly(coeffs_asc):
            if len(asc) == 2:
                roots.append(cls.from_rational(Fraction(-asc[0], asc[1])))
            else:
                roots += [cls(tuple(asc), lo, hi) for lo, hi in real_root_intervals(asc)]
        return sorted(roots)

    def refined(self, width: Fraction) -> "AlgebraicNumber":
        if self.is_rational:
            return self
        lo, hi = self.lo, self.hi
        slo = _sign_at(self.minpoly, lo)
        while hi - lo > width:
            mid = (lo + hi) / 2
            smid = _sign_at(self.minpoly, mid)
            if smid == 0:
                raise InternalCheckError("irreducible polynomial with rational root")
            if smid == slo:
                lo = mid
            else:
                hi = mid
        return AlgebraicNumber(self.minpoly, lo, hi)

    def __float__(self) -> float:
        if self.is_rational:
            return float(self.as_fraction())
        r = self.refined(Fraction(1, 10**17))
        return float((r.lo + r.hi) / 2)

    def compare_fraction(self, q: Fraction | int) -> int:
        """Sign of self - q, exact: q inside the interval lies below the one
        root there exactly when the minimal polynomial has its sign at lo."""
        q = Fraction(q)
        if self.is_rational:
            v = self.as_fraction()
            return (v > q) - (v < q)
        if (at_q := _sign_at(self.minpoly, q)) == 0:
            raise InternalCheckError("irreducible polynomial with rational root")
        return 1 if q <= self.lo or q < self.hi and at_q == _sign_at(self.minpoly, self.lo) else -1

    def __lt__(self, other: "AlgebraicNumber") -> bool:
        """Exact order.  An irrational number lies strictly inside its
        interval and a rational one is its own, so intervals that do not
        overlap (they may share an endpoint) order their numbers; copies of
        overlapping intervals are halved until they do not."""
        a, b = self, other
        while not a.equals(b):
            if a.hi <= b.lo or b.hi <= a.lo:
                return a.hi <= b.lo
            a, b = a.refined((a.hi - a.lo) / 2), b.refined((b.hi - b.lo) / 2)
        return False

    def equals(self, other: "AlgebraicNumber") -> bool:
        """Same minimal polynomial and the same root of it.  Each interval
        holds exactly one root, so the roots agree exactly when the
        intersection of the intervals holds a root, i.e. a sign change."""
        if self.minpoly != other.minpoly:
            return False
        if self.is_rational:
            return True
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo >= hi:
            return False
        return (_sign_at(self.minpoly, lo) > 0) != (_sign_at(self.minpoly, hi) > 0)


def algebraic_to_json(a: AlgebraicNumber) -> dict:
    """Exact serialization: ascending minimal polynomial, an isolating
    interval as fraction strings, and a float approximation for display."""
    narrow = a.refined(Fraction(1, 10**12))
    mid = (narrow.lo + narrow.hi) / 2
    return {
        "minpoly": list(a.minpoly),
        "interval": [str(narrow.lo), str(narrow.hi)],
        "approx": f"{float(mid):.12g}",
    }


class NumberField:
    """Q(lambda) for a fixed real algebraic lambda: the constructors of its
    elements, and the integer-row operations (multiplication matrices,
    quotients, signs, approximations) that their arithmetic runs on.

    Elements are integer coefficient tuples (ascending in powers of lambda)
    of length equal to the degree, over one positive denominator.
    """

    def __init__(self, root: AlgebraicNumber) -> None:
        self.root = root
        # the tightest interval of lambda that has decided a sign so far
        self._sign_root = root
        self.degree = root.degree
        # constants of the field, built once: elements are immutable
        self._zero, self._one = self.element_over([], 1), self.element_over([1], 1)
        self._generator = self.element([root.as_fraction()] if self.degree == 1 else [0, 1])
        self._generator_inverse: FieldElement | None = None

    def __eq__(self, other: object) -> bool:
        """Fields are equal when their generators are the same root of the
        same minimal polynomial."""
        if self is other:
            return True
        if not isinstance(other, NumberField):
            return NotImplemented
        return self.root.equals(other.root)

    def __hash__(self) -> int:
        return hash(self.root.minpoly)

    def _check(self, *elements: "FieldElement") -> None:
        if any(x.field != self for x in elements):
            raise ValidationError("operands lie in different number fields")

    # element constructors -------------------------------------------------

    def element(self, coeffs: Sequence[Fraction | int]) -> "FieldElement":
        cs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        return self.element_over([c.numerator * (den // c.denominator) for c in cs], den)

    def element_over(self, nums: Sequence[int], den: int) -> "FieldElement":
        """(sum of nums[k]·lambda^k) / den for integers nums, of any length,
        and den != 0.  Powers lambda^k with k >= degree are reduced by the
        minimal polynomial p, scaled by its leading coefficient when p is
        not monic."""
        p = self.root.minpoly
        d, lead = self.degree, p[-1]
        work = list(nums)
        for k in range(len(work) - 1, d - 1, -1):
            c = work.pop()
            if c:
                if lead != 1:
                    work = [x * lead for x in work]
                    den *= lead
                for i in range(d):
                    work[k - d + i] -= p[i] * c
        return _canonical(self, work + [0] * (d - len(work)), den)

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def rational(self, q: Fraction | int) -> "FieldElement":
        return self.element([Fraction(q)])

    def generator(self) -> "FieldElement":
        return self._generator

    def generator_inverse(self) -> "FieldElement":
        """1/lambda, solved by Cayley–Hamilton on first use and kept."""
        if self._generator_inverse is None:
            self._generator_inverse = self._generator.inverse()
        return self._generator_inverse

    def multiplication_rows(self, a: "FieldElement") -> tuple[int, list[list[int]]]:
        """(s, rows) with rows[t] the integer coefficients of s·a·lambda^t,
        s > 0 the least such multiplier: the integer matrix of
        multiplication by s·a, acting on coefficient rows from the right.
        Each row is the one before times lambda, its top power reduced by
        the minimal polynomial p, after scaling by p's lead if need be."""
        p, rows, s = self.root.minpoly, [list(a.nums)], a.den
        while len(rows) < self.degree:
            if rows[-1][-1] % p[-1]:
                rows, s = [[x * p[-1] for x in row] for row in rows], s * p[-1]
            c = rows[-1][-1] // p[-1]
            rows.append([-c * p[0]] + [x - c * y for x, y in zip(rows[-1], p[1:-1])])
        g = math.gcd(s, *(x for row in rows for x in row))
        return s // g, rows if g == 1 else [[x // g for x in row] for row in rows]

    def quotients(self, numerators: Sequence[Sequence[int]], a: "FieldElement") -> list:
        """n / a for integer coefficient rows n, by Cayley–Hamilton on b = s·a
        of `multiplication_rows`: chi(b) = 0 for chi = sum of e_j·x^j, so
        n/b = -n·(e_1 + e_2·b + ... + b^(d-1))/e_0, by Horner steps on
        integer rows; e_0 = ±det != 0 as b != 0."""
        if a.field is not self:
            self._check(a)
        if a.is_zero():
            raise ZeroDivisionError("field element is zero")
        s, rows = self.multiplication_rows(a)
        chi = _berkowitz(rows)
        if not chi[0]:
            raise InternalCheckError("element shares a factor with the minimal polynomial")
        def over(n: Sequence[int]) -> "FieldElement":
            acc = list(n)
            for e in reversed(chi[1:-1]):
                acc = [sum(x * row[j] for x, row in zip(acc, rows)) + e * c for j, c in enumerate(n)]
            return _canonical(self, [-s * x for x in acc], chi[0])
        return [over(n) for n in numerators]

    # sign and approximation ----------------------------------------------

    def _bounds(self, rows: Sequence[Sequence[int]], root: AlgebraicNumber) -> tuple[AlgebraicNumber, list, int]:
        """(root, bounds, den): lambda's interval `root`, refined in quarter
        steps while it straddles 0, and integers a <= b for each coefficient
        row c with a/den <= sum of c_k·t^k <= b/den on it.  On [p/q, r/s] at
        or above 0, t^k lies in [(p/q)^k, (r/s)^k], taken times (q·s)^(d-1);
        one at or below 0 is reflected by t -> -t, negating odd c_k."""
        while root.lo < 0 < root.hi:
            root = root.refined((root.hi - root.lo) / 4)
        lo, hi, top = root.lo, root.hi, self.degree - 1
        if hi <= 0:
            rows = [[-c if k & 1 else c for k, c in enumerate(nums)] for nums in rows]
            lo, hi = -hi, -lo
        (p, q), (r, s) = lo.as_integer_ratio(), hi.as_integer_ratio()
        los = [p**k * q ** (top - k) * s**top for k in range(top + 1)]
        his = [r**k * s ** (top - k) * q**top for k in range(top + 1)]
        bounds = [(sum(c * (x if c > 0 else y) for c, x, y in zip(nums, los, his)),
                   sum(c * (y if c > 0 else x) for c, x, y in zip(nums, los, his))) for nums in rows]
        return root, bounds, (q * s) ** top

    def signs(self, rows: Sequence[Sequence[int]]) -> list[int]:
        """Exact signs of the elements with integer coefficient rows `rows`,
        over any positive denominator, by refining lambda's interval from the
        tightest one an earlier call reached until `_bounds` decides each."""
        out = {i: (n[0] > 0) - (n[0] < 0) for i, n in enumerate(rows) if not any(n[1:])}
        root = self._sign_root
        while len(out) < len(rows):
            todo = [i for i in range(len(rows)) if i not in out]
            root, bounds, _den = self._bounds([rows[i] for i in todo], root)
            for i, (lo, hi) in zip(todo, bounds):
                if lo > 0 or hi < 0:
                    out[i] = 1 if lo > 0 else -1
            if len(out) < len(rows):
                root = root.refined((root.hi - root.lo) / 4)
        self._sign_root = root
        return [out[i] for i in range(len(rows))]

    def approx(self, a: "FieldElement", eps: Fraction) -> Fraction:
        """The midpoint of `_bounds` of a, once they lie closer than eps,
        refining lambda's first interval in quarter steps."""
        root = self.root
        while True:
            root, [(lo, hi)], den = self._bounds([a.nums], root)
            if Fraction(hi - lo, den * a.den) < eps:
                return Fraction(lo + hi, 2 * den * a.den)
            root = root.refined((root.hi - root.lo) / 4)


class FieldElement:
    """(sum of nums[k]·lambda^k) / den in a number field, with integer
    numerators and den > 0 sharing no common factor, so that equal elements
    have equal representations.  `coeffs` are the same coefficients as
    reduced Fractions.  Elements are built by the field's constructors and
    combine by the operators: sums, products and scalings by an int or a
    Fraction run on the integer numerators, and inverses by Cayley–Hamilton
    (`NumberField.quotients`)."""

    __slots__ = ("field", "nums", "den", "_coeffs")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        if self._coeffs is None:
            self._coeffs = tuple(Fraction(x, self.den) for x in self.nums)
        return self._coeffs

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        if other.field is not self.field:
            self.field._check(other)
        da, db = self.den, other.den
        return _canonical(self.field, [x * db + y * da for x, y in zip(self.nums, other.nums)], da * db)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        if other.field is not self.field:
            self.field._check(other)
        da, db = self.den, other.den
        return _canonical(self.field, [x * db - y * da for x, y in zip(self.nums, other.nums)], da * db)

    def __neg__(self) -> "FieldElement":
        return _canonical(self.field, [-x for x in self.nums], self.den)

    def __mul__(self, other: "FieldElement | Fraction | int") -> "FieldElement":
        field = self.field
        if not isinstance(other, FieldElement):
            q = other if isinstance(other, (int, Fraction)) else Fraction(other)
            return _canonical(field, [q.numerator * x for x in self.nums], q.denominator * self.den)
        if other.field is not field:
            field._check(other)
        prod = [0] * (2 * field.degree - 1)
        for i, x in enumerate(self.nums):
            if x:
                for j, y in enumerate(other.nums):
                    prod[i + j] += x * y
        return field.element_over(prod, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        return self.field.quotients([[1] + [0] * (self.field.degree - 1)], self)[0]

    def __truediv__(self, other: "FieldElement | Fraction | int") -> "FieldElement":
        if isinstance(other, FieldElement):
            return self * other.inverse()
        return self * (1 / Fraction(other))

    def __pow__(self, k: int) -> "FieldElement":
        """self^k by squaring; a negative k raises the inverse to -k."""
        base, k = (self.inverse(), -k) if k < 0 else (self, k)
        out = self.field.one()
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.field is not self.field:
            self.field._check(other)
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def sign(self) -> int:
        return self.field.signs([self.nums])[0]

    def __float__(self) -> float:
        return float(self.field.approx(self, Fraction(1, 10**17)))

    def __repr__(self) -> str:
        return f"FieldElement{self.coeffs}"


def _canonical(field: NumberField, nums: list[int], den: int) -> FieldElement:
    """The element nums / den, with the common factor removed and den > 0."""
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    el = object.__new__(FieldElement)
    el.field, el.den, el._coeffs = field, den // g, None
    el.nums = tuple(x // g for x in nums) if g != 1 else tuple(nums)
    return el


# ---------------------------------------------------------------------------
# root location relative to the unit circle, exactly


def classify_roots_vs_unit_circle(asc: Sequence[int]) -> tuple[int, int, int]:
    """(inside, on, outside) counts for the roots of an irreducible integer
    polynomial relative to the unit circle, exact and read off the
    coefficients.

    A self-reciprocal factor has its roots in pairs z, 1/z, so inside and
    outside are equal; its circle roots are twice the real roots in (-2, 2)
    of the polynomial r with z^(-d/2) p(z) = r(z + 1/z).  Any other
    irreducible factor of degree d >= 2 is coprime to its reversal: sharing
    a factor would make it anti-reciprocal, and then it would vanish at 1.
    So it has no circle root (a circle root z is also a root 1/z-bar of the
    reversal) and its Schur-Cohn form H is nonsingular (Krein-Naimark 1936).
    The roots inside are the positive eigenvalues of H: the sign changes of
    its characteristic polynomial, which Descartes' rule counts exactly
    because H is symmetric, so that polynomial is real-rooted.
    """
    a = [int(c) for c in asc]
    deg = len(a) - 1
    if deg == 1:
        num, den = abs(a[0]), abs(a[1])
        if num == den:
            return (0, 1, 0)
        return (1, 0, 0) if num < den else (0, 0, 1)
    if a == a[::-1]:
        # odd degree would give the root -1, so deg = 2m; x^k + x^-k is
        # p_k(x + 1/x) with p_0 = 2, p_1 = t, p_(k+1) = t p_k - p_(k-1)
        m = deg // 2
        p_prev, p_k, r = [2], [0, 1], [a[m]]
        for k in range(1, m + 1):
            r = [x + a[m + k] * y for x, y in zip_longest(r, p_k, fillvalue=0)]
            p_prev, p_k = p_k, [x - y for x, y in zip_longest([0] + p_k, p_prev, fillvalue=0)]
        # r is irreducible as p is, so square-free; +-2 would make +-1 a
        # root, so the open interval loses nothing
        on = 2 * count_real_roots(r, -2, 2)
        return ((deg - on) // 2, on, (deg - on) // 2)
    # H_jk = sum_(p=1)^min(j,k) (a_(d-j+p) a_(d-k+p) - a_(j-p) a_(k-p)),
    # 1 <= j, k <= d, built here from 0-based j, k
    h = [[sum(a[deg - j - 1 + p] * a[deg - k - 1 + p] - a[j + 1 - p] * a[k + 1 - p]
              for p in range(1, min(j, k) + 2)) for k in range(deg)] for j in range(deg)]
    signs = [c > 0 for c in _berkowitz(h) if c != 0]
    inside = sum(x != y for x, y in zip(signs, signs[1:]))
    return inside, 0, deg - inside


def _berkowitz(matrix: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """det(x·I - m) of a square integer matrix, ascending and monic, without
    division (Berkowitz, IPL 18, 1984).  With m_k the leading k x k block,
    r, c and a the rest of row k, column k and m[k][k], and chi_k = sum of
    p_j·x^(k-j): chi_(k+1) = (x - a)·chi_k - sum over i < k of
    x^(k-1-i)·sum over j <= i of p_j·(r·m_k^(i-j)·c).  Zero entries are skipped."""
    nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in matrix]
    chi = [1]
    for k in range(len(matrix)):
        w, q = list(matrix[k][:k]), []
        for i in range(k):
            q.append(sum(x * matrix[j][k] for j, x in enumerate(w) if x))
            if i < k - 1:
                nxt = [0] * k
                for j, x in enumerate(w):
                    if x:
                        for col, y in nonzero[j]:
                            if col >= k:
                                break
                            nxt[col] += x * y
                w = nxt
        a = matrix[k][k]
        nxt_chi = chi + [0]
        for i, p in enumerate(chi):
            nxt_chi[i + 1] -= a * p
        for i in range(k):
            nxt_chi[i + 2] -= sum(chi[j] * q[i - j] for j in range(i + 1))
        chi = nxt_chi
    return tuple(reversed(chi))


def integer_charpoly(matrix: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """det(x·I - m) of a square integer matrix, ascending and monic."""
    return _berkowitz(matrix)


def factor_charpoly(charpoly: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """Irreducible factors (ascending integer coefficients, primitive,
    positive leading) of an integer polynomial, with multiplicities, in
    sorted order."""
    return factor(charpoly)[1]


def dominant_root(matrix: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], tuple, AlgebraicNumber]:
    """The characteristic polynomial of a square nonnegative integer matrix
    with no zero row, its irreducible factors with multiplicities, and its
    largest real root: the spectral radius, at least 1 (Perron–Frobenius),
    so only positive roots are isolated."""
    chi = integer_charpoly(matrix)
    factors = tuple(factor_charpoly(chi))
    roots = [AlgebraicNumber.from_rational(Fraction(-a[0], a[1]))
             for a, _ in factors if len(a) == 2 and a[0] < 0]
    roots += [AlgebraicNumber(a, lo, hi)
              for a, _ in factors if len(a) > 2 for lo, hi in positive_root_intervals(a)]
    if not roots:
        raise InternalCheckError("primitive matrix with no real eigenvalue")
    return chi, factors, max(roots)


def minimal_polynomial_of_element(field: NumberField, a: FieldElement) -> tuple[int, ...]:
    """Integer minimal polynomial (ascending, primitive, positive leading) of
    a field element.  chi of `multiplication_rows` is a power of the minimal
    polynomial f of s·a (Q(lambda) is a vector space over Q(s·a)), so it has
    one irreducible factor, and a is a root of f(s·x), checked exactly."""
    s, rows = field.multiplication_rows(a)
    factors = factor_charpoly(_berkowitz(rows))
    if len(factors) != 1:
        raise InternalCheckError("element's characteristic polynomial has two irreducible factors")
    scaled = [c * s**k for k, c in enumerate(factors[0][0])]
    g = math.gcd(*scaled)
    f = tuple(c // g for c in scaled)
    value = field.zero()
    for c in reversed(f):
        value = value * a + field.rational(c)
    if not value.is_zero():
        raise InternalCheckError("element is not a root of its minimal polynomial")
    return f


def same_real_algebraic(a: "FieldElement", b: "FieldElement") -> bool:
    """Exact equality of two real algebraic numbers that may be presented
    in different fields: compare minimal polynomials, then isolate which
    root each one is."""
    if a.field is b.field:
        return a == b
    pa = minimal_polynomial_of_element(a.field, a)
    pb = minimal_polynomial_of_element(b.field, b)
    if pa != pb:
        return False
    roots = AlgebraicNumber.real_roots_of(pa)
    return _locate_root(a, roots) == _locate_root(b, roots)


def _locate_root(x: "FieldElement", roots: list[AlgebraicNumber]) -> int:
    """The index of the root x is, x a root of their minimal polynomial: the
    one with lo <= x <= hi, by exact signs.  An irrational x lies strictly
    inside exactly one isolating interval; a rational one is its own."""
    field = x.field
    for i, r in enumerate(roots):
        if (x - field.rational(r.lo)).sign() >= 0 >= (x - field.rational(r.hi)).sign():
            return i
    raise InternalCheckError("element lies in no isolating interval of its roots")
