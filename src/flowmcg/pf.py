"""Growth data of a primitive substitution: dominant eigenvalue, letter and
block frequencies, balance verdicts for the constant function.

All eigenvector arithmetic happens in the number field generated by the
dominant eigenvalue, so every reported frequency is exact.  Eigenvectors are
read off the integer characteristic polynomial, with no elimination over
that field (`positive_eigenvector`).  The balance verdict (`cr_check`) is
read off integer rows and those eigenvectors, with no primary
decomposition.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InternalCheckError, ValidationError
from .numberfield import (
    AlgebraicNumber,
    FieldElement,
    NumberField,
    classify_roots_vs_unit_circle,
    dominant_root,
    integer_charpoly,
)
from .substitution import Substitution, dominant_eigenvalue, incidence_matrix, is_primitive
from .words import word_idx

IntMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PFData:
    """Dominant-eigenvalue package of a primitive nonnegative integer matrix.

    ``left`` and ``right`` are eigenvectors normalized to coordinate sum 1.
    """

    matrix: IntMatrix
    lam: AlgebraicNumber
    field: NumberField
    left: tuple[FieldElement, ...]
    right: tuple[FieldElement, ...]
    charpoly_factors: tuple[tuple[tuple[int, ...], int], ...]
    pf_factor: tuple[int, ...]
    labels: tuple[str, ...] | None = None


def _as_matrix(obj) -> tuple[IntMatrix, tuple[str, ...] | None]:
    if isinstance(obj, Substitution):
        labels = tuple(obj.alphabet)
        return incidence_matrix(obj), labels
    m = tuple(tuple(int(x) for x in row) for row in obj)
    if any(len(r) != len(m) for r in m):
        raise ValidationError("incidence matrix must be square")
    if any(x < 0 for row in m for x in row):
        raise ValidationError("incidence matrix must be nonnegative")
    return m, None


def pf_data(obj) -> PFData:
    """Exact dominant-eigenvalue data for a primitive substitution or matrix.
    A substitution keeps its data; a matrix is solved on every call."""
    if isinstance(obj, Substitution):
        return obj.cached("pf_data", lambda: _solve_pf(obj))
    return _solve_pf(obj)


def positive_eigenvector(
    field: NumberField,
    m: IntMatrix,
    eigenvalue: FieldElement,
    transposed: bool,
    charpoly: Sequence[int] | None = None,
) -> tuple[FieldElement, ...]:
    """The eigenvector of m (of its transpose when `transposed`, i.e. the
    left eigenvector) for an eigenvalue mu with a one-dimensional
    eigenspace, strictly positive and normalised to coordinate sum 1.

    With chi = det(x - m) (`charpoly` when the caller has it) and
    q(x) = chi(x) / (x - mu), (A - mu)·q(A) = chi(A) = 0, so every column
    of q(A) lies in the eigenspace.  If mu has algebraic multiplicity k,
    q = (x - mu)^(k-1)·r with r(mu) != 0, and q(A) = 0 exactly when every
    Jordan block of mu is shorter than k, i.e. when there are at least two.
    So a nonzero column of q(A) spans the eigenspace if and only if it is
    one-dimensional.  The q_j come from synthetic division in Q(lambda);
    column k of q(A) is the sum of q_j·A^j e_k, added up over the integer
    Krylov vectors A^j e_k with one common denominator.
    """
    n = len(m)
    a = tuple(zip(*m)) if transposed else m
    chi = integer_charpoly(m) if charpoly is None else charpoly
    den, times_mu = _multiplier(field, eigenvalue)
    # synthetic division: q_(n-1) = 1, q_(j-1) = chi_j + mu·q_j, remainder
    # chi_0 + mu·q_0; q_j is kept as the integer vector den^(n-1-j)·q_j
    q = [[0] * field.degree for _ in range(n)]
    carry = [1] + [0] * (field.degree - 1)
    for j in range(n - 1, -1, -1):
        q[j] = [x * den**j for x in carry]
        carry = times_mu(carry)
        carry[0] += chi[j] * den ** (n - j)
    if any(carry):
        raise InternalCheckError("dominant eigenspace dimension != 1")
    for k in range(n):
        column = [[0] * field.degree for _ in range(n)]
        krylov = [int(i == k) for i in range(n)]
        for qj in q:
            for i, x in enumerate(krylov):
                if x:
                    column[i] = [s + x * c for s, c in zip(column[i], qj)]
            krylov = [sum(r * x for r, x in zip(row, krylov)) for row in a]
        if any(any(cs) for cs in column):
            break
    else:
        raise InternalCheckError("dominant eigenspace dimension != 1")
    for row, cs in zip(a, column):
        image = [sum(r * vs[t] for r, vs in zip(row, column)) for t in range(field.degree)]
        if [den * x for x in image] != times_mu(cs):
            raise InternalCheckError("eigenvector check failed")
    if {field.element_over(cs, 1).sign() for cs in column} not in ({1}, {-1}):
        raise InternalCheckError("dominant eigenvector not strictly positive")
    total = field.element_over([sum(t) for t in zip(*column)], 1)
    scale_den, times_scale = _multiplier(field, field.inv(total))
    return tuple(field.element_over(times_scale(cs), scale_den) for cs in column)


def _multiplier(field: NumberField, c: FieldElement):
    """(den, f) with f(s) = den·c·s for s an integer coefficient vector of
    an element of the field: multiplication by c over the integers."""
    den, int_rows = field.multiplication_rows(c)

    def times(s: Sequence[int]) -> list[int]:
        return [sum(st * row[j] for st, row in zip(s, int_rows)) for j in range(field.degree)]

    return den, times


def _solve_pf(obj) -> PFData:
    m, labels = _as_matrix(obj)
    if not is_primitive(m):
        kind = "substitution" if isinstance(obj, Substitution) else "matrix"
        raise ValidationError(f"{kind} is not primitive")
    chi, factors, best = (
        dominant_eigenvalue(obj) if isinstance(obj, Substitution) else dominant_root(m)
    )
    if dict(factors)[best.minpoly] != 1:
        raise InternalCheckError("dominant eigenvalue is not simple")
    if best.compare_fraction(1) < 0:
        raise InternalCheckError("dominant eigenvalue below 1")
    field = NumberField(best)
    lam_el = field.generator()
    left = positive_eigenvector(field, m, lam_el, transposed=True, charpoly=chi)
    right = positive_eigenvector(field, m, lam_el, transposed=False, charpoly=chi)
    for side, vec, rows in (("left", left, tuple(zip(*m))), ("right", right, m)):
        for row, x in zip(rows, vec):
            if sum(map(field.scal, row, vec), field.zero()) != lam_el * x:
                raise InternalCheckError(f"{side} eigenvector check failed")
    return PFData(
        matrix=m,
        lam=best,
        field=field,
        left=left,
        right=right,
        charpoly_factors=factors,
        pf_factor=best.minpoly,
        labels=labels,
    )


def is_pisot(obj) -> bool:
    """True when the dominant eigenvalue exceeds 1 and every other
    eigenvalue of the full characteristic polynomial lies strictly inside
    the unit circle."""
    data = obj if isinstance(obj, PFData) else pf_data(obj)
    if data.lam.compare_fraction(1) <= 0:
        return False
    for asc, _mult in data.charpoly_factors:
        inside, on, outside = classify_roots_vs_unit_circle(asc)
        deg = len(asc) - 1
        if tuple(asc) == data.pf_factor:
            if (inside, on, outside) != (deg - 1, 0, 1):
                return False
        else:
            if (inside, on, outside) != (deg, 0, 0):
                return False
    return True


@dataclass(frozen=True)
class FactorReport:
    poly: tuple[int, ...]
    multiplicity: int
    inside: int
    on: int
    outside: int
    component_vanishes: bool | None


@dataclass(frozen=True)
class BalanceVerdict:
    """Whether the constant function 1 lies in the contracting cone of the
    transfer action, up to a positive multiple of the frequency vector.

    ``verdict`` is one of ``ExactCR`` (all column sums equal, so the letter
    frequencies are uniform), ``ProvedCR`` (the obstruction components of the
    constant vector vanish exactly), or ``Inconclusive``.
    """

    verdict: str
    alpha: FieldElement | None
    factor_reports: tuple[FactorReport, ...]
    reasons: tuple[str, ...]

    @property
    def is_balanced(self) -> bool:
        return self.verdict in ("ExactCR", "ProvedCR")


def _row_times_poly(row: Sequence[int], m: IntMatrix, asc: Sequence[int]) -> list[int]:
    """row·f(m) for f with ascending integer coefficients, by Horner steps."""
    out = [0] * len(row)
    for c in reversed(asc):
        out = [sum(o * mrow[j] for o, mrow in zip(out, m)) + c * r for j, r in enumerate(row)]
    return out


def cr_check(obj) -> BalanceVerdict:
    """Decide whether the constant function is balanced against the letter
    frequencies.

    Strategy: equal column sums give the exact verdict at once.  Otherwise
    the constant row vector splits into primary components along the
    characteristic factors; a component living on a factor with any root on
    or outside the unit circle must vanish identically, except the dominant
    factor, all of whose non-dominant roots must be strictly contracting.
    The component on q's primary part vanishes exactly when 1·g(M) = 0, g
    the product of the other primary factors: g(M) kills every other
    primary part and is invertible on q's.  The lambda-component of the
    constant row is ((1·r)/(l·r))·l for the left and right eigenvectors l
    and r, and 1·r = 1, so alpha = 1/(l·r).
    """
    data = obj if isinstance(obj, PFData) else pf_data(obj)
    m = data.matrix
    n = len(m)
    field = data.field
    col_sums = [sum(m[i][j] for i in range(n)) for j in range(n)]
    if len(set(col_sums)) == 1:
        uniform = field.rational(Fraction(1, n))
        if any(x != uniform for x in data.left):
            raise InternalCheckError("equal column sums but non-uniform frequencies")
        return BalanceVerdict(
            verdict="ExactCR",
            alpha=field.rational(n),
            factor_reports=(),
            reasons=("all incidence column sums equal",),
        )

    reports: list[FactorReport] = []
    reasons: list[str] = []
    for asc, mult in data.charpoly_factors:
        inside, on, outside = classify_roots_vs_unit_circle(asc)
        fdeg = len(asc) - 1
        vanish = None
        if asc == data.pf_factor:
            if (inside, on, outside) != (fdeg - 1, 0, 1):
                reasons.append(
                    "a conjugate of the dominant eigenvalue is not contracting"
                )
        elif on + outside:
            row = [1] * n
            for other, other_mult in data.charpoly_factors:
                if other != asc:
                    for _ in range(other_mult):
                        row = _row_times_poly(row, m, other)
            vanish = not any(row)
            if not vanish:
                reasons.append(
                    "constant vector has a nonzero component on a "
                    "non-contracting factor"
                )
        reports.append(FactorReport(asc, mult, inside, on, outside, vanish))
    if reasons:
        return BalanceVerdict(
            verdict="Inconclusive",
            alpha=None,
            factor_reports=tuple(reports),
            reasons=tuple(reasons),
        )

    alpha = field.inv(sum(map(field.mul, data.left, data.right), field.zero()))
    if alpha.sign() <= 0:
        raise InternalCheckError("dominant coefficient of the constant row "
                                 "is not positive")
    return BalanceVerdict(
        verdict="ProvedCR",
        alpha=alpha,
        factor_reports=tuple(reports),
        reasons=("all non-contracting components of the constant vector vanish",),
    )


def _two_block_measures(sub: Substitution) -> dict[tuple[int, ...], FieldElement]:
    """mu(ab) for every ab in L_2: the positive left eigenvector, of total
    mass 1, of the substitution acting on 2-blocks (ab -> the 2-blocks of
    sigma(ab) that start inside sigma(a))."""
    data = pf_data(sub)
    pairs = sub.two_blocks()
    index = {ab: i for i, ab in enumerate(pairs)}
    counts = [[0] * len(pairs) for _ in pairs]
    for i, (image, cut) in enumerate(sub.two_block_images(1)):
        for pos in range(cut):
            counts[i][index[image[pos : pos + 2]]] += 1
    vec = positive_eigenvector(data.field, counts, data.field.generator(), transposed=True)
    return dict(zip(pairs, vec))


def block_frequencies(sub: Substitution, n: int):
    """Exact frequency of every admissible length-n block, as elements of
    the field of the dominant eigenvalue."""
    if n < 0:
        raise ValidationError("block length must be nonnegative")
    if n == 0:
        return {(): pf_data(sub).field.one()}
    return dict(_block_measures(sub, n))


def _block_measures(sub: Substitution, n: int) -> dict[tuple[int, ...], FieldElement]:
    """mu(w) for every w in L_n, memoised on the substitution."""
    return sub.cached(("block_measures", n), lambda: _measure_windows(sub, n))


def _measure_windows(sub: Substitution, n: int) -> dict[tuple[int, ...], FieldElement]:
    """mu(w) for every w in L_n, in one walk over the windows of sigma^k(ab),
    with min |sigma^k| >= n - 1."""
    k = sub.growth_power(n - 1)
    windows = {
        ab: Counter(image[i : i + n] for i in range(cut))
        for ab, (image, cut) in zip(sub.two_blocks(), sub.two_block_images(k))
    }
    return occurrence_measures(sub, k, windows)


def occurrence_measures(
    sub: Substitution,
    k: int,
    counts: Mapping[tuple[int, ...], Mapping[tuple[int, ...], int]],
) -> dict[tuple[int, ...], FieldElement]:
    """lam^-k times the sum over ab in L_2 of mu(ab)·counts[ab][x], for
    every key x, added up as integer coefficients over one common
    denominator.  When counts[ab][x] is the number of occurrences of a word
    that start inside sigma^k(a) in sigma^k(ab), each lying whole inside
    sigma^k(ab), this is the measure of that word's cylinder (Queffelec,
    LNM 1294, ch. 5): the window x itself here, the return word x followed
    by the base word in `flows.induce`."""
    field = pf_data(sub).field
    mu2 = sub.cached("two_block_measures", lambda: _two_block_measures(sub))
    scale = field.power(field.generator(), -k)
    scaled = {ab: mu * scale for ab, mu in mu2.items()}
    den = math.lcm(*(x.den for x in scaled.values()))
    sums: dict[tuple[int, ...], list[int]] = {}
    for ab, hits_of in counts.items():
        nums = [c * (den // scaled[ab].den) for c in scaled[ab].nums]
        for x, hits in hits_of.items():
            acc = sums.setdefault(x, [0] * field.degree)
            for j, c in enumerate(nums):
                acc[j] += hits * c
    return {x: field.element_over(sums[x], den) for x in sorted(sums)}


def cylinder_measure(sub: Substitution, word) -> FieldElement:
    """Exact measure of the cylinder of a word in the unique shift-invariant
    probability measure."""
    idx = word_idx(sub.alphabet, word)
    if len(idx) == 0:
        return pf_data(sub).field.one()
    measure = _block_measures(sub, len(idx)).get(idx)
    if measure is None:
        raise ValidationError("word is not admissible")
    return measure
