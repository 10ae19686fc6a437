"""Growth data of a primitive substitution: dominant eigenvalue, letter and
block frequencies, balance verdicts for the constant function.

All eigenvector arithmetic happens in the number field generated by the
dominant eigenvalue, so every reported frequency is exact.  Eigenvectors are
read off the integer characteristic polynomial, with no elimination over
that field, and checked (`positive_eigenvector`, then once more normalised)
as identities on integer numerators over one denominator.  The balance
verdict (`cr_check`) reads integer rows, the left eigenvector and, for alpha
only, the right one; `is_pisot` reads its table of factors against the unit
circle.  `pf_data`, `cr_check` and `is_pisot` take a `Substitution`, which
keeps PF data and verdict; 2-block measures come from letter frequencies.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InternalCheckError, Record, ValidationError
from .numberfield import AlgebraicNumber, FieldElement, NumberField, classify_roots_vs_unit_circle
from .substitution import Substitution, dominant_eigenvalue, incidence_matrix, is_primitive
from .words import windows, word_idx

IntMatrix = tuple[tuple[int, ...], ...]


class PFData(Record):
    """Dominant-eigenvalue package of a primitive substitution's incidence
    matrix.

    ``left`` is the left eigenvector normalized to coordinate sum 1.
    """

    matrix: IntMatrix
    lam: AlgebraicNumber
    field: NumberField
    left: tuple[FieldElement, ...]
    charpoly_factors: tuple[tuple[tuple[int, ...], int], ...]


def pf_data(sub: Substitution) -> PFData:
    """Exact dominant-eigenvalue data for a primitive substitution, kept on it."""
    return sub.cached("pf_data", lambda: _solve_pf(sub))


def positive_eigenvector(
    field: NumberField,
    m: IntMatrix,
    eigenvalue: FieldElement,
    transposed: bool,
    charpoly: Sequence[int],
) -> tuple[FieldElement, ...]:
    """The eigenvector of m (of its transpose when `transposed`, i.e. the
    left eigenvector) for an eigenvalue mu with a one-dimensional
    eigenspace, strictly positive and normalised to coordinate sum 1.

    With chi = det(x - m) (`charpoly`, ascending) and
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
    a, columns = (tuple(zip(*m)), m) if transposed else (m, tuple(zip(*m)))
    den, mu_rows = field.multiplication_rows(eigenvalue)
    # synthetic division: q_(n-1) = 1, q_(j-1) = chi_j + mu·q_j, remainder
    # chi_0 + mu·q_0; q_j is kept as the integer vector den^(n-1-j)·q_j
    q = [[0] * field.degree for _ in range(n)]
    carry = [1] + [0] * (field.degree - 1)
    for j in range(n - 1, -1, -1):
        q[j] = [x * den**j for x in carry]
        carry = _combine(carry, mu_rows)
        carry[0] += charpoly[j] * den ** (n - j)
    if any(carry):
        raise InternalCheckError("dominant eigenspace dimension != 1")
    for k in range(n):
        krylov = [[int(i == k) for i in range(n)]]
        while len(krylov) < n:
            krylov.append(_combine(krylov[-1], columns))
        column = [_combine(powers, q) for powers in zip(*krylov)]
        if any(map(any, column)):
            break
    else:
        raise InternalCheckError("dominant eigenspace dimension != 1")
    if not _is_eigenvector(a, column, den, mu_rows):
        raise InternalCheckError("eigenvector check failed")
    if set(field.signs(column)) not in ({1}, {-1}):
        raise InternalCheckError("dominant eigenvector not strictly positive")
    return tuple(field.quotients(column, field.element_over([sum(t) for t in zip(*column)], 1)))


def _combine(coeffs: Sequence[int], rows: Sequence[Sequence[int]]) -> list[int]:
    """The sum of c·row over the coefficients c and integer rows, zeros skipped."""
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            out = [x + c * y for x, y in zip(out, row)]
    return out


def _is_eigenvector(a: IntMatrix, column: Sequence[Sequence[int]], den: int, mu_rows) -> bool:
    """a·v = mu·v, for v's integer rows over one denominator and mu's `multiplication_rows`."""
    return all([den * x for x in _combine(row, column)] == _combine(cs, mu_rows)
               for row, cs in zip(a, column))


def _lambda_eigenvector(field: NumberField, m: IntMatrix, chi: Sequence[int],
                        transposed: bool) -> tuple[FieldElement, ...]:
    """`positive_eigenvector` for lambda, the field's generator, checked
    again on its normalised coordinates over their common denominator."""
    vec = positive_eigenvector(field, m, field.generator(), transposed, chi)
    den, lam_rows = field.multiplication_rows(field.generator())
    common = math.lcm(*(x.den for x in vec))
    nums = [[c * (common // x.den) for c in x.nums] for x in vec]
    if not _is_eigenvector(tuple(zip(*m)) if transposed else m, nums, den, lam_rows):
        raise InternalCheckError(f"{'left' if transposed else 'right'} eigenvector check failed")
    return vec


def _solve_pf(sub: Substitution) -> PFData:
    if not is_primitive(sub):
        raise ValidationError("substitution is not primitive")
    m = incidence_matrix(sub)
    chi, factors, best = dominant_eigenvalue(sub)
    if dict(factors)[best.minpoly] != 1:
        raise InternalCheckError("dominant eigenvalue is not simple")
    if best.compare_fraction(1) < 0:
        raise InternalCheckError("dominant eigenvalue below 1")
    field = NumberField(best)
    return PFData(
        matrix=m,
        lam=best,
        field=field,
        left=_lambda_eigenvector(field, m, chi, transposed=True),
        charpoly_factors=factors,
    )


class FactorReport(Record):
    poly: tuple[int, ...]
    multiplicity: int
    inside: int
    on: int
    outside: int
    component_vanishes: bool | None


class BalanceVerdict(Record):
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


def cr_check(sub: Substitution) -> BalanceVerdict:
    """Decide whether the constant function is balanced against the letter
    frequencies of a primitive substitution, which keeps its verdict as it
    keeps its PF data."""
    return sub.cached("cr_check", lambda: _verdict(sub))


def _verdict(sub: Substitution) -> BalanceVerdict:
    """The balance verdict of `cr_check`, read off PF data.

    Strategy: every characteristic factor is placed against the unit
    circle, once.  Equal column sums then give the exact verdict.  Otherwise
    the constant row vector splits into primary components along the
    characteristic factors; a component living on a factor with any root on
    or outside the unit circle must vanish identically, except the dominant
    factor, all of whose non-dominant roots must be strictly contracting.
    The component on q's primary part vanishes exactly when 1·g(M) = 0, g
    the product of the other primary factors: g(M) kills every other
    primary part and is invertible on q's.  The lambda-component of the
    constant row is ((1·r)/(l·r))·l for the left and right eigenvectors l
    and r, and 1·r = 1, so alpha = 1/(l·r); only this branch solves r.
    """
    data = pf_data(sub)
    m = data.matrix
    n = len(m)
    field = data.field
    exact = len({sum(m[i][j] for i in range(n)) for j in range(n)}) == 1
    reports: list[FactorReport] = []
    reasons: list[str] = []
    for asc, mult in data.charpoly_factors:
        inside, on, outside = classify_roots_vs_unit_circle(asc)
        fdeg = len(asc) - 1
        vanish = None
        if not exact and asc == data.lam.minpoly:
            if (inside, on, outside) != (fdeg - 1, 0, 1):
                reasons.append(
                    "a conjugate of the dominant eigenvalue is not contracting"
                )
        elif not exact and on + outside:
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
    if exact:
        uniform = field.rational(Fraction(1, n))
        if any(x != uniform for x in data.left):
            raise InternalCheckError("equal column sums but non-uniform frequencies")
        return BalanceVerdict(
            verdict="ExactCR",
            alpha=field.rational(n),
            factor_reports=tuple(reports),
            reasons=("all incidence column sums equal",),
        )
    if reasons:
        return BalanceVerdict(
            verdict="Inconclusive",
            alpha=None,
            factor_reports=tuple(reports),
            reasons=tuple(reasons),
        )

    right = _lambda_eigenvector(field, m, dominant_eigenvalue(sub)[0], transposed=False)
    alpha = sum((x * y for x, y in zip(data.left, right)), field.zero()).inverse()
    if alpha.sign() <= 0:
        raise InternalCheckError("dominant coefficient of the constant row "
                                 "is not positive")
    return BalanceVerdict(
        verdict="ProvedCR",
        alpha=alpha,
        factor_reports=tuple(reports),
        reasons=("all non-contracting components of the constant vector vanish",),
    )


def is_pisot(sub: Substitution) -> bool:
    """True when the dominant eigenvalue of a primitive substitution exceeds
    1 and every other eigenvalue of the full characteristic polynomial lies
    strictly inside the unit circle, read off `cr_check`'s factor table: the
    dominant factor has one root outside the circle, lambda itself, so
    lambda > 1."""
    dominant = pf_data(sub).lam.minpoly
    for r in cr_check(sub).factor_reports:
        deg = len(r.poly) - 1
        want = (deg - 1, 0, 1) if r.poly == dominant else (deg, 0, 0)
        if (r.inside, r.on, r.outside) != want:
            return False
    return True


def _two_block_measures(sub: Substitution) -> dict[tuple[int, ...], FieldElement]:
    """mu(ab) for every ab in L_2, from the letter frequencies mu(a).  The
    2-blocks of sigma(ab) starting inside sigma(a) lie inside it but one,
    B(ab) = (last of sigma(a), first of sigma(b)): lam·mu = v + P·mu, v(x) =
    sum of mu(a)·#{x inside sigma(a)}, P following B.  As lam > 1 >= rho(P),
    mu(x) adds v(y)·lam^-(k+1) over paths B^k(y) = x, a cycle of length L
    adding 1/(1 - lam^-L).  Checked: lam·mu = mu·M_2, mu > 0, mass 1."""
    data = pf_data(sub)
    field = data.field
    pairs = sub.two_blocks()
    if sub.size == 1:  # the one point 0^oo; lam = 1 for 0 -> 0
        return {pairs[0]: field.one()}
    acc = dict.fromkeys(pairs, field.zero())
    for freq, image in zip(data.left, sub.images):
        for x, c in Counter(windows(image.idx, 2)).items():
            acc[x] += freq * c
    boundary = {(a, b): (sub.images[a].idx[-1], sub.images[b].idx[0]) for a, b in pairs}
    lam_inv = field.generator_inverse()
    mu: dict[tuple[int, ...], FieldElement] = {}
    waiting = Counter(boundary.values())
    ready = [x for x in pairs if not waiting[x]]
    for y in ready:
        mu[y] = acc[y] * lam_inv
        acc[boundary[y]] += mu[y]
        waiting[boundary[y]] -= 1
        if not waiting[boundary[y]]:
            ready.append(boundary[y])
    for x in (x for x in pairs if x not in mu):
        cycle = [x]
        while boundary[cycle[-1]] != x:
            cycle.append(boundary[cycle[-1]])
        total = field.zero()
        for c in cycle[1:] + cycle[:1]:
            total = (total + acc[c]) * lam_inv
        mu[x] = total / (field.one() - lam_inv ** len(cycle))
        for prev, c in zip(cycle, cycle[1:]):
            mu[c] = (acc[c] + mu[prev]) * lam_inv
    image = dict.fromkeys(pairs, field.zero())
    for ab, (span, cut) in zip(pairs, sub.two_block_images(1)):
        for pos in range(cut):
            image[span[pos : pos + 2]] += mu[ab]
    if any(image[x] != mu[x] * field.generator() for x in pairs):
        raise InternalCheckError("2-block measures are not a left eigenvector")
    if set(field.signs([mu[x].nums for x in pairs])) != {1}:
        raise InternalCheckError("2-block measures not strictly positive")
    if sum(mu.values(), field.zero()) != field.one():
        raise InternalCheckError("2-block measures do not sum to 1")
    return {x: mu[x] for x in pairs}


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
    LNM 1294, ch. 5): the window x itself here, the return word numbered x
    followed by the base word in `flows.induce`."""
    field = pf_data(sub).field
    mu2 = sub.cached("two_block_measures", lambda: _two_block_measures(sub))
    scale = field.generator_inverse() ** k
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
    if len(idx) == 0 or sub.size == 1:  # one letter: the one point 0^oo, also for 0 -> 0
        return pf_data(sub).field.one()
    measure = _block_measures(sub, len(idx)).get(idx)
    if measure is None:
        raise ValidationError("word is not admissible")
    return measure
