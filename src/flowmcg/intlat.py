"""Exact integer and rational lattice linear algebra.

Matrices are tuples of row tuples. Kernels are saturated (computed through a
Smith decomposition with unimodular transforms, by local extended-gcd steps on
plain ints); the eventual kernel of N is one kernel, of N^m for m the
multiplicity of 0 in its characteristic polynomial. Lattices are row
Hermite forms over a common denominator, and one routine, `echelon_reduce`,
reduces an integer vector by echelon rows: it decides lattice membership
and picks the representative modulo a kernel. Elimination over Q is one
fraction-free Gauss–Jordan routine, `row_reduce`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import InternalCheckError, Record

IntMatrix = tuple[tuple[int, ...], ...]


def mat_from(rows: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: IntMatrix) -> IntMatrix:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: IntMatrix, v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def _xgcd(p: int, q: int) -> tuple[int, int, int]:
    """(g, s, t) with s·p + t·q = g = gcd(p, q) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while q:
        k, r = divmod(p, q)
        p, q, s0, s1, t0, t1 = q, r, s1, s0 - k * s1, t1, t0 - k * t1
    return (p, s0, t0) if p >= 0 else (-p, -s0, -t0)


def _clearing_step(p: int, q: int) -> tuple[int, int, int, int]:
    """A unimodular [[s, t], [y, z]] taking (p, q) to (g, 0), p != 0.  A plain
    subtraction when p divides q: an extended-gcd step there may return
    s = -1 and flip the pivot's sign, dirtying what it had cleared."""
    if q % p == 0:
        return 1, 0, -(q // p), 1
    g, s, t = _xgcd(p, q)
    return s, t, -(q // g), p // g


def smith_with_transform(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(U, D, V) with U·m·V = D diagonal, U and V unimodular, diagonal
    entries nonnegative with each dividing the next.

    Kannan–Bachem style: pivot on the smallest nonzero |entry| of the
    remaining block, clear its column, then its row, by 2x2 steps until both
    are clear; if the pivot fails to divide an entry, add that entry's row
    to the pivot row and repeat.  Each extended-gcd step shrinks the pivot,
    so this ends.  The identity and the shape of D are checked here.
    """
    rows, cols = len(m), len(m[0]) if m else 0
    a = [list(r) for r in m]
    u = [list(r) for r in identity(rows)]
    v = [list(r) for r in identity(cols)]
    for k in range(min(rows, cols)):
        while True:
            block = [(abs(x), i, j) for i in range(k, rows) for j, x in enumerate(a[i][k:], k) if x]
            if not block:
                break
            _, i, j = min(block)
            a[k], a[i], u[k], u[i] = a[i], a[k], u[i], u[k]
            for row in a + v:
                row[k], row[j] = row[j], row[k]
            while any(a[i][k] for i in range(k + 1, rows)) or any(a[k][k + 1 :]):
                for i in range(k + 1, rows):
                    if a[i][k]:
                        s, t, y, z = _clearing_step(a[k][k], a[i][k])
                        for w in (a, u):
                            r0, r1 = w[k], w[i]
                            w[k] = [s * x0 + t * x1 for x0, x1 in zip(r0, r1)]
                            w[i] = [y * x0 + z * x1 for x0, x1 in zip(r0, r1)]
                for j in range(k + 1, cols):
                    if a[k][j]:
                        s, t, y, z = _clearing_step(a[k][k], a[k][j])
                        for row in a + v:
                            x0, x1 = row[k], row[j]
                            row[k], row[j] = s * x0 + t * x1, y * x0 + z * x1
            p = a[k][k]
            bad = next((i for i in range(k + 1, rows) if any(x % p for x in a[i][k + 1 :])), None)
            if bad is None:
                break
            a[k] = [x + y for x, y in zip(a[k], a[bad])]
            u[k] = [x + y for x, y in zip(u[k], u[bad])]
        if not block:
            break
        if a[k][k] < 0:
            a[k], u[k] = [-x for x in a[k]], [-x for x in u[k]]
    u, d, v = mat_from(u), mat_from(a), mat_from(v)
    diag = [d[i][i] for i in range(min(rows, cols))]
    if (
        mat_mul(mat_mul(u, m), v) != d
        or any(x for i, r in enumerate(d) for j, x in enumerate(r) if i != j)
        or any(x < 0 for x in diag)
        or any(b % a if a else b for a, b in zip(diag, diag[1:]))
    ):
        raise InternalCheckError("Smith decomposition failed its check")
    return u, d, v


def row_reduce(rows: Sequence[Sequence[int | Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a rational matrix, with its pivot
    columns in order.

    Deterministic: the pivot of each column is the first nonzero entry at or
    below the current row.  Fraction-free: the rows are cleared of
    denominators, a row r is cleared against the pivot row p by
    p[c]·r − r[c]·p and divided by its content, and each row is divided by
    its pivot entry once, at the end.
    """
    a = []
    for row in rows:
        fracs = [Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in fracs))
        a.append([x.numerator * (den // x.denominator) for x in fracs])
    pivots: list[int] = []
    for col in range(len(a[0]) if a else 0):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        p = a[rank]
        for r in range(len(a)):
            if r != rank and a[r][col]:
                f, g = a[r][col], p[col]
                row = [g * x - f * y for x, y in zip(a[r], p)]
                c = gcd(*row)
                a[r] = [x // c for x in row] if c > 1 else row
        pivots.append(col)
    reduced = [[Fraction(x, row[c]) for x in row] for row, c in zip(a, pivots)]
    reduced += [[Fraction(0)] * len(row) for row in a[len(pivots) :]]
    return reduced, pivots


def invariant_factors(m: IntMatrix) -> list[int]:
    """The nonzero diagonal entries of the Smith form of m."""
    _u, d, _v = smith_with_transform(m)
    n = min(len(d), len(d[0]) if d else 0)
    return [d[i][i] for i in range(n) if d[i][i] != 0]


def right_kernel_basis(m: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the saturated lattice {v integer : m·v = 0}."""
    if not m:
        return []
    _u, d, v = smith_with_transform(m)
    cols = len(m[0])
    rank_limit = min(len(d), cols)
    zero_cols = [j for j in range(cols) if j >= rank_limit or d[j][j] == 0]
    basis = []
    for j in zero_cols:
        basis.append(tuple(v[i][j] for i in range(cols)))
    for b in basis:
        if any(x != 0 for x in mat_vec(m, b)):
            raise InternalCheckError("kernel basis vector not in kernel")
    return basis


def eventual_kernel(n_mat: IntMatrix, charpoly: Sequence[int]) -> list[tuple[int, ...]]:
    """Saturated basis of ker(N^m), m the multiplicity of 0 as a root of
    `charpoly`, det(x - N) in ascending coefficients: the kernels of the
    powers of N stop growing at m, the size of N's nilpotent part, so this
    is the eventual kernel; m = 0 gives none.

    It is the kernel of the reduced echelon rows of N^m, cleared of
    denominators: the same rational row space with small entries, zero
    rows kept so that N^m = 0 keeps its whole kernel.  A Smith form of N^d
    itself needs transforms of 1,658 bits on the 15x15 derived matrix of
    0->01, 1->12, 2->23, 3->30; this one, 3 bits."""
    m = next(k for k, c in enumerate(charpoly) if c)
    if m == 0:
        return []
    power = n_mat
    for _ in range(m - 1):
        power = mat_mul(power, n_mat)
    reduced, _pivots = row_reduce(power)
    rows = []
    for row in reduced:
        den = lcm(*(x.denominator for x in row))
        rows.append(tuple(int(x * den) for x in row))
    return right_kernel_basis(tuple(rows))


def echelon_reduce(rows: Sequence[Sequence[int]], vector: Sequence[int]) -> tuple[int, ...]:
    """The remainder of an integer vector modulo the lattice spanned by
    echelon rows with positive pivots: each pivot coordinate in turn is
    brought into [0, pivot).  It is 0 exactly when the vector lies in the
    lattice."""
    v = [int(x) for x in vector]
    for row in rows:
        p = next(k for k, x in enumerate(row) if x)
        q = v[p] // row[p]
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return tuple(v)


def hnf_rows(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """An echelon basis, pivots positive, of the row lattice spanned by the
    given integer rows.  Entries above each pivot are reduced into
    [0, pivot) from the last pivot row upward, so reducing by a higher pivot
    row can move an entry above a lower pivot out of that range again: for
    [[1, 2, 3], [0, 2, 5], [0, 0, 3]] the basis is [[1, 0, -2], [0, 2, 2],
    [0, 0, 3]].  The basis is therefore not the unique Hermite normal form,
    and two generating sets of one lattice may give different bases."""
    work = [list(r) for r in rows if any(x != 0 for x in r)]
    if not work:
        return ()
    cols = len(work[0])
    out: list[list[int]] = []
    col = 0
    while col < cols and work:
        live = [r for r in work if r[col] != 0]
        if not live:
            col += 1
            continue
        while True:
            live.sort(key=lambda r: abs(r[col]))
            piv = live[0]
            done = True
            for r in live[1:]:
                q = r[col] // piv[col]
                for k in range(cols):
                    r[k] -= q * piv[k]
                if r[col] != 0:
                    done = False
            live = [piv] + [r for r in live[1:] if r[col] != 0]
            if done or len(live) == 1:
                break
        if piv[col] < 0:
            for k in range(cols):
                piv[k] = -piv[k]
        out.append(piv)
        work = [r for r in work if r is not piv and any(x != 0 for x in r)]
        col += 1
    # reduce entries above pivots
    for i in range(len(out) - 1, -1, -1):
        pcol = next(k for k in range(cols) if out[i][k] != 0)
        for j in range(i):
            q = out[j][pcol] // out[i][pcol]
            if q:
                for k in range(cols):
                    out[j][k] -= q * out[i][k]
    return mat_from(out)


class Lattice(Record):
    """A finitely generated subgroup of Q^n: rows/den, the rows in the
    echelon basis of `hnf_rows`."""

    den: int
    rows: IntMatrix
    n: int

    @classmethod
    def from_fraction_rows(cls, rows: Sequence[Sequence[Fraction]], n: int) -> "Lattice":
        if not rows:
            return cls(1, (), n)
        den = 1
        for r in rows:
            for x in r:
                den = den * x.denominator // gcd(den, x.denominator)
        int_rows = [[int(x * den) for x in r] for r in rows]
        return cls(den, hnf_rows(int_rows), n)

    @property
    def rank(self) -> int:
        return len(self.rows)
