"""Oracle tests for the exact linear-algebra layer: Smith form (against
sympy's), the shared Gauss-Jordan elimination over Q, the primitivity test,
and the Perron-Frobenius eigenvectors that replaced elimination over
Q(lambda)."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
import sympy
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import smith_normal_form

from flowmcg import coinvariants, intlat, numberfield
from flowmcg.coinvariants import build_coinvariants, coinvariants_report
from flowmcg.errors import ValidationError
from flowmcg.intlat import (
    eventual_kernel,
    invariant_factors,
    mat_mul,
    right_kernel_basis,
    row_reduce,
    smith_with_transform,
)
from flowmcg.numberfield import integer_charpoly
from flowmcg.pf import pf_data, positive_eigenvector
from flowmcg.substitution import Substitution, incidence_matrix, is_primitive

from test_one_core import RULES


def _det(m):
    """Laplace expansion along the first row; the inputs are at most 5x5."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def _determinantal_divisors(m):
    """d_k = gcd of the k x k minors, for k = 1 .. min(rows, cols)."""
    rows, cols = len(m), len(m[0])
    out = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                g = gcd(g, _det([[m[r][c] for c in cs] for r in rs]))
        out.append(g)
    return out


def _random_matrices(count, seed):
    """Integer matrices up to 4x5 with entries in [-6, 6]; about a third get
    a zero row, and about a third a row repeated with a multiple (singular)."""
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        kind = rng.randrange(3)
        if kind == 1:
            m[rng.randrange(rows)] = [0] * cols
        elif kind == 2 and rows > 1:
            i, j = rng.sample(range(rows), 2)
            m[i] = [rng.randint(-3, 3) * x for x in m[j]]
        yield tuple(tuple(r) for r in m)


def test_invariant_factors_are_quotients_of_determinantal_divisors():
    for m in _random_matrices(300, seed=3):
        # d_k vanishes exactly for k above the rank
        divisors = [d for d in _determinantal_divisors(m) if d]
        expected = [b // a for a, b in zip([1] + divisors, divisors)]
        assert invariant_factors(m) == expected, m


def test_smith_transforms_are_unimodular():
    for m in _random_matrices(300, seed=4):
        u, d, v = smith_with_transform(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert abs(_det([list(r) for r in u])) == 1
        assert abs(_det([list(r) for r in v])) == 1


def _domain(m):
    return DomainMatrix([[ZZ(x) for x in row] for row in m], (len(m), len(m[0])), ZZ)


def test_smith_form_matches_sympy_on_random_matrices():
    """Up to 8x8, entries in [-9, 9] with about 30% zeros, every fifth
    matrix of rank at most 2: D is sympy's, U and V are unimodular."""
    rng = random.Random(20261018)
    for count in range(2000):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        if count % 5:
            m = [[rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(cols)]
                 for _ in range(rows)]
        else:
            basis = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(2)]
            m = [[rng.randint(-3, 3) * x + rng.randint(-3, 3) * y for x, y in zip(*basis)]
                 for _ in range(rows)]
        m = tuple(tuple(r) for r in m)
        u, d, v = smith_with_transform(m)
        assert d == tuple(tuple(int(x) for x in r) for r in smith_normal_form(_domain(m)).to_list())
        assert mat_mul(mat_mul(u, m), v) == d
        assert abs(_domain(u).det()) == 1 and abs(_domain(v).det()) == 1


def test_smith_transforms_of_sigma4_coinvariants_stay_small(monkeypatch):
    """A Euclidean pivot loop grew these past 100,000 bits; sympy's
    transforms reach 763 bits."""
    widest = []

    def recorded(m):
        out = smith(m)
        widest.append(max(abs(x).bit_length() for t in (out[0], out[2]) for r in t for x in r))
        return out

    smith = intlat.smith_with_transform
    monkeypatch.setattr(intlat, "smith_with_transform", recorded)
    coinvariants_report(Substitution.from_rules({"0": "01", "1": "12", "2": "23", "3": "30"}))
    assert widest and max(widest) <= 64


def test_smith_form_of_zero_and_empty_matrices():
    assert smith_with_transform(((0, 0, 0), (0, 0, 0)))[1] == ((0, 0, 0), (0, 0, 0))
    assert invariant_factors(((0, 0), (0, 0))) == []
    assert smith_with_transform(()) == ((), (), ())


def test_products_match_sympy_on_sparse_and_dense_matrices():
    rng = random.Random(8)
    for _ in range(300):
        rows, inner, cols = (rng.randint(1, 6) for _ in range(3))
        density = rng.choice((0.0, 0.2, 0.6, 1.0))
        a, b = (
            tuple(
                tuple(rng.randint(-10**6, 10**6) if rng.random() < density else 0 for _ in range(w))
                for _ in range(h)
            )
            for h, w in ((rows, inner), (inner, cols))
        )
        assert mat_mul(a, b) == tuple(map(tuple, (sympy.Matrix(a) * sympy.Matrix(b)).tolist()))
    assert mat_mul((), ((1, 2),)) == () and mat_mul(((),), ()) == ((),)


def test_rank_agrees_with_sympy():
    for m in _random_matrices(300, seed=6):
        rows = [
            [Fraction(x, 1 + (i + j) % 3) for j, x in enumerate(r)]
            for i, r in enumerate(m)
        ]
        reduced, pivots = row_reduce(rows)
        assert len(pivots) == sympy.Matrix(rows).rank()
        # reduced form: each pivot column is a unit vector
        for r, c in enumerate(pivots):
            assert [row[c] for row in reduced] == [int(i == r) for i in range(len(rows))]


@pytest.mark.parametrize("name", ["fib", "tribonacci"])
def test_positive_eigenvector_lies_in_the_kernel(request, name):
    sub = request.getfixturevalue(name)
    data = pf_data(sub)
    field, lam = data.field, data.field.generator()
    m = incidence_matrix(sub)
    for transposed, shifted in ((False, m), (True, tuple(zip(*m)))):
        rows = [
            [field.rational(x) - (lam if i == j else field.zero()) for j, x in enumerate(r)]
            for i, r in enumerate(shifted)
        ]
        vec = positive_eigenvector(field, m, lam, transposed, integer_charpoly(m))
        assert sum(vec, field.zero()) == field.one()
        for row in rows:
            acc = field.zero()
            for x, y in zip(row, vec):
                acc = acc + x * y
            assert acc.is_zero()


def _squared_eventual_kernel(n_mat):
    """The earlier eventual kernel, kept as an oracle: ker N^m for m the least
    power of 2 at or above the size of N, by squaring."""
    power = n_mat
    for _ in range((len(n_mat) - 1).bit_length()):
        power = mat_mul(power, power)
    reduced, _pivots = row_reduce(power)
    rows = [tuple(int(x * lcm(*(y.denominator for y in row))) for x in row) for row in reduced]
    return right_kernel_basis(tuple(rows))


def _random_square_matrices(count, seed):
    """Square integer matrices up to 6x6: a third with entries in [-2, 2], a
    third strictly upper triangular (nilpotent) under a shuffle of the
    coordinates, and a third block diagonal with such a nilpotent block."""
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(1, 6)
        kind = rng.randrange(3)
        if kind == 0:
            yield tuple(tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d))
            continue
        k = d if kind == 1 else rng.randint(1, d)
        m = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(d):
                if (i < j < k) or (i >= k and j >= k):
                    m[i][j] = rng.randint(-2, 2)
        order = rng.sample(range(d), d)
        yield tuple(tuple(m[order[i]][order[j]] for j in range(d)) for i in range(d))


def test_the_eventual_kernel_is_the_squared_power_kernel_on_random_matrices():
    matrices = list(_random_square_matrices(600, 19))
    matrices += [((0,) * d,) * d for d in range(1, 6)]
    matrices += [tuple(tuple(int(j == i + 1) for j in range(d)) for i in range(d)) for d in range(1, 6)]
    nilpotent = 0
    for m in matrices:
        chi = integer_charpoly(m)
        assert eventual_kernel(m, chi) == _squared_eventual_kernel(m), m
        nilpotent += not any(chi[:-1])
    assert nilpotent > 200


@pytest.mark.parametrize("rules", RULES, ids=[",".join(f"{a}>{w}" for a, w in sorted(r.items())) for r in RULES])
def test_the_eventual_kernel_is_the_squared_power_kernel_on_the_corpus(rules):
    group = build_coinvariants(Substitution.from_rules(rules))
    assert group.eventual_kernel_basis == tuple(_squared_eventual_kernel(group.n_matrix))


def test_build_coinvariants_computes_the_characteristic_polynomial_of_n_once(monkeypatch):
    """The one polynomial is that of zeta's incidence matrix M, of which the
    transition matrix N is a power."""
    sub = Substitution.from_rules({"0": "01", "1": "12", "2": "23", "3": "30"})
    pf_data(sub)
    seen = []

    def counted(m):
        seen.append(m)
        return integer_charpoly(m)

    for module in (coinvariants, numberfield):
        monkeypatch.setattr(module, "integer_charpoly", counted)
    group = build_coinvariants(sub)
    assert seen == [incidence_matrix(group.derived.zeta)]


def _positive_power_exists(m):
    """Integer powers up to the Wielandt bound, as a reference."""
    n = len(m)
    cur = m
    for _ in range(n * n - 2 * n + 2):
        if all(x > 0 for row in cur for x in row):
            return True
        cur = mat_mul(cur, m)
    return all(x > 0 for row in cur for x in row)


def test_primitivity_of_matrices_matches_integer_powers():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 4)
        m = tuple(tuple(rng.choice((0, 0, 1, 2)) for _ in range(n)) for _ in range(n))
        assert is_primitive(m) == _positive_power_exists(m), m
    # Wielandt's matrix, a cycle with one chord: its least positive power is
    # exactly the bound (n-1)^2 + 1; without the chord it is a permutation
    for n in range(2, 6):
        cycle = [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
        assert not is_primitive(cycle)
        cycle[n - 1][1] = 1
        assert is_primitive(cycle)


def test_non_primitive_inputs_name_their_kind():
    with pytest.raises(ValidationError, match="substitution is not primitive"):
        pf_data(Substitution.from_rules({"0": "01", "1": "11"}))
    assert is_primitive(Substitution.from_rules({"0": "00"}))
