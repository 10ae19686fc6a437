"""`flowmcg.intpoly` against sympy as the oracle: factoring over Z, the real
root intervals (which must be sympy's own, since halving them prints their
endpoints), root counts on an interval, primality and perfect powers."""

import itertools
import json
import math
import os
import random
import sys
from fractions import Fraction

import pytest
import sympy

import flowmcg
from flowmcg import intpoly, numberfield
from flowmcg.cli import run
from flowmcg.errors import InternalCheckError, ResourceLimitError, ValidationError
from flowmcg.flows import derived_substitution
from flowmcg.substitution import cycle_lengths, incidence_matrix

X = sympy.Symbol("x")


def _poly(asc):
    return sympy.Poly(list(reversed(asc)), X)


def _sympy_factors(asc):
    c, factors = sympy.factor_list(_poly(asc))
    return int(c), sorted(
        (tuple(int(v) for v in reversed(g.all_coeffs())), int(k)) for g, k in factors
    )


def _sympy_intervals(asc):
    return [(Fraction(int(lo.p), int(lo.q)), Fraction(int(hi.p), int(hi.q)))
            for (lo, hi), _k in _poly(asc).intervals()]


def _mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _random_product(rng, degree):
    """A product of random factors, some repeated, times a power of x and
    a constant with a sign, of degree at least `degree`."""
    f = [rng.choice([-6, -2, -1, 1, 1, 3, 10])]
    while len(f) - 1 < degree:
        d = rng.randint(1, 8)
        g = [rng.randint(-30, 30) for _ in range(d)] + [rng.choice([1, 1, 2, 3, -5])]
        if g[0] == 0:
            g[0] = 1
        for _ in range(rng.choice([1, 1, 1, 2, 3])):
            f = _mul(f, g)
    return [0] * rng.choice([0, 0, 1, 3]) + f


def test_factoring_matches_sympy_on_random_products():
    rng = random.Random(18)
    for degree in [rng.randint(1, 24) for _ in range(60)] + [50, 56, 60]:
        f = _random_product(rng, degree)
        assert intpoly.factor(f) == _sympy_factors(f), f


@pytest.mark.parametrize("asc", [
    [0], [7], [-4], [0, 0, 3], [-1] + [0] * 59 + [1], [1, 0, -10, 0, 1],
    [-1] + [0] * 19 + [-1] + [0] * 19 + [1], [6, 0, 0, -6], [-2] + [0] * 11 + [1],
], ids=lambda asc: str(len(asc) - 1))
def test_factoring_matches_sympy_on_special_polynomials(asc):
    """Constants, a power of x, x^60 - 1 (twelve cyclotomic factors), a
    Swinnerton-Dyer polynomial (two or more factors modulo every prime),
    f(x^20) for Fibonacci's f, content with a negative lead, x^12 - 2."""
    assert intpoly.factor(asc) == _sympy_factors(asc)


def _three_prime_factor(asc):
    """`intpoly.factor` as it was before the one-prime square-free step: the
    oracle that the one-prime factoring must agree with."""
    f = intpoly._trim([int(x) for x in asc])
    if len(f) < 2:
        return (f[0] if f else 0), []
    g = intpoly._primitive(f)
    zeros = next(i for i, x in enumerate(g) if x)
    out = [((0, 1), zeros)] if zeros else []
    for h, k in intpoly.square_free_factors(g[zeros:]):
        out += [(tuple(u), k) for u in _three_prime_square_free(h)]
    return f[-1] // g[-1], sorted(out)


def _three_prime_square_free(f):
    """Of the first three odd primes that keep the degree and
    square-freeness of f, the one with the fewest factors is taken; the
    factors are lifted past twice the Mignotte bound, one power of p at a
    time, and each least subset whose product divides the rest of f over Z
    is split off."""
    tries = []
    for p in filter(intpoly.is_prime, itertools.count(3, 2)):
        if f[-1] % p:
            fp = intpoly._prod([f], p, pow(f[-1], -1, p))
            if len(intpoly._monic_gcd(fp, intpoly._add([i * x for i, x in enumerate(fp)][1:], (), p), p)) == 1:
                tries.append((len(facs := _random_split(fp, p)), p, facs))
                if len(facs) == 1 or len(tries) == 3:
                    break
    _r, p, lifted = min(tries)
    bound = abs(f[-1]) * 2 ** (len(f) - 1) * (math.isqrt(sum(c * c for c in f)) + 1)
    inverses = [
        intpoly._powmod(intpoly._prod(lifted[:i] + lifted[i + 1:], p, f[-1]), p ** (len(u) - 1) - 2, u, p)
        for i, u in enumerate(lifted)
    ]
    mod = p
    while mod <= 2 * bound:
        e = [x // mod for x in intpoly._add(f, intpoly._prod(lifted, mod * p, f[-1]), mod * p, -1)]
        lifted = [intpoly._add(u, [mod * x for x in intpoly._divmod(intpoly._mul(a, e), u, p)[1]], mod * p)
                  for u, a in zip(lifted, inverses)]
        mod *= p
    out, size = [], 1
    while 2 * size <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), size):
            g = intpoly._prod((lifted[i] for i in subset), mod, f[-1])
            g = intpoly._primitive([x - mod if 2 * x > mod else x for x in g])
            q = intpoly._quotient(f, g) if g[0] and f[0] % g[0] == 0 else None
            if q is not None:
                out.append(g)
                f, lifted = q, [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return out + [f]


def _random_split(f, p):
    """The monic irreducible factors of a monic square-free f modulo p, by
    distinct-degree splitting and equal-degree splitting with random a."""
    rng, out, h, d = random.Random(p), [], [0, 1], 0
    while len(f) - 1 >= 2 * (d + 1):
        d, h = d + 1, intpoly._powmod(h, p, f, p)
        g = intpoly._monic_gcd(f, intpoly._add(h, [0, 1], p, -1), p)
        f, todo = intpoly._divmod(f, g, p)[0], [g] if len(g) > 1 else []
        h = intpoly._divmod(h, f, p)[1]
        while todo:
            u = todo.pop()
            if len(u) - 1 == d:
                out.append(u)
                continue
            a = [rng.randrange(p) for _ in range(len(u) - 1)]
            w = intpoly._monic_gcd(u, intpoly._add(intpoly._powmod(a, (p**d - 1) // 2, u, p), [1], p, -1), p)
            todo += [w, intpoly._divmod(u, w, p)[0]] if 1 < len(w) < len(u) else [u]
    return out + [f] if len(f) > 1 else out


def _corpus_charpolys():
    """The characteristic polynomials of every corpus sigma, sigma^2,
    sigma^3 and derived substitution on a letter section."""
    from test_asymptotics import CORPUS

    out = set()
    for rules in CORPUS.values():
        sub = flowmcg.Substitution.from_rules(rules)
        subs = [sub, sub.power(2), sub.power(3)] + [
            derived_substitution(sub, (a,)) for a in sorted(cycle_lengths(sub.first_letter_map()))
        ]
        out |= {numberfield.integer_charpoly(incidence_matrix(s)) for s in subs}
    return sorted(out)


def test_factoring_matches_the_three_prime_oracle_and_sympy_on_the_corpus():
    charpolys = _corpus_charpolys()
    assert len(charpolys) > 50
    for asc in charpolys:
        assert intpoly.factor(asc) == _three_prime_factor(asc) == _sympy_factors(asc), asc


def test_factoring_matches_the_three_prime_oracle_on_random_products():
    rng = random.Random(18)
    for degree in [rng.randint(1, 24) for _ in range(60)] + [50, 56, 60]:
        f = _random_product(rng, degree)
        assert intpoly.factor(f) == _three_prime_factor(f), f


def test_square_free_factors_multiply_back():
    rng = random.Random(3)
    for _ in range(40):
        f = _random_product(rng, rng.randint(2, 20))
        c, factors = intpoly.factor(f)
        g = [c]
        for h, k in factors:
            for _ in range(k):
                g = _mul(g, list(h))
        assert g == f
        primitive = _poly(f).primitive()[1]
        lead = 1 if primitive.LC() > 0 else -1
        asc = [lead * int(v) for v in reversed(primitive.all_coeffs())]
        decomposition = intpoly.square_free_factors(asc)
        assert [k for _g, k in decomposition] == sorted({k for _g, k in decomposition})
        assert all(_poly(g).is_sqf and _poly(g).degree() > 0 for g, _k in decomposition)
        back = [1]
        for g, k in decomposition:
            for _ in range(k):
                back = _mul(back, g)
        assert back == asc


def _irreducible(rng):
    while True:
        d = rng.randint(2, 9)
        bound = 10 ** rng.choice([1, 2, 3, 6, 30])
        p = _poly([rng.randint(-bound, bound) for _ in range(d)] + [rng.randint(1, bound)])
        if p.is_irreducible:
            return [int(v) for v in reversed(p.primitive()[1].all_coeffs())]


def test_intervals_are_sympys_on_random_irreducible_polynomials():
    rng = random.Random(2005)
    for _ in range(1000):
        asc = _irreducible(rng)
        assert intpoly.real_root_intervals(asc) == _sympy_intervals(asc), asc


def _worker():
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    saved = list(sys.path)
    sys.path.insert(0, perfbench)
    try:
        import corpus
        import worker
    finally:
        sys.path[:] = saved
    return corpus, worker


def test_intervals_are_sympys_on_every_factor_of_the_benchmark_corpora(monkeypatch):
    """Every polynomial that the `report` and `sections` jobs and the
    balance checks of the two inputs with circle factors factor, isolate
    roots of or count roots of is recorded; each irreducible factor of
    degree 2 or more gets sympy's intervals, and each count is sympy's."""
    corpus, worker = _worker()
    factored, isolated, counted = [], [], []

    def recording(store, func):
        def wrapper(asc, *args):
            store.append((tuple(asc), args))
            return func(asc, *args)
        return wrapper

    monkeypatch.setattr(numberfield, "factor", recording(factored, intpoly.factor))
    monkeypatch.setattr(numberfield, "real_root_intervals", recording(isolated, intpoly.real_root_intervals))
    monkeypatch.setattr(numberfield, "count_real_roots", recording(counted, intpoly.count_real_roots))
    with open(worker.EXPECTED, encoding="utf-8") as handle:
        pool = json.load(handle)["pool"]
    for workload in ("report", "sections"):
        jobs = corpus.jobs_for(workload, 1, pool)
        subs = worker.fresh_subs(flowmcg, jobs)
        for job in jobs:
            try:
                worker.call_job(flowmcg, job, subs)
            except (InternalCheckError, ResourceLimitError, ValidationError):
                pass
    for rules in ({"0": "01", "1": "21", "2": "00"},
                  {"0": "101234", "1": "201234", "2": "301234", "3": "401234", "4": "001234"}):
        flowmcg.cr_check(flowmcg.Substitution.from_rules(rules))
    factors = {g for asc, _ in factored for g, _k in intpoly.factor(asc)[1] if len(g) > 2}
    factors |= {asc for asc, _ in isolated}
    assert len(factors) >= 10 and counted
    for asc in sorted(factors):
        assert intpoly.real_root_intervals(asc) == _sympy_intervals(asc), asc
    for asc, (lo, hi) in set(counted):
        assert intpoly.count_real_roots(asc, lo, hi) == _poly(asc).count_roots(lo, hi), asc
    assert {_sympy_factors(asc) == intpoly.factor(asc) for asc, _ in set(factored)} == {True}


def _chebyshev(asc):
    """r with z^(-m)·p(z) = r(z + 1/z) for a palindromic p of degree 2m."""
    m = (len(asc) - 1) // 2
    t = sympy.Poly(X, X)
    p_prev, p_k, r = sympy.Poly(2, X), t, sympy.Poly(asc[m], X)
    for k in range(1, m + 1):
        r += asc[m + k] * p_k
        p_prev, p_k = p_k, t * p_k - p_prev
    return r


def test_circle_counts_match_count_roots_on_self_reciprocal_polynomials():
    rng = random.Random(7)
    checked = 0
    while checked < 150:
        half = [rng.randint(-6, 6) for _ in range(rng.randint(1, 7))] + [rng.randint(1, 6)]
        asc = half[::-1] + half[1:]
        if not _poly(asc).is_irreducible:
            continue
        r = _chebyshev(asc)
        on = 2 * int(r.count_roots(-2, 2))
        off = (len(asc) - 1 - on) // 2
        assert numberfield.classify_roots_vs_unit_circle(asc) == (off, on, off)
        r_asc = [int(v) for v in reversed(r.all_coeffs())]
        assert intpoly.count_real_roots(r_asc, -2, 2) == r.count_roots(-2, 2)
        checked += 1


def test_counts_on_open_intervals_with_rational_endpoints():
    """Roots at an endpoint are left out (sympy counts the closed interval)."""
    rng = random.Random(11)
    for _ in range(300):
        asc = [rng.randint(-9, 9) for _ in range(rng.randint(1, 7))] + [rng.randint(1, 9)]
        if not _poly(asc).is_sqf:
            continue
        lo = Fraction(rng.randint(-12, 12), rng.randint(1, 3))
        hi = lo + Fraction(rng.randint(1, 20), rng.randint(1, 3))
        closed = _poly(asc).count_roots(lo, hi)
        at_ends = sum(numberfield._sign_at(asc, q) == 0 for q in (lo, hi))
        assert intpoly.count_real_roots(asc, lo, hi) == closed - at_ends


def test_exact_log_bound_isolates_roots_with_wide_coefficients():
    """Coefficients of 60 to 200 bits, where a float log2 is off by one at
    2^k - 1: each interval isolates a root (a sign change, or a rational
    root), and there are as many as sympy counts."""
    rng = random.Random(200)
    for _ in range(60):
        d = rng.randint(2, 6)
        asc = [rng.choice([1, -1]) * (rng.getrandbits(rng.randint(60, 200)) | 1) for _ in range(d + 1)]
        asc[rng.randrange(d + 1)] = rng.choice([1, -1]) * (2 ** rng.randint(60, 200) - 1)
        asc[-1] = abs(asc[-1])
        p = _poly(asc)
        if not p.is_sqf:
            continue
        g = p.primitive()[1]
        asc = [int(v) for v in reversed(g.all_coeffs())]
        intervals = intpoly.real_root_intervals(asc)
        assert len(intervals) == g.count_roots()
        for lo, hi in intervals:
            slo, shi = (numberfield._sign_at(asc, q) for q in (lo, hi))
            assert (lo == hi and slo == 0) or (lo < hi and slo * shi < 0)


CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657,
              52633, 62745, 63973, 75361, 101101, 115921, 126217, 162401, 172081, 188461,
              252601, 278545, 294409, 314821, 334153, 340561, 399001, 410041, 449065,
              488881, 512461]


def test_is_prime_matches_sympy():
    assert [n for n in range(-10, 10**5) if intpoly.is_prime(n) != sympy.isprime(n)] == []
    # Chernick's (6k + 1)(12k + 1)(18k + 1) with three prime factors is a
    # Carmichael number; these are past 2^64
    chernick = [(6 * k + 1) * (12 * k + 1) * (18 * k + 1) for k in range(2**22, 2**22 + 20000)
                if all(sympy.isprime(m * k + 1) for m in (6, 12, 18))]
    assert len(chernick) >= 3 and min(chernick) > 2**64
    assert [n for n in CARMICHAEL + chernick if intpoly.is_prime(n)] == []
    rng = random.Random(64)
    for bits in (64, 128):
        for _ in range(500):
            n = rng.getrandbits(bits) | 1
            assert intpoly.is_prime(n) == sympy.isprime(n), n
        for _ in range(20):
            p = sympy.randprime(2 ** (bits - 1), 2**bits)
            assert intpoly.is_prime(p) and not intpoly.is_prime(p * sympy.nextprime(p))


# strong pseudoprimes to base 2 (OEIS A001262), the last two also to every
# prime base up to 23 and 37: only the Lucas half of the test rejects them
BASE_2_PSEUDOPRIMES = [2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633,
                       65281, 74665, 80581, 85489, 88357, 90751, 3825123056546413051,
                       318665857834031151167461]


def test_the_lucas_test_rejects_strong_base_2_pseudoprimes():
    for n in BASE_2_PSEUDOPRIMES:
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        assert pow(2, d, n) == 1 or n - 1 in [pow(2, d << r, n) for r in range(s)]
        assert not sympy.isprime(n) and not intpoly.is_prime(n)


def test_perfect_powers_match_sympy():
    wrong = [n for n in range(-1000, 10**5)
             if intpoly.is_perfect_power(n) != (sympy.perfect_power(n) is not False)]
    assert wrong == []
    rng = random.Random(5)
    for _ in range(200):
        base, e = rng.randint(2, 10**15), rng.randint(2, 12)
        for n in (base**e, base**e - 1, base**e + 1, -(base**e)):
            assert intpoly.is_perfect_power(n) == (sympy.perfect_power(n) is not False), n


def test_a_composite_period_is_refused(capsys):
    assert run(["odometer", "--period", "2,4"]) == 1
    assert capsys.readouterr().err == "error: 4 is not prime\n"
