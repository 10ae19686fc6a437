"""`cr_check` and `DirectLimitGroup.invariant_factors` against the
constructions they replaced: the primary decomposition of the constant row
by Bezout idempotents, and the Smith form of the transition induced on Z^d
modulo the eventual kernel."""

import random
from fractions import Fraction

import pytest
import sympy

from flowmcg.coinvariants import build_coinvariants
from flowmcg.errors import InternalCheckError
from flowmcg.intlat import invariant_factors, mat_from, mat_vec, smith_with_transform
from flowmcg.numberfield import classify_roots_vs_unit_circle, integer_charpoly
from flowmcg.pf import BalanceVerdict, FactorReport, cr_check, pf_data
from flowmcg.substitution import Substitution, is_aperiodic, is_primitive

from test_numberfield import reference_classify

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


def _random_primitive_aperiodic(count: int, seed: int) -> list[dict]:
    """Distinct seeded draws on 2 to 4 letters with images of length 1 to 5."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        letters = "0123"[: rng.randint(2, 4)]
        rules = {
            a: "".join(rng.choice(letters) for _ in range(rng.randint(1, 5)))
            for a in letters
        }
        sub = Substitution.from_rules(rules)
        if rules not in found and is_primitive(sub) and not is_aperiodic(sub).periodic:
            found.append(rules)
    return found


RANDOM = _random_primitive_aperiodic(100, 20261018)
CASES = [(f"{name}^{k}", rules, k) for name, rules in INPUTS.items() for k in (1, 2, 3)]
CASES += [(",".join(f"{a}>{w}" for a, w in r.items()), r, 1) for r in RANDOM]


def _sub(rules, k):
    return Substitution.from_rules(rules).power(k)


def _outcome(solve, *args):
    try:
        return solve(*args)
    except InternalCheckError as exc:
        return str(exc)


def _ones_row_powers(m, count):
    n = len(m)
    row = tuple(Fraction(1) for _ in range(n))
    out = [row]
    for _ in range(count - 1):
        row = tuple(sum(row[i] * m[i][j] for i in range(n)) for j in range(n))
        out.append(row)
    return out


def reference_cr_check(data) -> BalanceVerdict:
    """The primary-decomposition `cr_check` that was replaced.  Equal
    column sums take the factor table from sympy's root boxes."""
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
            factor_reports=tuple(
                FactorReport(asc, mult, *reference_classify(asc), None)
                for asc, mult in data.charpoly_factors
            ),
            reasons=("all incidence column sums equal",),
        )

    x = sympy.Symbol("x")
    charpoly = sympy.Poly(1, x, domain="QQ")
    primaries = []
    for asc, mult in data.charpoly_factors:
        q = sympy.Poly(list(reversed(asc)), x)
        primaries.append((tuple(asc), mult, q ** mult))
        charpoly = charpoly * q ** mult
    powers = _ones_row_powers(m, charpoly.degree())

    def row_of_poly(p):
        coeffs = [Fraction(c.p, c.q) for c in reversed(p.all_coeffs())]
        out = [Fraction(0)] * n
        for c, prow in zip(coeffs, powers):
            if c:
                out = [o + c * r for o, r in zip(out, prow)]
        return tuple(out)

    reports, reasons = [], []
    ok = True
    component_rows = {}
    total = [Fraction(0)] * n
    for asc, mult, q_full in primaries:
        g = charpoly.div(q_full)[0]
        h = sympy.Poly(sympy.invert(g.as_expr(), q_full.as_expr(), x), x, domain="QQ")
        row = row_of_poly((g * h).rem(charpoly))
        component_rows[asc] = row
        total = [t + r for t, r in zip(total, row)]
        inside, on, outside = classify_roots_vs_unit_circle(asc)
        fdeg = len(asc) - 1
        if asc == data.lam.minpoly:
            vanish = None
            if (inside, on, outside) != (fdeg - 1, 0, 1):
                ok = False
                reasons.append("a conjugate of the dominant eigenvalue is not contracting")
        elif on + outside == 0:
            vanish = None
        else:
            vanish = all(v == 0 for v in row)
            if not vanish:
                ok = False
                reasons.append(
                    "constant vector has a nonzero component on a non-contracting factor"
                )
        reports.append(FactorReport(asc, mult, inside, on, outside, vanish))
    if any(t != 1 for t in total):
        raise InternalCheckError("primary decomposition of the constant row failed")
    if not ok:
        return BalanceVerdict("Inconclusive", None, tuple(reports), tuple(reasons))

    pf_asc = data.lam.minpoly
    y_p = component_rows[pf_asc]
    d = len(pf_asc) - 1
    s_coeffs = [field.zero()] * d
    carry = field.rational(pf_asc[d])
    for k in range(d - 1, -1, -1):
        s_coeffs[k] = carry
        carry = field.rational(pf_asc[k]) + carry * field.generator()
    if not carry.is_zero():
        raise InternalCheckError("synthetic division by (t - lam) has remainder")
    yp_powers = [y_p]
    for _ in range(d - 1):
        prev = yp_powers[-1]
        yp_powers.append(tuple(sum(prev[i] * m[i][j] for i in range(n)) for j in range(n)))
    z = [field.zero() for _ in range(n)]
    for coef, prow in zip(s_coeffs, yp_powers):
        for j in range(n):
            z[j] = z[j] + prow[j] * coef
    s_at_lam = field.zero()
    for k in range(d - 1, -1, -1):
        s_at_lam = s_at_lam * field.generator() + s_coeffs[k]
    alpha = None
    for j in range(n):
        cand = z[j] / (s_at_lam * data.left[j])
        if alpha is None:
            alpha = cand
        elif alpha != cand:
            raise InternalCheckError("dominant component is not a multiple of the frequency vector")
    if alpha.sign() <= 0:
        raise InternalCheckError("dominant coefficient of the constant row is not positive")
    return BalanceVerdict(
        "ProvedCR",
        alpha,
        tuple(reports),
        ("all non-contracting components of the constant vector vanish",),
    )


def reference_invariant_factors(group) -> tuple[int, ...]:
    """Smith factors of the transition induced on Z^d modulo the eventual
    kernel, built in coordinates adapted to the kernel (the construction
    that was replaced)."""
    kb = group.eventual_kernel_basis
    if not kb:
        return tuple(invariant_factors(group.n_matrix))
    d, k = group.dimension, len(kb)
    e_cols = tuple(tuple(kb[j][i] for j in range(k)) for i in range(d))
    u, dmat, _v = smith_with_transform(e_cols)
    if any(dmat[i][i] != 1 for i in range(k)):
        raise InternalCheckError("eventual kernel basis is not saturated")
    inv = sympy.Matrix(u).inv()
    if not all(x.is_integer for x in inv):
        raise InternalCheckError("transform matrix is not unimodular")
    p = mat_from(inv.tolist())
    quotient = []
    for r in range(k, d):
        row = []
        for j in range(k, d):
            w = mat_vec(group.n_matrix, tuple(p[i][j] for i in range(d)))
            row.append(sum(u[r][i] * w[i] for i in range(d)))
        quotient.append(tuple(row))
    return tuple(invariant_factors(tuple(quotient)))


@pytest.mark.parametrize("name, rules, k", CASES, ids=[c[0] for c in CASES])
def test_cr_check_matches_the_primary_decomposition(name, rules, k):
    sub = _sub(rules, k)
    assert _outcome(cr_check, sub) == _outcome(reference_cr_check, pf_data(sub))


@pytest.mark.parametrize("name, rules, k", CASES, ids=[c[0] for c in CASES])
def test_invariant_factors_match_the_stabilized_quotient(name, rules, k):
    group = build_coinvariants(_sub(rules, k))
    factors = group.invariant_factors()
    assert factors == reference_invariant_factors(group)
    # chi_N = x^k·g(x): the cokernel on Z^d modulo the eventual kernel has
    # order |g(0)|, and one factor per free generator
    chi = integer_charpoly(group.n_matrix)
    g0 = next(c for c in chi if c)
    assert len(factors) == group.free_rank
    assert sympy.prod(factors) == abs(g0)


def test_corpus_reaches_every_branch():
    verdicts, kernels = set(), 0
    for _name, rules, k in CASES:
        sub = _sub(rules, k)
        verdict = cr_check(sub)
        verdicts.add((verdict.verdict, any(r.component_vanishes for r in verdict.factor_reports)))
        kernels += bool(build_coinvariants(sub).eventual_kernel_basis)
    assert verdicts == {
        ("ExactCR", False), ("ProvedCR", False), ("ProvedCR", True),
        ("Inconclusive", False), ("Inconclusive", True),
    }
    assert kernels >= 50


def test_a_vanishing_non_contracting_component_is_proved():
    # chi = (x^3 - 2x^2 - x - 1)(x + 1): the constant row has no component
    # on the eigenvalue -1
    sub = Substitution.from_rules({"0": "1303", "1": "3", "2": "0", "3": "102"})
    verdict = cr_check(sub)
    assert verdict.verdict == "ProvedCR"
    assert [(r.poly, r.component_vanishes) for r in verdict.factor_reports] == [
        ((-1, -1, -2, 1), None),
        ((1, 1), True),
    ]
    assert verdict == reference_cr_check(pf_data(sub))


def test_g_kills_a_jordan_block_only_with_its_multiplicity():
    # chi = (x - 3)(x - 1)x^2 and M has a 2x2 nilpotent block: 1·M leaves
    # a component on it that 1·M^2 kills
    sub = Substitution.from_rules({"0": "20", "1": "3110", "2": "1021", "3": "1"})
    verdict = cr_check(sub)
    assert verdict.verdict == "ProvedCR"
    assert [(r.poly, r.multiplicity, r.component_vanishes) for r in verdict.factor_reports] == [
        ((-3, 1), 1, None),
        ((-1, 1), 1, True),
        ((0, 1), 2, None),
    ]
    assert verdict == reference_cr_check(pf_data(sub))


def test_a_vanishing_component_beside_an_expanding_conjugate_is_inconclusive():
    sub = Substitution.from_rules({"0": "31103", "1": "01", "2": "13", "3": "00230"})
    verdict = cr_check(sub)
    assert verdict.verdict == "Inconclusive"
    assert verdict.reasons == ("a conjugate of the dominant eigenvalue is not contracting",)
    assert [r.component_vanishes for r in verdict.factor_reports] == [True, None]
    assert verdict == reference_cr_check(pf_data(sub))
