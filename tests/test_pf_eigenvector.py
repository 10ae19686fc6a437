"""`positive_eigenvector` against the Gauss-Jordan kernel over Q(lambda) it
replaced, on every matrix its three callers hand it over the corpus, plus
hand cases for the column scan and each refusal."""

import pytest

from flowmcg import coinvariants, intlat, numberfield, pf
from flowmcg.coinvariants import derived_proper
from flowmcg.errors import InternalCheckError
from flowmcg.numberfield import AlgebraicNumber, NumberField, integer_charpoly
from flowmcg.pf import pf_data, positive_eigenvector
from flowmcg.substitution import Substitution, incidence_matrix

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


def _reference_kernel(field, rows):
    """Right kernel over Q(lambda) by Gauss-Jordan elimination, free
    variables set to 1 one at a time (the elimination that was removed)."""
    a = [list(r) for r in rows]
    n = len(a)
    pivots = []
    for col in range(n):
        rank = len(pivots)
        piv = next((r for r in range(rank, n) if not a[r][col].is_zero()), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = a[rank][col].inverse()
        a[rank] = [x * inv for x in a[rank]]
        for r in range(n):
            if r != rank and not a[r][col].is_zero():
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        pivots.append(col)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [field.zero()] * n
        vec[fc] = field.one()
        for r, c in enumerate(pivots):
            vec[c] = -a[r][fc]
        basis.append(vec)
    return basis


def _reference_eigenvector(field, m, mu, transposed):
    """The old `positive_eigenvector`, normalised to coordinate sum 1."""
    n = len(m)
    rows = [
        [field.rational(m[j][i] if transposed else m[i][j]) - (mu if i == j else field.zero())
         for j in range(n)]
        for i in range(n)
    ]
    kernel = _reference_kernel(field, rows)
    if len(kernel) != 1:
        raise InternalCheckError("dominant eigenspace dimension != 1")
    signs = {x.sign() for x in kernel[0]}
    if signs not in ({1}, {-1}):
        raise InternalCheckError("dominant eigenvector not strictly positive")
    total = sum(kernel[0], field.zero())
    return tuple(x / total for x in kernel[0])


def _outcome(solve, *args):
    try:
        return solve(*args)
    except InternalCheckError as exc:
        return str(exc)


def _two_block_matrix(sub):
    pairs = sub.two_blocks()
    index = {ab: i for i, ab in enumerate(pairs)}
    counts = [[0] * len(pairs) for _ in pairs]
    for i, (image, cut) in enumerate(sub.two_block_images(1)):
        for pos in range(cut):
            counts[i][index[image[pos : pos + 2]]] += 1
    return counts


def _cases(rules):
    """(field, matrix, eigenvalue) for sigma, sigma^2, sigma^3, the 2-block
    matrix and the derived matrix and its transpose."""
    sub = Substitution.from_rules(rules)
    field = pf_data(sub).field
    lam = field.generator()
    m = incidence_matrix(sub)
    power = m
    for k in (1, 2, 3):
        yield field, power, lam ** k
        power = intlat.mat_mul(power, m)
    yield field, _two_block_matrix(sub), lam
    derived = derived_proper(sub)
    eta = incidence_matrix(derived.zeta.power(derived.power))
    lam_d = lam ** derived.kappa
    yield field, eta, lam_d
    yield field, intlat.transpose(eta), lam_d


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_eigenvectors_match_the_elimination_reference(name):
    for field, m, mu in _cases(INPUTS[name]):
        for transposed in (True, False):
            expected = _outcome(_reference_eigenvector, field, m, mu, transposed)
            got = _outcome(positive_eigenvector, field, m, mu, transposed, integer_charpoly(m))
            assert got == expected


def _rational_field():
    return NumberField(AlgebraicNumber.from_rational(2))


def test_a_zero_first_column_of_q_is_skipped():
    # chi = (x - 1)(x - 2), q(A) = A - 1 = [[0, 1], [0, 1]]
    field = _rational_field()
    vec = positive_eigenvector(field, ((1, 1), (0, 2)), field.rational(2), False, (2, -3, 1))
    assert vec == (field.rational(1) / 2, field.rational(1) / 2)
    assert vec == _reference_eigenvector(field, ((1, 1), (0, 2)), field.rational(2), False)


@pytest.mark.parametrize(
    "m, mu, message",
    [
        (((2, 0), (0, 2)), 2, "dominant eigenspace dimension != 1"),
        (((1, 1), (1, 1)), 3, "dominant eigenspace dimension != 1"),
        (((2, 1), (0, 2)), 2, "dominant eigenvector not strictly positive"),
    ],
    ids=["two-dimensional", "not-an-eigenvalue", "jordan-block"],
)
def test_refusals_match_the_reference(m, mu, message):
    field = _rational_field()
    for transposed in (True, False):
        with pytest.raises(InternalCheckError, match=message):
            positive_eigenvector(field, m, field.rational(mu), transposed, integer_charpoly(m))
        with pytest.raises(InternalCheckError, match=message):
            _reference_eigenvector(field, m, field.rational(mu), transposed)


def test_a_charpoly_of_another_matrix_fails_the_eigenvector_check():
    # (x - 2)(x - 3) vanishes at 2 but is not det(x - A): q(A) = A - 3
    # has columns outside the eigenspace
    field = _rational_field()
    with pytest.raises(InternalCheckError, match="eigenvector check failed"):
        positive_eigenvector(field, ((1, 1), (1, 1)), field.rational(2), False, (6, -5, 1))


@pytest.mark.parametrize("rules", [INPUTS["fib"], INPUTS["sigma4"]], ids=["fib", "sigma4"])
def test_pf_data_builds_chi_once_and_eliminates_nothing(monkeypatch, rules):
    calls = {"integer_charpoly": 0, "row_reduce": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    for module in (coinvariants, intlat, numberfield, pf):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    pf_data(Substitution.from_rules(rules))
    assert calls == {"integer_charpoly": 1, "row_reduce": 0}
