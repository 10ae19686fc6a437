"""Languages, block measures and recoded languages from the 2-block core,
checked against brute-force reference copies of the earlier algorithms:
blocks read off iterated letter images, a dense eigenvector solve on the
n-block recoding, and recoded languages decoded from every admissible block
of a long span."""

import pytest

from flowmcg.errors import ResourceLimitError
from flowmcg.flows import induce, restrict_flow_code, substitution_code
from flowmcg.pf import cylinder_measure, pf_data
from flowmcg.substitution import SYMBOL_BUDGET, Substitution

# the ten primitive aperiodic inputs of test_criterion_09
RULES = [
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
]
SIGMA4 = {"0": "01", "1": "12", "2": "23", "3": "30"}
IDS = [",".join(f"{a}>{w}" for a, w in sorted(r.items())) for r in RULES]


def reference_blocks(sub, n):
    """The n-blocks of the iterated letter images, once they repeat with
    every image at least n long."""
    words = [(a,) for a in range(sub.size)]
    prev = None
    while True:
        words = [sub.apply_idx(w) for w in words]
        cur = {w[i : i + n] for w in words for i in range(len(w) - n + 1)}
        if cur == prev and min(len(w) for w in words) >= n:
            return frozenset(cur)
        prev = cur


def _kernel_line(field, rows):
    """The right kernel of a square matrix over the field, which must be a
    line, by Gauss-Jordan elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    pivots = {}
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if not a[r][col].is_zero()), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = field.one() / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for r in range(n):
            if r != rank and not a[r][col].is_zero():
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        pivots[col] = rank
        rank += 1
    free = [c for c in range(n) if c not in pivots]
    assert len(free) == 1
    vec = [field.zero()] * n
    vec[free[0]] = field.one()
    for col, r in pivots.items():
        vec[col] = -a[r][free[0]]
    return vec


def reference_block_frequencies(sub, n):
    """The left eigenvector of sigma^k acting on n-blocks, min |sigma^k| >= n,
    solved densely and normalized to total mass 1."""
    field = pf_data(sub).field
    k = 1
    while min(len(sub.iterate_idx(a, k)) for a in range(sub.size)) < n:
        k += 1
    blocks = sorted(reference_blocks(sub, n))
    index = {b: i for i, b in enumerate(blocks)}
    counts = [[0] * len(blocks) for _ in blocks]
    for b in blocks:
        image = sum((sub.iterate_idx(x, k) for x in b), ())
        for pos in range(len(sub.iterate_idx(b[0], k))):
            counts[index[b]][index[image[pos : pos + n]]] += 1
    lam_k = field.generator() ** k
    rows = [
        [field.rational(counts[j][i]) - (lam_k if i == j else field.zero()) for j in range(len(blocks))]
        for i in range(len(blocks))
    ]
    vec = _kernel_line(field, rows)
    total = field.zero()
    for x in vec:
        total = total + x
    return {b: vec[i] / total for b, i in index.items()}


def reference_recoded_language(sub, w, returns, n_target):
    """Decode every admissible block of a span long enough for n_target
    visits at the occurrences of w, and collect the visit windows."""
    index = {r: i for i, r in enumerate(returns)}
    k = len(w)
    max_t = max(len(r) for r in returns)
    span = n_target * max_t + 2 * k + max_t
    bags = {n: set() for n in range(1, n_target + 1)}
    for block in reference_blocks(sub, span):
        occ = [i for i in range(len(block) - k + 1) if block[i : i + k] == w]
        seq = tuple(index[block[a:b]] for a, b in zip(occ, occ[1:]))
        for n in range(1, n_target + 1):
            for i in range(len(seq) - n + 1):
                bags[n].add(seq[i : i + n])
    return {n: frozenset(b) for n, b in bags.items()}


def reference_return_words(sub, w):
    """Gaps between consecutive occurrences of w in every admissible block
    of length R + 3|w|, where every admissible R-block contains w."""
    k = len(w)
    n = max(2 * k, 2)
    while not all(
        any(b[i : i + k] == w for i in range(n - k + 1)) for b in reference_blocks(sub, n)
    ):
        n *= 2
    found = set()
    for block in reference_blocks(sub, n + 3 * k):
        occ = [i for i in range(len(block) - k + 1) if block[i : i + k] == w]
        found.update(block[a:b] for a, b in zip(occ, occ[1:]))
    return found


@pytest.mark.parametrize("rules", RULES, ids=IDS)
def test_language_matches_iterated_images(rules):
    sub = Substitution.from_rules(rules)
    table = sub.language(12)
    for n in range(1, 13):
        assert table.blocks_of(n) == reference_blocks(sub, n), n


@pytest.mark.parametrize("rules", RULES, ids=IDS)
def test_block_frequencies_match_dense_solve(rules):
    sub = Substitution.from_rules(rules)
    for n in range(3, 6):
        measures = {b: cylinder_measure(sub, b) for b in sub.language(n).blocks_of(n)}
        assert measures == reference_block_frequencies(sub, n), n


@pytest.mark.parametrize("rules", RULES, ids=IDS)
def test_recoded_language_matches_decoded_blocks(rules):
    sub = Substitution.from_rules(rules)
    for w in [(a,) for a in range(sub.size)] + [sub.two_blocks()[-1]]:
        system = induce(sub, w)
        recoded = system.recoded_language
        expected = reference_recoded_language(
            sub, w, [r.idx for r in system.return_words], recoded.n_max
        )
        for n in range(1, recoded.n_max + 1):
            assert recoded.blocks_of(n) == expected[n], (w, n)


@pytest.mark.parametrize("rules", RULES, ids=IDS)
def test_return_words_match_span_scan(rules):
    sub = Substitution.from_rules(rules)
    for w in [(a,) for a in range(sub.size)] + [sub.two_blocks()[-1]]:
        returns = {r.idx for r in induce(sub, w).return_words}
        assert returns == reference_return_words(sub, w), w


def test_budget_error_builds_no_images():
    fib = Substitution.from_rules({"0": "01", "1": "0"})
    k = next(k for k in range(64) if 2 * sum(fib.image_lengths(k)) > SYMBOL_BUDGET)
    assert sum(fib.image_lengths(k)) <= SYMBOL_BUDGET
    with pytest.raises(ResourceLimitError):
        fib.two_block_images(k)
    with pytest.raises(ResourceLimitError):
        fib.language(10**7).blocks_of(10**7)
    assert fib._memo == {"two_blocks": fib.two_blocks()}
    assert fib._iter_cache == {}


def test_language_lengths_are_built_once_on_demand():
    sub = Substitution.from_rules(SIGMA4)
    table = sub.language(200)
    assert table.blocks_of(7) is sub.language(9).blocks_of(7)
    assert len(table.blocks_of(200)) == len(reference_blocks(sub, 200))


def test_pf_data_is_kept_on_the_substitution(fib):
    assert pf_data(fib) is pf_data(fib)


def test_sigma4_sections_and_restriction_complete():
    sub = Substitution.from_rules(SIGMA4)
    for a in "0123":
        assert induce(sub, a).size >= 2
    restricted = restrict_flow_code(substitution_code(sub), "0")
    assert restricted.source.base_word == (0,)


@pytest.mark.parametrize(
    "rules",
    [
        SIGMA4,
        {"0": "01", "1": "10"},
        {"0": "01", "1": "0"},
        {"0": "01", "1": "02", "2": "0"},
        {"0": "012230", "1": "123301", "2": "230012", "3": "301123"},
    ],
    ids=["sigma4", "tm", "fib", "tribonacci", "cyclic4"],
)
def test_kac_identity_on_entry_cylinders(rules):
    sub = Substitution.from_rules(rules)
    field = pf_data(sub).field
    words = [(a,) for a in range(sub.size)] + [sub.two_blocks()[0]]
    for w in words:
        system = induce(sub, w)
        returns = [r.idx for r in system.return_words]
        entries = [cylinder_measure(sub, r + w) for r in returns]
        expectation = field.zero()
        total = field.zero()
        for r, mu in zip(returns, entries):
            expectation = expectation + mu * len(r)
            total = total + mu
        assert expectation == field.one(), w
        assert total == cylinder_measure(sub, w), w
