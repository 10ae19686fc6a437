"""The pruned automorphism search against the unpruned one it replaced.

`reference_candidates` lists every assignment of outputs to the windows
that passes the 2-block check across overlaps; `search_automorphisms`
then filters each one through the full language, inverse and round-trip
checks.  Swapping it in gives the reference report.
"""

import pytest

from flowmcg import automorphisms
from flowmcg.automorphisms import _enumerate_candidates, search_automorphisms
from flowmcg.errors import ResourceLimitError
from flowmcg.substitution import Substitution
from flowmcg.words import SlidingBlockCode, code_preserves_language

# the ten primitive aperiodic substitutions of test_criterion_09
FIXED = {
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
}
# the first twelve primitive aperiodic draws of test_criterion_09's generator
POOL = {
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
INPUTS = {**FIXED, **POOL}
FIXTURES = ("tm", "fib", "tribonacci", "cyclic4")
# the reference needs millions of candidates (or about 10 s) on these
REFERENCE_TOO_SLOW = {("sigma4", 1), ("pool06", 1), ("cyclic4", 2), ("pool03", 2)}

CASES = [
    (name, r)
    for r in (0, 1, 2)
    for name in INPUTS
    if (r < 2 or name in FIXTURES) and (name, r) not in REFERENCE_TOO_SLOW
]


def reference_candidates(lang, radius, d, n_check):
    """Every 2-block-consistent assignment, in lexicographic order."""
    width = 2 * radius + 1
    blocks = sorted(lang.blocks_of(width))
    pairs = set(lang.blocks_of(2))
    index = {w: i for i, w in enumerate(blocks)}
    succ = [[] for _ in blocks]
    for u in blocks:
        for last in range(d):
            join = u + (last,)
            if lang.admissible(join):
                succ[index[u]].append(index[join[1:]])

    out = [None] * len(blocks)
    found = []

    def consistent(i):
        for j in succ[i]:
            if out[j] is not None and (out[i], out[j]) not in pairs:
                return False
        for h in range(len(blocks)):
            if out[h] is not None and i in succ[h]:
                if (out[h], out[i]) not in pairs:
                    return False
        return True

    def walk(i):
        if i == len(blocks):
            if len(found) == automorphisms.CANDIDATE_BUDGET:
                raise ResourceLimitError("reference candidate budget")
            found.append(tuple(out))
            return
        for letter in range(d):
            out[i] = letter
            if consistent(i):
                walk(i + 1)
        out[i] = None

    walk(0)
    return blocks, found


def rules(codes):
    return [dict(c.rule) for c in codes]


@pytest.mark.parametrize("name,radius", CASES, ids=[f"{n}-r{r}" for n, r in CASES])
def test_search_matches_reference(monkeypatch, name, radius):
    sub = Substitution.from_rules(INPUTS[name])
    pruned = search_automorphisms(sub, radius=radius)
    monkeypatch.setattr(automorphisms, "_enumerate_candidates", reference_candidates)
    reference = search_automorphisms(Substitution.from_rules(INPUTS[name]), radius=radius)
    assert rules(pruned.codes) == rules(reference.codes)
    assert rules(pruned.inverses) == rules(reference.inverses)
    assert rules(pruned.elements) == rules(reference.elements)
    assert pruned.table == reference.table


# short check depths, where each block length prunes something the shorter
# ones let through
DEPTH_CASES = [
    (name, r, extra)
    for name in FIXTURES + ("s02_01_1", "pool08")
    for r in (0, 1, 2)
    for extra in (0, 1, 2)
    if (name, r) not in {("cyclic4", 2), ("pool08", 2)}
]


@pytest.mark.parametrize(
    "name,radius,extra",
    DEPTH_CASES,
    ids=[f"{n}-r{r}-depth+{e}" for n, r, e in DEPTH_CASES],
)
def test_candidates_are_the_language_preserving_assignments(name, radius, extra):
    sub = Substitution.from_rules(INPUTS[name])
    n_check = max(2, 2 * radius + 1) + extra
    lang = sub.language(n_check + 2 * radius)
    blocks, found = _enumerate_candidates(lang, radius, sub.size, n_check)
    ref_blocks, ref_found = reference_candidates(lang, radius, sub.size, n_check)
    assert blocks == ref_blocks
    expected = [
        outputs
        for outputs in ref_found
        if code_preserves_language(
            SlidingBlockCode(
                sub.alphabet, sub.alphabet, radius, dict(zip(blocks, outputs))
            ),
            lang,
            lang,
            n_check,
        )
    ]
    assert found == expected

