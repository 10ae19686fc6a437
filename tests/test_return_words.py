"""Return words in one pass over the 2-block images, against the former
two-stage construction kept here as the reference: a repetitivity bound
searched in the language, the certified set read off the 2-block images,
then a fixed-point prefix scanned, doubling up to a cap, to order it."""

import itertools
import json

import pytest

from flowmcg import pf
from flowmcg.cli import run
from flowmcg.errors import InternalCheckError, ResourceLimitError, ValidationError
from flowmcg.flows import induce, return_words
from flowmcg.substitution import Substitution, cycle_lengths, fixed_point

from test_cross_sections import CIRCLE
from test_one_core import IDS as CORPUS_IDS, RULES

REPETITIVITY_CAP = 4096
ORDER_SCAN_CAP = 200_000


def two_stage_return_words(sub, w):
    seed = min(cycle_lengths(sub.first_letter_map()))
    k = len(w)
    r_bound = None
    n = max(2 * k, 2)
    while n <= REPETITIVITY_CAP:
        if all(_contains(block, w) for block in sub.language(n).blocks_of(n)):
            r_bound = n
            break
        n *= 2
    if r_bound is None:
        raise ResourceLimitError("no repetitivity bound found for the base word")
    found = set()
    for image, cut in sub.two_block_images(sub.growth_power(r_bound + k)):
        occ = [i for i in range(len(image) - k + 1) if image[i : i + k] == w]
        for a, b in zip(occ, occ[1:]):
            if a >= cut:
                break
            found.add(image[a:b])
    if not found:
        raise InternalCheckError("base word never recurs in admissible blocks")
    n = 2 * max(len(r) for r in found) + k
    while True:
        prefix = fixed_point(sub, seed, n)
        occ = [i for i in range(n - k + 1) if prefix[i : i + k] == w]
        ordered = tuple(dict.fromkeys(prefix[a:b] for a, b in zip(occ, occ[1:])))
        if not found.issuperset(ordered):
            raise InternalCheckError("fixed-point scan found a return word outside the certified set")
        if len(ordered) == len(found):
            return ordered
        if n >= ORDER_SCAN_CAP:
            raise ResourceLimitError("fixed point did not exhibit every return word")
        n *= 2


def _contains(block, w):
    k = len(w)
    return any(block[i : i + k] == w for i in range(len(block) - k + 1))


def renamings(rules):
    """Every renaming of the letters of a substitution on digits."""
    letters = sorted(rules)
    for perm in itertools.permutations(letters):
        name = dict(zip(letters, perm))
        yield {name[a]: "".join(name[c] for c in w) for a, w in rules.items()}


# the ten fixed inputs, every renaming of the twelve pool members, the two
# circle-factor inputs and three more with letters off every cycle
INPUTS = (
    RULES[:10]
    + [renamed for rules in RULES[10:] for renamed in renamings(rules)]
    + CIRCLE
    + [
        {"0": "10", "1": "00"},
        {"0": "1", "1": "1312", "2": "103", "3": "3312"},
        {"0": "1", "1": "3200", "2": "21", "3": "30"},
    ]
)
IDS = [",".join(f"{a}>{w}" for a, w in sorted(r.items())) for r in INPUTS]

# letter 2's longest return word has 2,486 symbols; the last new return
# words of letters 0 and 2 first occur at 1,735,306 and 1,821,136 along the
# point, where the two-stage construction stops scanning at 200,000
HARD = {"0": "3223", "1": "3331", "2": "1110", "3": "000"}


@pytest.mark.parametrize("rules", INPUTS, ids=IDS)
def test_return_words_match_the_two_stage_construction(rules):
    sub = Substitution.from_rules(rules)
    lang = sub.language(3)
    for n in range(1, 4):
        for w in sorted(lang.blocks_of(n)):
            assert return_words(sub, w) == two_stage_return_words(sub, w), w


@pytest.mark.parametrize("rules", RULES, ids=CORPUS_IDS)
def test_entry_measures_are_the_cylinder_measures(rules):
    """mu[r·w], read off the return-word pass, against the L_n measure
    table of r·w, for every admissible w of length 1 to 3."""
    sub = Substitution.from_rules(rules)
    lang = sub.language(3)
    for n in range(1, 4):
        for w in sorted(lang.blocks_of(n)):
            system = induce(sub, w)
            expected = tuple(pf.cylinder_measure(sub, r.idx + w) for r in system.return_words)
            assert system.weights == expected, w


def test_return_words_are_memoised(fib):
    assert return_words(fib, (0, 1)) is return_words(fib, (0, 1))


def test_a_seed_that_does_not_grow_is_refused():
    # 0 -> 0 has no 2-block, so no image could hold a return word
    with pytest.raises(ValidationError, match="does not grow"):
        return_words(Substitution.from_rules({"0": "0"}), (0,))


@pytest.fixture(scope="module")
def hard_point():
    """sigma^12(0), 6.4M symbols, by whole images: 0 starts sigma^2(0)."""
    sub = Substitution.from_rules(HARD)
    u = (0,)
    for _ in range(12):
        u = sub.apply_idx(u)
    return u


@pytest.mark.parametrize("letter", range(4))
def test_hard_return_words_follow_a_whole_iterate(hard_point, letter):
    occ = [i for i, a in enumerate(hard_point) if a == letter]
    expected = tuple(dict.fromkeys(hard_point[a:b] for a, b in zip(occ, occ[1:])))
    assert return_words(Substitution.from_rules(HARD), (letter,)) == expected


def test_hard_entry_measures_build_only_the_letter_table(monkeypatch):
    # the return words of 2 reach 2,486 symbols; their entry measures come
    # from the return-word pass, and only mu(2) from a measure table
    lengths = []
    windows = pf._measure_windows
    monkeypatch.setattr(pf, "_measure_windows", lambda sub, n: lengths.append(n) or windows(sub, n))
    induce(Substitution.from_rules(HARD), (2,))
    assert lengths == [1]


@pytest.mark.parametrize(
    "argv",
    [["coinvariants"]] + [["induce", "--word", str(a)] for a in range(4)],
    ids=["coinvariants"] + [f"induce-{a}" for a in range(4)],
)
def test_hard_input_commands_complete(capsys, tmp_path, argv):
    path = tmp_path / "hard.json"
    path.write_text(json.dumps({"alphabet": sorted(HARD), "rules": HARD}))
    assert run(argv[:1] + [str(path)] + argv[1:]) == 0, capsys.readouterr().err
