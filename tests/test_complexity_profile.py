"""p(1..n) from one sorted L_n, against the per-length builds."""

import random

import pytest

from flowmcg import coinvariants_report, pf
from flowmcg.errors import ValidationError
from flowmcg.substitution import (
    PeriodicityVerdict,
    Substitution,
    complexity_profile,
    generate_language,
    is_aperiodic,
    is_primitive,
)
from flowmcg.words import Word

N_CHECK = 50

FIXED = [
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

POOL = [
    {"0": "01", "1": "010"},
    {"0": "1100", "1": "100"},
    {"0": "111", "1": "101"},
    {"0": "1202", "1": "2", "2": "0"},
    {"0": "221", "1": "001", "2": "21"},
    {"0": "1111", "1": "010"},
    {"0": "21", "1": "0210", "2": "2011"},
    {"0": "1010", "1": "00"},
    {"0": "021", "1": "02", "2": "21"},
    {"0": "0010", "1": "101"},
    {"0": "010", "1": "011"},
    {"0": "1101", "1": "00"},
]

PERIODIC = [
    {"0": "01", "1": "01"},
    {"0": "0101", "1": "01"},
    {"0": "001", "1": "001"},
]


def _random_primitive(count: int, seed: int) -> list[dict]:
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        letters = ["0", "1", "2"][: rng.choice((2, 3))]
        rules = {
            a: "".join(rng.choice(letters) for _ in range(rng.randint(1, 4)))
            for a in letters
        }
        if is_primitive(Substitution.from_rules(rules)):
            found.append(rules)
    return found


INPUTS = FIXED + POOL + PERIODIC + _random_primitive(100, 20261018)


def per_length_is_aperiodic(sub: Substitution, n_check: int = N_CHECK) -> PeriodicityVerdict:
    """The screen as it was before the profile: each length built on its own."""
    lang = sub.language(max(2, n_check))
    for n in range(1, n_check + 1):
        if lang.complexity(n) <= n:
            q = lang.complexity(n)
            lang_q = sub.language(2 * q)
            for w in sorted(lang_q.blocks_of(q)):
                if lang_q.admissible(w + w):
                    return PeriodicityVerdict(
                        periodic=True,
                        window=n_check,
                        period=q,
                        periodic_word=Word(sub.alphabet, w),
                    )
            raise ValidationError("complexity bound hit but no periodic word found")
    return PeriodicityVerdict(periodic=False, window=n_check)


def test_inputs_cover_both_verdicts():
    verdicts = [is_aperiodic(Substitution.from_rules(r)).periodic for r in INPUTS]
    assert verdicts.count(True) >= len(PERIODIC)
    assert verdicts.count(False) >= len(FIXED) + len(POOL)


@pytest.mark.parametrize("rules", INPUTS, ids=lambda r: ",".join(r.values()))
def test_profile_matches_per_length_builds(rules):
    fresh = Substitution.from_rules(rules)
    expected = [len(generate_language(fresh, n)) for n in range(1, N_CHECK + 1)]
    assert list(complexity_profile(Substitution.from_rules(rules), N_CHECK)) == expected


@pytest.mark.parametrize("rules", INPUTS, ids=lambda r: ",".join(r.values()))
def test_screen_matches_per_length_screen(rules):
    got = is_aperiodic(Substitution.from_rules(rules))
    assert got == per_length_is_aperiodic(Substitution.from_rules(rules))


def test_profile_is_memoised_and_refuses_nonprimitive():
    fib = Substitution.from_rules({"0": "01", "1": "0"})
    assert complexity_profile(fib, 12) is complexity_profile(fib, 12)
    with pytest.raises(ValidationError):
        complexity_profile(Substitution.from_rules({"0": "01", "1": "11"}), 5)


@pytest.mark.parametrize("rules", [{"0": "01", "1": "10"}, {"0": "01", "1": "0"}])
def test_screen_builds_no_language(rules):
    """Thue-Morse (lambda = 2) is screened on its fixed point; Fibonacci's
    irrational lambda certifies aperiodicity.  Neither builds a language."""
    sub = Substitution.from_rules(rules)
    assert not is_aperiodic(sub).periodic
    assert not sub.language(1).blocks


def test_one_letter_identity_is_periodic_without_a_language():
    sub = Substitution.from_rules({"0": "0"})
    verdict = is_aperiodic(sub)
    assert (verdict.periodic, verdict.period, verdict.periodic_word.text) == (True, 1, "0")
    assert not sub.language(1).blocks


def test_coinvariants_solve_pf_data_once(monkeypatch):
    solves = []
    solve = pf._solve_pf

    def counting(obj):
        solves.append(obj)
        return solve(obj)

    monkeypatch.setattr(pf, "_solve_pf", counting)
    coinvariants_report(Substitution.from_rules({"0": "01", "1": "10"}))
    assert len(solves) == 1


# the three invalid inputs of the benchmark's cli workload
CLI_INVALID = [
    {"0": "01", "1": "11"},
    {"0": "0101", "1": "01"},
    {"0": "0", "1": "1"},
]


@pytest.mark.parametrize(
    "rules", INPUTS + [r for r in CLI_INVALID if r not in INPUTS], ids=lambda r: ",".join(r.values())
)
def test_no_language_is_built_for_either_lambda(rules):
    """The verdict is the screen's, with no language built whether lambda
    is rational or not; an input that is not primitive is refused."""
    sub = Substitution.from_rules(rules)
    if not is_primitive(sub):
        with pytest.raises(ValidationError, match="expects a primitive substitution"):
            is_aperiodic(sub)
        return
    assert is_aperiodic(sub) == per_length_is_aperiodic(Substitution.from_rules(rules))
    assert not sub.language(1).blocks


def test_certificate_decides_most_report_inputs():
    # the eight with rational lambda: tm, cyclic4, 0→01,1→00, 0→0012,1→12,2→012,
    # sigma4, pool02, pool10 and pool11
    irrational = [
        r for r in FIXED + POOL if not pf.pf_data(Substitution.from_rules(r)).lam.is_rational
    ]
    assert len(irrational) == 14
