"""PF data against values frozen before its arithmetic moved to integer
numerators, the integer re-check of both eigen-equations, and call-count
guards: a job that recomputes PF data, a primitivity verdict or the
placement of a characteristic factor against the unit circle fails here
and not only in the benchmark."""

import json
import os
from fractions import Fraction

import pytest

import flowmcg
from flowmcg import cli, coinvariants, numberfield, pf, substitution
from flowmcg.errors import InternalCheckError, ResourceLimitError
from flowmcg.flows import lambda_relation_search
from flowmcg.pf import pf_data
from flowmcg.substitution import Substitution, incidence_matrix

from test_asymptotics import CORPUS
from test_benchmark_outputs import EXPECTED, SEED, corpus
from test_field_integers import reference_approx

# pf_data of every CORPUS sigma ("key ^1") and sigma^2 ("key ^2"), frozen
# before the factoring and the eigenvector arithmetic were rewritten
FROZEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pf_frozen.json")


def _frozen_form(data):
    def element(x):
        return [list(x.nums), x.den]

    return {
        "minpoly": list(data.lam.minpoly),
        "interval": [str(data.lam.lo), str(data.lam.hi)],
        "left": [element(x) for x in data.left],
        "right": [element(x) for x in data.right],
        "charpoly_factors": [[list(f), k] for f, k in data.charpoly_factors],
    }


def test_pf_data_of_every_corpus_input_and_its_square_is_unchanged():
    with open(FROZEN, encoding="utf-8") as handle:
        frozen = json.load(handle)
    got = {}
    for key, rules in CORPUS.items():
        sub = Substitution.from_rules(rules)
        got[f"{key} ^1"] = _frozen_form(pf_data(sub))
        got[f"{key} ^2"] = _frozen_form(pf_data(sub.power(2)))
    assert sorted(got) == sorted(frozen)
    for key in sorted(frozen):
        assert got[key] == frozen[key], key


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("rules", [{"0": "01", "1": "0"}, {"0": "01", "1": "02", "2": "0"},
                                   {"0": "01", "1": "10"}], ids=["fib", "tribonacci", "tm"])
def test_a_wrong_eigenvector_coordinate_fails_the_integer_recheck(monkeypatch, side, rules):
    """`_solve_pf` checks a·v = lambda·v again on the vectors it is handed:
    one coordinate moved by 1/7 on one side is caught."""
    real = pf.positive_eigenvector

    def moved(field, m, mu, transposed, charpoly=None):
        vec = list(real(field, m, mu, transposed, charpoly))
        if transposed == (side == "left"):
            vec[0] = vec[0] + field.rational(Fraction(1, 7))
        return tuple(vec)

    monkeypatch.setattr(pf, "positive_eigenvector", moved)
    with pytest.raises(InternalCheckError, match=f"{side} eigenvector check failed"):
        pf_data(Substitution.from_rules(rules))


def _count(monkeypatch, calls, module, name):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


# the two `report` jobs
JOBS = (lambda sub: flowmcg.assemble_mcg(sub, aut_radius=1), lambda sub: flowmcg.coinvariants_report(sub))


@pytest.mark.parametrize("key", sorted(CORPUS))
def test_each_job_factors_one_charpoly_and_builds_each_eigenvector_once(monkeypatch, key):
    """A job on a fresh substitution factors its characteristic polynomial
    once; each PF data build takes a left and a right eigenvector, and a
    coinvariants group one more."""
    calls: dict[str, int] = {}
    _count(monkeypatch, calls, numberfield, "factor_charpoly")
    _count(monkeypatch, calls, pf, "_solve_pf")
    _count(monkeypatch, calls, pf, "positive_eigenvector")
    _count(monkeypatch, calls, coinvariants, "positive_eigenvector")
    _count(monkeypatch, calls, coinvariants, "build_coinvariants")
    for job in JOBS:
        calls.clear()
        try:
            job(Substitution.from_rules(CORPUS[key]))
        except (InternalCheckError, ResourceLimitError):
            pass  # exit 3 or 2 comes after the PF data
        assert calls["factor_charpoly"] == calls["_solve_pf"] == 1
        assert calls["positive_eigenvector"] == 2 * calls["_solve_pf"] + calls.get("build_coinvariants", 0)


@pytest.mark.parametrize("key", sorted(CORPUS))
def test_both_jobs_on_one_substitution_run_the_boolean_power_test_once(monkeypatch, key):
    """Primitivity and aperiodicity are kept on the substitution: the two
    `report` jobs ask for them many times but decide them once."""
    matrices, periodicity = [], []
    real = substitution.is_primitive

    def counted(obj):
        if not isinstance(obj, Substitution):
            matrices.append(tuple(map(tuple, obj)))
        return real(obj)

    monkeypatch.setattr(substitution, "is_primitive", counted)
    real_periodicity = substitution._periodicity
    monkeypatch.setattr(substitution, "_periodicity", lambda sub: periodicity.append(sub) or real_periodicity(sub))
    sub = Substitution.from_rules(CORPUS[key])
    for job in JOBS:
        try:
            job(sub)
        except (InternalCheckError, ResourceLimitError):
            pass
    assert matrices == [incidence_matrix(sub)]
    assert periodicity == [sub]


@pytest.mark.parametrize("key", sorted(CORPUS))
def test_lambda_is_its_own_least_relation(key):
    """`assemble_mcg` takes (1, 1) for the relation of a value it has shown
    to equal lambda; the search agrees on every corpus input."""
    field = pf_data(Substitution.from_rules(CORPUS[key])).field
    assert lambda_relation_search(field.generator()) == (1, 1)


def test_approx_matches_the_oracle_on_every_corpus_frequency():
    """`approx` starts from lambda's first interval and steps as the
    oracle does, so every printed approximation stays the same."""
    eps = Fraction(1, 10**12)
    for key, rules in CORPUS.items():
        data = pf_data(Substitution.from_rules(rules))
        for x in data.left + data.right:
            assert data.field.approx(x, eps) == reference_approx(data.field.root, x.coeffs, eps), key


def _classified(monkeypatch) -> list:
    """The factors handed to the unit-circle classifier from here on."""
    seen = []
    real = pf.classify_roots_vs_unit_circle
    monkeypatch.setattr(pf, "classify_roots_vs_unit_circle", lambda asc: seen.append(tuple(asc)) or real(asc))
    return seen


def _factors(rules) -> list:
    return sorted(f for f, _ in pf_data(Substitution.from_rules(rules)).charpoly_factors)


# the seed-1 `report` inputs but sigma4
REPORT_INPUTS = {
    name: rules for name, rules in corpus.report_inputs(SEED, EXPECTED["pool"]).items() if name != "sigma4"
}


@pytest.mark.parametrize("name", sorted(REPORT_INPUTS))
def test_assemble_mcg_places_each_factor_against_the_circle_once(monkeypatch, name):
    """The balance verdict and the Pisot test read one factor table, kept
    on the substitution."""
    want = _factors(REPORT_INPUTS[name])
    seen = _classified(monkeypatch)
    sub = Substitution.from_rules(REPORT_INPUTS[name])
    try:
        flowmcg.assemble_mcg(sub, aut_radius=1)
    except (InternalCheckError, ResourceLimitError):
        pass  # exit 3 or 2 comes after the balance verdict
    assert sorted(seen) == want
    assert pf.cr_check(sub) is pf.cr_check(sub)


@pytest.mark.parametrize("name", corpus.FIXTURES)
def test_the_cr_command_places_each_factor_against_the_circle_once(monkeypatch, tmp_path, name):
    rules = corpus.FIXED[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"alphabet": sorted(rules), "rules": rules}))
    want = _factors(rules)
    seen = _classified(monkeypatch)
    assert cli.run(["cr", str(path)]) == 0
    assert sorted(seen) == want
