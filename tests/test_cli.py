import json

import pytest

from flowmcg.cli import run


@pytest.fixture
def tm_file(tmp_path):
    path = tmp_path / "tm.json"
    path.write_text(json.dumps({"alphabet": ["0", "1"], "rules": {"0": "01", "1": "10"}}))
    return str(path)


@pytest.fixture
def fib_file(tmp_path):
    path = tmp_path / "fib.json"
    path.write_text(json.dumps({"alphabet": ["0", "1"], "rules": {"0": "01", "1": "0"}}))
    return str(path)


def run_json(capsys, argv):
    assert run(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_analyze_reports_the_full_structure(capsys, tm_file):
    payload = run_json(capsys, ["analyze", tm_file, "--aut-radius", "1"])
    assert payload["mcg"] == {"finite_part": "Z/2", "z_part": "Z", "product": "direct"}
    assert payload["lambda"]["minpoly"] == [-2, 1]
    assert payload["cr"] == "ExactCR"
    assert payload["z_part"]["relation"] == [1, 1]
    assert payload["options"] == {"aut_radius": 1, "aut_depth": 12}


def test_language_lists_blocks(capsys, tm_file):
    payload = run_json(capsys, ["language", tm_file, "--n", "3"])
    assert payload["count"] == 6
    assert "000" not in payload["blocks"]
    assert "010" in payload["blocks"]


@pytest.mark.parametrize(
    "rules",
    [{"0": "0", "1": "1"}, {"0": "01", "1": "11"}],
    ids=["identity", "growing"],
)
@pytest.mark.parametrize("command", [["language", "--n", "8"], ["complexity"]])
def test_language_and_complexity_refuse_a_non_primitive_substitution(
    capsys, tmp_path, rules, command
):
    # the identity does not grow and 0→01, 1→11 does; both are invalid input
    path = tmp_path / "sub.json"
    path.write_text(json.dumps({"alphabet": ["0", "1"], "rules": rules}))
    assert run([command[0], str(path), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "expects a primitive substitution" in captured.err


def test_complexity_values(capsys, tm_file):
    payload = run_json(capsys, ["complexity", tm_file, "--n-max", "5"])
    assert payload["complexity"] == {"1": 2, "2": 4, "3": 6, "4": 10, "5": 12}


def test_pf_output_is_deterministic(capsys, fib_file):
    first = run_json(capsys, ["pf", fib_file])
    second = run_json(capsys, ["pf", fib_file])
    assert first == second
    assert first["lambda"]["minpoly"] == [-1, -1, 1]


def test_cr_verdict(capsys, fib_file):
    payload = run_json(capsys, ["cr", fib_file])
    assert payload["verdict"] == "ProvedCR"
    assert payload["pisot"] is True


def test_coinvariants_summary(capsys, tm_file):
    payload = run_json(capsys, ["coinvariants", tm_file])
    assert payload["free_rank"] == 2
    assert payload["invariant_factors"] == [1, 4]
    assert payload["trace_image"] == "Z[1/2]"


def test_sigma4_coinvariants_and_aut(capsys, tmp_path):
    path = tmp_path / "sigma4.json"
    rules = {"0": "01", "1": "12", "2": "23", "3": "30"}
    path.write_text(json.dumps({"alphabet": list("0123"), "rules": rules}))
    payload = run_json(capsys, ["coinvariants", str(path)])
    assert payload["invariant_factors"][-3:] == [2, 4, 32]
    payload = run_json(capsys, ["aut", str(path), "--radius", "1"])
    assert payload["elements_mod_shift"] == 4
    assert payload["quotient"]["name"] == "Z/4"
    assert payload["quotient"]["element_orders"] == [1, 4, 4, 2]


def test_aut_search_budget_exits_2(capsys, monkeypatch, tmp_path):
    from flowmcg import automorphisms

    monkeypatch.setattr(automorphisms, "CANDIDATE_BUDGET", 50)
    path = tmp_path / "sigma4.json"
    rules = {"0": "01", "1": "12", "2": "23", "3": "30"}
    path.write_text(json.dumps({"alphabet": list("0123"), "rules": rules}))
    assert run(["aut", str(path), "--radius", "1"]) == 2
    err = capsys.readouterr().err
    assert "resource budget exhausted" in err
    assert "more than 50 search nodes" in err
    assert "Traceback" not in err


def test_pool06_aut_and_analyze(capsys, tmp_path):
    # 0→21, 1→0210, 2→2011: the unpruned candidate list ran for about 29 s
    path = tmp_path / "pool06.json"
    rules = {"0": "21", "1": "0210", "2": "2011"}
    path.write_text(json.dumps({"alphabet": list("012"), "rules": rules}))
    payload = run_json(capsys, ["aut", str(path), "--radius", "1"])
    assert payload["elements_mod_shift"] == 1
    assert run(["analyze", str(path)]) == 0


def test_pool03_analyze(capsys, tmp_path):
    # 0→1202, 1→2, 2→0 used to exit 3: its class tails agree on 512 symbols
    path = tmp_path / "pool03.json"
    rules = {"0": "1202", "1": "2", "2": "0"}
    path.write_text(json.dumps({"alphabet": list("012"), "rules": rules}))
    payload = run_json(capsys, ["analyze", str(path)])
    assert payload["finite_part"]["action_on_classes"] == [1, 2, 0]


def test_asymptotics_json_and_dot(capsys, tm_file):
    payload = run_json(capsys, ["asymptotics", tm_file])
    assert payload["count"] == 2
    assert run(["asymptotics", tm_file, "--dot"]) == 0
    assert "cluster_0" in capsys.readouterr().out


def test_aut_search(capsys, tm_file):
    payload = run_json(capsys, ["aut", tm_file, "--radius", "0"])
    assert payload["quotient"] == {"order": 2, "name": "Z/2", "element_orders": [1, 2]}
    rules = [e["rule"] for e in payload["elements"]]
    assert {"0": "1", "1": "0"} in rules


def test_induce_reports_exact_measures(capsys, fib_file):
    payload = run_json(capsys, ["induce", fib_file, "--word", "1"])
    assert payload["returns"] == ["100", "10"]
    assert payload["return_times"] == [3, 2]
    assert "exact" in payload["kac_identity"]


def test_flowcode_rmu(capsys, fib_file):
    payload = run_json(capsys, ["flowcode", "rmu", fib_file, "--kind", "tilde"])
    assert payload["lambda_relation"] == {"p": 1, "q": 1}
    assert payload["r_mu"]["coeffs"] == ["0", "1"]


def test_flowcode_automorphism_needs_a_map(capsys, tm_file):
    assert run(["flowcode", "rmu", tm_file, "--kind", "automorphism"]) == 1
    payload = run_json(
        capsys,
        ["flowcode", "rmu", tm_file, "--kind", "automorphism", "--map", '{"0": "1", "1": "0"}'],
    )
    assert payload["r_mu"]["coeffs"] == ["1"]


def test_sturmian_verdicts(capsys):
    golden = run_json(capsys, ["sturmian", "--surd", "(1,-1,5,2)"])
    assert golden["verdict"] == "IsomorphicToZ"
    trivial = run_json(capsys, ["sturmian", "--surd", "(-1,5,5,10)"])
    assert trivial["verdict"] == "TrivialMCG"
    assert trivial["minpoly"] == [1, -5, 5]


def test_odometer_unit_rank(capsys):
    payload = run_json(capsys, ["odometer", "--period", "2,3"])
    assert payload["unit_rank"] == 2
    assert run(["odometer", "--period", "6"]) == 1


def test_hierarchical_tables(capsys):
    payload = run_json(capsys, ["hierarchical", "--n", "2,2", "--tables", "3"])
    assert payload["words0"][1] == "001"
    assert payload["tables"]["involution_action"] == [1, 0]


def test_checklist_on_a_file(capsys, fib_file):
    payload = run_json(capsys, ["checklist", fib_file, "--n-max", "16"])
    assert payload["ergodic_measure_bound"] == 1


def test_out_flag_writes_a_file(tmp_path, fib_file):
    target = tmp_path / "report.json"
    assert run(["pf", fib_file, "--out", str(target)]) == 0
    assert json.loads(target.read_text())["lambda"]["minpoly"] == [-1, -1, 1]


def test_validation_failures_exit_one(tmp_path):
    assert run(["analyze", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert run(["analyze", str(bad)]) == 1
    periodic = tmp_path / "periodic.json"
    periodic.write_text(json.dumps({"alphabet": ["0", "1"], "rules": {"0": "0", "1": "1"}}))
    assert run(["analyze", str(periodic)]) == 1


@pytest.mark.parametrize("command", ["analyze", "coinvariants", "asymptotics"])
def test_one_letter_identity_exits_one_as_periodic(capsys, tmp_path, command):
    # 0 -> 0 is primitive, and its subshift is the single point 0^oo
    path = tmp_path / "identity.json"
    path.write_text(json.dumps({"alphabet": ["0"], "rules": {"0": "0"}}))
    assert run([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "periodic" in captured.err


@pytest.fixture
def one_letter_file(tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps({"alphabet": ["0"], "rules": {"0": "0"}}))
    return str(path)


def test_one_letter_identity_has_the_language_of_one_point(capsys, one_letter_file):
    assert run_json(capsys, ["language", one_letter_file, "--n", "4"]) == {
        "n": 4, "count": 1, "blocks": ["0000"]
    }
    payload = run_json(capsys, ["complexity", one_letter_file, "--n-max", "8"])
    assert payload["complexity"] == {str(n): 1 for n in range(1, 9)}
    payload = run_json(capsys, ["induce", one_letter_file])
    assert (payload["returns"], payload["return_times"]) == (["0"], [1])
    payload = run_json(capsys, ["flowcode", "make", one_letter_file, "--kind", "identity"])
    assert payload["r_mu"]["coeffs"] == ["1"]


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["induce", "{}", "--word", "0"], "does not grow"),
        (["flowcode", "slopes", "{}"], "does not grow"),
        (["flowcode", "restrict", "{}", "--word", "0"], "does not grow"),
        (["checklist", "{}"], "periodic"),
    ],
    ids=["induce-word", "slopes", "restrict", "checklist"],
)
def test_one_letter_identity_names_its_non_growth_or_periodicity(capsys, one_letter_file, argv, reason):
    # these exited 2 or 3, or called the only block "not admissible"
    assert run([one_letter_file if a == "{}" else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and reason in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze"], ["language", "--n", "8"], ["complexity"], ["pf"], ["cr"], ["coinvariants"],
        ["asymptotics"], ["aut"], ["induce"], ["induce", "--word", "0"], ["flowcode", "make"],
        ["flowcode", "make", "--kind", "identity"], ["flowcode", "compose"], ["flowcode", "rmu"],
        ["flowcode", "slopes"], ["flowcode", "restrict", "--word", "0"], ["checklist"],
    ],
    ids=" ".join,
)
def test_one_letter_identity_never_exhausts_a_budget_or_fails_a_check(capsys, one_letter_file, argv):
    split = 2 if argv[0] == "flowcode" else 1
    code = run([*argv[:split], one_letter_file, *argv[split:]])
    captured = capsys.readouterr()
    assert code in (0, 1), captured.err
    assert code == 0 or "periodic" in captured.err or "does not grow" in captured.err


def test_complexity_below_length_one_is_an_empty_table(capsys, tm_file):
    payload = run_json(capsys, ["complexity", tm_file, "--n-max", "0"])
    assert payload == {"n_max": 0, "complexity": {}}


@pytest.mark.parametrize("n_max", ["0", "-3"])
def test_checklist_window_below_one_exits_one(capsys, tm_file, n_max):
    for source in (["--hierarchical", "2"], [tm_file]):
        assert run(["checklist", *source, "--n-max", n_max]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: n_max must be >= 1" in captured.err


@pytest.mark.parametrize("rules", [{"0": "0101", "1": "01"}, {"0": "00"}], ids=["0101,01", "00"])
def test_aut_on_a_periodic_shift_exits_one(capsys, tmp_path, rules):
    # both used to exit 3: shift identification found several offsets
    path = tmp_path / "periodic.json"
    path.write_text(json.dumps({"alphabet": sorted(rules), "rules": rules}))
    assert run(["aut", str(path), "--radius", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "periodic" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{tm}", "--bogus", "3"],
        ["asymptotics", "{tm}", "--tail-check", "4096"],
        ["induce", "{tm}", "--word", "0", "--depth", "-3"],
        ["analyze", "{tm}", "--aut-depth", "0"],
        ["aut", "{tm}", "--n-check", "10"],
        ["flowcode", "make", "{tm}", "--kind", "identity", "--depth", "1"],
        ["language", "{tm}", "--n", "x"],
        ["language", "{tm}", "--n", "0"],
        ["flowcode"],
        [],
    ],
    ids=[
        "bogus", "tail-check", "depth", "aut-depth", "n-check", "flowcode-depth", "not-int", "n-zero",
        "no-subcommand", "empty",
    ],
)
def test_usage_errors_exit_one(capsys, tm_file, argv):
    # argparse's own exit status 2 would read as an exhausted budget
    assert run([a.replace("{tm}", tm_file) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: flowmcg")


@pytest.mark.parametrize("argv", [["--help"], ["asymptotics", "--help"]])
def test_help_exits_zero(capsys, argv):
    assert run(argv) == 0
    assert capsys.readouterr().out.startswith("usage: flowmcg")


def test_negative_complexity_window_exits_one(capsys, tm_file):
    assert run(["complexity", tm_file, "--n-max", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: n_max must be >= 0" in captured.err


def test_asymptotics_prints_no_tail_certificate(capsys, tm_file):
    payload = run_json(capsys, ["asymptotics", tm_file])
    assert sorted(payload) == ["classes", "count", "power"]


SWAP = '{"0": "1", "1": "0"}'


def test_flowcode_restrict_the_substitution_code_to_a_letter(capsys, fib_file):
    payload = run_json(capsys, ["flowcode", "restrict", fib_file, "--word", "0"])
    assert (payload["kind"], payload["lambda_relation"]) == ("substitution", {"p": 1, "q": 1})
    assert (payload["source_section"], payload["target_section"], payload["restricted_to"]) == ("0", "", "0")
    assert payload["r_mu"]["coeffs"] == ["0", "1"]


def test_flowcode_restrict_an_automorphism_to_a_cylinder(capsys, tm_file):
    argv = ["flowcode", "restrict", tm_file, "--kind", "automorphism", "--map", SWAP, "--word", "01"]
    payload = run_json(capsys, argv)
    assert (payload["kind"], payload["source_section"], payload["target_section"]) == ("automorphism", "01", "10")
    assert (payload["r_mu"]["coeffs"], payload["lambda_relation"]) == (["1"], {"p": 1, "q": 0})
    assert (payload["radius"], payload["verified_depth"]) == (0, 12)


def test_flowcode_slopes_along_the_fibonacci_point(capsys, fib_file):
    payload = run_json(capsys, ["flowcode", "slopes", fib_file, "--k-max", "5"])
    assert [s["slope"] for s in payload["slopes"]] == ["2", "1", "2", "2", "1"]
    assert [s["k"] for s in payload["slopes"]] == [0, 1, 2, 3, 4]
    assert (payload["mean"], payload["mean_approx"]) == ("8/5", "1.6")


@pytest.mark.parametrize("order", [("automorphism", "tilde"), ("tilde", "automorphism")], ids="-".join)
def test_flowcode_compose_absorbs_a_letter_permutation_into_the_substitution(capsys, tm_file, order):
    # swap commutes with Thue-Morse, so either order gives 0->10, 1->01
    first, second = order
    argv = ["flowcode", "compose", tm_file, "--first", first, "--second", second]
    argv += ["--first-map" if first == "automorphism" else "--second-map", SWAP]
    payload = run_json(capsys, argv)
    assert payload["factors"] == list(order)
    assert (payload["kind"], payload["source_section"], payload["target_section"]) == ("substitution", "", "")
    assert (payload["r_mu"]["coeffs"], payload["lambda_relation"]) == (["2"], {"p": 1, "q": 1})
