"""Inputs and job lists of the three workloads.

Stdlib only: the controller imports this module without importing flowmcg.
A job is a plain tuple ``(key, kind, rules, arg)``; ``key`` names it in the
frozen expectations and ``kind`` picks the call made by ``worker.call_job``.
A ``cli`` job has no rules; its ``arg`` is the argument vector of one cold
process.
"""

from __future__ import annotations

import itertools
import random

# The ten primitive aperiodic substitutions of test_criterion_09, which
# include the conftest fixtures tm, fib, tribonacci and cyclic4.
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
FIXTURES = ("tm", "fib", "tribonacci", "cyclic4")

# Invalid inputs named in tests/: the correct outcome is exit status 1.
INVALID = {
    "periodic_01_11": {"0": "01", "1": "11"},
    "periodic_0101_01": {"0": "0101", "1": "01"},
    "identity_0_1": {"0": "0", "1": "1"},
}

# Seed of the generator that built the frozen pool (test_criterion_09's).
POOL_GENERATOR_SEED = 20260822


def rules_text(rules: dict) -> str:
    return ",".join(f"{a}>{w}" for a, w in sorted(rules.items()))


def random_rules(rng: random.Random) -> dict:
    """One draw as test_criterion_09 makes it: 2 or 3 letters, images of
    length 1 to 4."""
    letters = ["0", "1", "2"][: rng.choice((2, 3))]
    return {
        a: "".join(rng.choice(letters) for _ in range(rng.randint(1, 4)))
        for a in letters
    }


def relabel(rules: dict, perm: str) -> dict:
    """The substitution with letter ``a`` renamed ``perm[int(a)]``."""
    return {perm[int(a)]: "".join(perm[int(c)] for c in w) for a, w in rules.items()}


def relabelings(rules: dict) -> list:
    """Every renaming of the letters, as image strings (``"10"`` swaps)."""
    return ["".join(p) for p in itertools.permutations(sorted(rules))]


def report_inputs(seed: int, pool: list) -> dict:
    """The fixed ten plus every pool member under a letter renaming drawn
    from the seed.

    The generator draws letters uniformly, so a renamed draw is a draw of
    the same distribution: the seed varies the inputs while the outcomes and
    costs stay those of the frozen pool, up to renaming."""
    rng = random.Random(seed)
    inputs = dict(FIXED)
    for i, rules in enumerate(pool):
        perm = rng.choice(relabelings(rules))
        inputs[f"pool{i:02d}:{perm}"] = relabel(rules, perm)
    return inputs


def all_pool_inputs(pool: list) -> dict:
    """Every renaming of every pool member (what expected.json freezes)."""
    return {
        f"pool{i:02d}:{perm}": relabel(rules, perm)
        for i, rules in enumerate(pool)
        for perm in relabelings(rules)
    }


def report_jobs(inputs: dict) -> list:
    jobs = []
    for name, rules in inputs.items():
        jobs.append((f"assemble_mcg {name}", "assemble_mcg", rules, None))
        jobs.append((f"coinvariants_report {name}", "coinvariants_report", rules, None))
    return jobs


def _blocks(rules: dict, n: int) -> list:
    """Admissible n-blocks, from the images of letters under powers
    (primitive input: every block occurs in some iterated image)."""
    words = sorted(rules)
    seen: set = set()
    while True:
        words = ["".join(rules[c] for c in w) for w in words]
        found = {w[i:i + n] for w in words for i in range(len(w) - n + 1)}
        if found == seen and min(len(w) for w in words) >= n:
            return sorted(found)
        seen = found


def section_jobs(inputs: dict) -> list:
    jobs = []
    for name, rules in inputs.items():
        letters = sorted(rules)
        for a in letters:
            jobs.append((f"induce {name} {a}", "induce", rules, a))
        for w in _blocks(rules, 3):
            jobs.append((f"cylinder_measure {name} {w}", "cylinder_measure", rules, w))
        jobs.append((f"compose_flow_codes {name}", "compose_flow_codes", rules, None))
        jobs.append((f"restrict_flow_code {name} {letters[0]}", "restrict_flow_code", rules, letters[0]))
    return jobs


def cli_inputs() -> dict:
    """The substitution files the cli workload reads, by name."""
    return {**{name: FIXED[name] for name in FIXTURES}, **INVALID}


def cli_jobs() -> list:
    """Argument vectors after ``python -m flowmcg.cli``; ``{name}`` stands for
    the JSON file of that substitution."""
    argvs = [
        ["sturmian", "--surd", "(1,-1,5,2)"],
        ["sturmian", "--surd", "(-1,5,5,10)"],
        ["odometer", "--period", "2,3"],
        ["hierarchical", "--n", "2,2,2,2", "--tables", "12"],
        ["checklist", "--hierarchical", "2,2,2"],
    ]
    for name in FIXTURES:
        argvs += [
            ["pf", "{%s}" % name],
            ["cr", "{%s}" % name],
            ["complexity", "{%s}" % name],
            ["language", "{%s}" % name, "--n", "8"],
        ]
    argvs.append(["analyze", "{tm}", "--aut-radius", "1"])
    argvs += [["analyze", "{%s}" % name] for name in INVALID]
    return [("cli " + " ".join(argv), "cli", None, argv) for argv in argvs]


def jobs_for(workload: str, seed: int, pool: list) -> list:
    if workload == "report":
        return report_jobs(report_inputs(seed, pool))
    if workload == "sections":
        return section_jobs(FIXED)
    if workload == "cli":
        return cli_jobs()
    raise ValueError(f"unknown workload {workload!r}")


def pass_order(jobs: list, rng: random.Random) -> list:
    """One pass: each input's jobs in list order, spread evenly over the
    pass, the inputs interleaved at offsets drawn from ``rng``.

    The first job on a shared ``Substitution`` pays for its language, so
    keeping each input's order fixed keeps every job's cost independent of
    the seed; spreading the inputs makes each kind of job sample the
    machine over the whole pass rather than over one stretch of it."""
    groups: dict = {}
    for job in jobs:
        key = job[0] if job[2] is None else rules_text(job[2])
        groups.setdefault(key, []).append(job)
    keyed = []
    for group in groups.values():
        offset = rng.random()
        keyed += [((i + offset) / len(group), job) for i, job in enumerate(group)]
    keyed.sort(key=lambda pair: pair[0])
    return [job for _key, job in keyed]
