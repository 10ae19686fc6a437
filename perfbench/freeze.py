"""Freeze the expected outcome of every job at the current commit.

    python3 perfbench/freeze.py

Draws the random pool, runs every job of every workload once (deadline
FREEZE_DEADLINE_S) and writes ``expected.json``: the pool, and per job its
outcome kind, the digest of its canonical output (none for a job that
failed), its exit status (cli) and its latency, from which the per-call
deadlines of later runs are derived.  Run it only when the expected outputs
are meant to change; it takes several minutes.
"""

from __future__ import annotations

import json
import os
import random
import signal
import sys

import run
from run import EXPECTED, HERE, Children, corpus
from worker import FREEZE_DEADLINE_S, on_alarm

POOL_SIZE = 12


def draw_pool() -> list:
    from flowmcg import Substitution, is_aperiodic, is_primitive

    rng = random.Random(corpus.POOL_GENERATOR_SEED)
    seen = {corpus.rules_text(r) for r in corpus.FIXED.values()}
    pool = []
    while len(pool) < POOL_SIZE:
        rules = corpus.random_rules(rng)
        sub = Substitution.from_rules(rules)
        if corpus.rules_text(rules) in seen or not is_primitive(sub) or is_aperiodic(sub).periodic:
            continue
        seen.add(corpus.rules_text(rules))
        pool.append(rules)
    return pool


def freeze_cli(children: Children) -> dict:
    work = os.path.join(HERE, ".work", "freeze")
    os.makedirs(work, exist_ok=True)
    paths = run.write_inputs(work)
    out = {}
    for job in corpus.cli_jobs():
        elapsed, _kind, _rss, code, stdout = run.cli_call(
            children, job, paths, work, {}, None, FREEZE_DEADLINE_S
        )
        kind = {0: "ok", 1: "invalid", 2: "budget", 3: "exit3", None: "timeout"}.get(code, "other")
        out[job[0]] = {
            "kind": kind,
            "exit": code,
            "digest": run.digest(stdout) if kind in ("ok", "invalid") else None,
            "ms": round(elapsed * 1000.0, 1),
        }
        print(f"{job[0]}: {kind} {elapsed:.3f}s", file=sys.stderr, flush=True)
    return out


def main() -> int:
    signal.signal(signal.SIGALRM, on_alarm)
    frozen = {"pool": draw_pool(), "jobs": {}}
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(frozen, handle)
    children = Children()
    try:
        for workload in ("report", "sections"):
            argv = run.worker_argv(workload, 0, 0, "freeze")
            _setup, line, _rss = run.run_worker(children, argv, 3600)
            frozen["jobs"].update(json.loads(line))
        frozen["jobs"].update(freeze_cli(children))
    finally:
        children.kill_all()
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(frozen, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
