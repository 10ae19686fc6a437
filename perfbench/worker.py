"""Workload process for the in-process workloads (``report``, ``sections``).

Started by ``run.py`` under its own address-space cap.  It imports flowmcg
from ``src/`` of the checkout, builds the job list, prints ``ready`` (the
end of set-up) and, unless ``--mode setup``, runs as many whole passes over
the jobs as fill ``--seconds`` at the seed's pace, with fresh set-up probes
spread over them.  Each call gets a deadline from this process's interval
timer; its output is checked against the digest frozen at the seed after
the timed region.  The last stdout line is a JSON record for ``run.py``.

``--mode trace`` runs one untraced pass and then a paired pass: every job
untraced and traced back to back, which gives the layer spans and the
tracing overhead.

``--mode freeze`` runs every job once with a generous deadline and prints
what ``freeze.py`` stores in ``expected.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

import corpus  # noqa: E402

EXPECTED = os.path.join(HERE, "expected.json")

# A job that succeeded at the seed gets MARGIN times its seed latency, and
# never less than FLOOR_S; a job that failed at the seed gets FLOOR_S.
FLOOR_S = 2.0
MARGIN = 4.0
FREEZE_DEADLINE_S = 20.0
# How long past its deadline a contained child may take before it is killed.
CHILD_GRACE_S = 5.0
# Fresh set-up processes timed per run, spread evenly over its jobs, so that
# setup_s samples the machine over the whole run as the other metrics do.
SETUP_PROBES = 10
PROBE_LIMIT_S = 60.0


class Deadline(BaseException):
    """Raised by the interval timer; not an Exception, so library code
    that catches Exception cannot swallow it."""


def on_alarm(signum, frame):
    raise Deadline()


def _fe(x) -> list:
    return [str(c) for c in x.coeffs]


def _word(w) -> list | None:
    return None if w is None else list(w)


def canonical(kind: str, result) -> str:
    """The job's output as canonical JSON (sorted keys), exact values only."""
    if kind == "assemble_mcg":
        payload = result.to_json_dict()
    elif kind == "coinvariants_report":
        payload = {
            "free_rank": result.free_rank,
            "invariant_factors": list(result.invariant_factors),
            "trace_image": result.trace_image_description,
            "infinitesimal_rank": result.infinitesimal_rank,
            "caveats": list(result.caveats),
        }
    elif kind == "induce":
        payload = {
            "section": _word(result.base_word),
            "returns": [w.text for w in result.return_words],
            "return_times": list(result.return_times),
            "entry_measures": [_fe(w) for w in result.weights],
            "base_measure": _fe(result.base_measure),
        }
    elif kind == "cylinder_measure":
        payload = _fe(result)
    else:  # a flow code
        payload = {
            "kind": result.kind,
            "radius": result.conjugacy.radius,
            "verified_depth": result.verified_depth,
            "source_section": _word(result.source.base_word),
            "target_section": _word(result.target.base_word),
            "rule": sorted([list(w), o] for w, o in result.conjugacy.rule.items()),
            "r_mu": _fe(result.source.base_measure / result.target.base_measure),
        }
    return json.dumps(payload, sort_keys=True)


def digest(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def call_job(flowmcg, job, subs: dict):
    """One call into the public API.  Looked up on the package at call time,
    so the tracer's wrappers are used when installed."""
    _key, kind, rules, arg = job
    if kind == "assemble_mcg":
        return flowmcg.assemble_mcg(flowmcg.Substitution.from_rules(rules), aut_radius=1)
    if kind == "coinvariants_report":
        return flowmcg.coinvariants_report(flowmcg.Substitution.from_rules(rules))
    sub = subs[corpus.rules_text(rules)]
    if kind == "induce":
        return flowmcg.induce(sub, arg)
    if kind == "cylinder_measure":
        return flowmcg.cylinder_measure(sub, arg)
    code = flowmcg.substitution_code(sub)
    if kind == "compose_flow_codes":
        return flowmcg.compose_flow_codes(code, code)
    return flowmcg.restrict_flow_code(code, arg)


def timed_call(flowmcg, job, subs: dict, deadline_s: float):
    """Run one job in this process; return (seconds, failure kind or None,
    digest of the output or None).  The digest is taken after the timed
    region."""
    errors = flowmcg.errors
    result = None
    kind = None
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            result = call_job(flowmcg, job, subs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        kind = "timeout"
    except MemoryError:
        kind = "memory"
    except errors.InternalCheckError:
        kind = "exit3"
    except errors.ResourceLimitError:
        kind = "budget"
    except errors.ValidationError:
        kind = "invalid"
    except Exception:  # noqa: BLE001 - any other escape is a recorded failure
        kind = "other"
    elapsed = time.perf_counter() - start
    if kind is not None:
        result = None
        gc.collect()
        return elapsed, kind, None
    return elapsed, None, digest(canonical(job[1], result))


def contained_call(flowmcg, job, subs: dict, deadline_s: float, tracer=None):
    """Run one job in a forked child, so that what it allocates, and any
    state it leaves half built, stay out of the workload process.  Returns
    what ``timed_call`` returns plus the child's peak RSS in MB; the
    child's spans are appended to ``tracer``."""
    first_span = len(tracer.spans) if tracer is not None else 0
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            elapsed, kind, got = timed_call(flowmcg, job, subs, deadline_s)
            spans = tracer.spans[first_span:] if tracer is not None else []
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(json.dumps([elapsed, kind, got, spans]).encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    killed = False
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s + CHILD_GRACE_S)
        try:
            with os.fdopen(read_fd, "rb") as pipe:
                data = pipe.read()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        os.kill(pid, signal.SIGKILL)
        killed, data = True, b""
    _pid, status, usage = os.wait4(pid, 0)
    peak_mb = usage.ru_maxrss / 1024.0
    if not data:
        died = os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        kind = "timeout" if killed else ("memory" if died else "other")
        return time.perf_counter() - start, kind, None, peak_mb
    elapsed, kind, got, spans = json.loads(data)
    if tracer is not None:
        tracer.spans.extend(spans)
    return elapsed, kind, got, peak_mb


def outcome(job, kind, got: str | None, expected: dict) -> str:
    """Ledger entry of one job: ``ok`` or the failure kind."""
    exp = expected.get(job[0], {"kind": "missing", "digest": None})
    if kind == "invalid":
        return "ok" if exp["kind"] == "invalid" else "mismatch"
    if kind is not None:
        return kind
    if exp["kind"] == "invalid":
        return "mismatch"
    if exp["digest"] is None:
        return "unverified"
    return "ok" if got == exp["digest"] else "mismatch"


def failed_at_seed(job, expected: dict) -> bool:
    return expected.get(job[0], {"kind": "missing"})["kind"] not in ("ok", "invalid")


def deadline_for(job, expected: dict) -> float:
    exp = expected.get(job[0])
    if exp is None or exp["kind"] != "ok":
        return FLOOR_S
    return max(FLOOR_S, MARGIN * exp["ms"] / 1000.0)


def planned_passes(jobs, expected: dict, seconds: float) -> int:
    """Whole passes that fill ``seconds`` at the seed's pace.  Fixed by the
    frozen latencies, not by this machine or the code under test, so every
    run of a workload takes as many samples of each job."""
    nominal = sum(min(expected[j[0]]["ms"] / 1000.0, deadline_for(j, expected)) for j in jobs)
    return max(1, round(seconds / nominal))


def fresh_subs(flowmcg, jobs) -> dict:
    """One Substitution per input, shared by that input's jobs in a pass."""
    return {
        corpus.rules_text(r): flowmcg.Substitution.from_rules(r)
        for r in {corpus.rules_text(j[2]): j[2] for j in jobs if j[2] is not None}.values()
    }


def run_job(flowmcg, job, subs: dict, expected: dict, tracer=None) -> list:
    """Record ``[key, ms, outcome, contained child's peak MB or 0]`` of one
    job.  Jobs that failed at the seed run contained; all others in this
    process."""
    deadline_s = deadline_for(job, expected)
    if failed_at_seed(job, expected):
        elapsed, kind, got, child_mb = contained_call(flowmcg, job, subs, deadline_s, tracer)
    else:
        elapsed, kind, got = timed_call(flowmcg, job, subs, deadline_s)
        child_mb = 0.0
    return [job[0], elapsed * 1000.0, outcome(job, kind, got, expected), child_mb]


class SetupProbes:
    """Fresh ``worker.py --mode setup`` processes, due at evenly spaced
    jobs of a run.  Each is timed from its start to its ``ready`` line."""

    def __init__(self, workload: str, seed: int, total_jobs: int) -> None:
        self.argv = [
            sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--mode", "setup",
        ]
        self.due = [int((k + 0.5) * total_jobs / SETUP_PROBES) for k in range(SETUP_PROBES)]
        self.jobs_seen = 0
        self.times: list[float] = []

    def before_job(self) -> float:
        """Run the probes due before the next job; return the seconds they
        took, which the caller leaves out of its pass's wall time."""
        start = time.perf_counter()
        while self.due and self.due[0] <= self.jobs_seen:
            self.due.pop(0)
            self.times.append(self.probe())
        self.jobs_seen += 1
        return time.perf_counter() - start

    def probe(self) -> float:
        start = time.perf_counter()
        proc = subprocess.Popen(self.argv, stdout=subprocess.PIPE, text=True)
        try:
            signal.setitimer(signal.ITIMER_REAL, PROBE_LIMIT_S)
            try:
                ready = proc.stdout.readline()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if ready.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        return elapsed


def run_pass(flowmcg, order, expected, probes: SetupProbes):
    """Run one pass; return its records and its wall time in ms, the set-up
    probes left out."""
    start = time.perf_counter()
    paused = 0.0
    subs = fresh_subs(flowmcg, order)
    records = []
    for job in order:
        paused += probes.before_job()
        records.append(run_job(flowmcg, job, subs, expected))
    return records, (time.perf_counter() - start - paused) * 1000.0


def paired_pass(flowmcg, order, expected, tracer):
    """Run every job of ``order`` untraced and traced back to back, the
    order within a pair alternating, each half on its own Substitutions as
    in a pass.  Return the traced records and the wall ms of each half."""
    subs = {False: fresh_subs(flowmcg, order), True: fresh_subs(flowmcg, order)}
    wall_ms = {False: 0.0, True: 0.0}
    traced = []
    for number, job in enumerate(order):
        for on in (False, True) if number % 2 == 0 else (True, False):
            tracer.enable(on)
            tracer.job = number if on else None
            start = time.perf_counter()
            record = run_job(flowmcg, job, subs[on], expected, tracer if on else None)
            wall_ms[on] += (time.perf_counter() - start) * 1000.0
            tracer.job = None
            if on:
                traced.append(record)
    tracer.enable(False)
    return traced, wall_ms[True], wall_ms[False]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("report", "sections", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace", "freeze"), default="measure")
    parser.add_argument("--spans", default=None, help="where a traced pass writes its spans")
    args = parser.parse_args()

    signal.signal(signal.SIGALRM, on_alarm)
    with open(EXPECTED, encoding="utf-8") as handle:
        frozen = json.load(handle)
    import flowmcg

    if args.mode == "freeze":
        if args.workload == "report":
            jobs = corpus.report_jobs({**corpus.FIXED, **corpus.all_pool_inputs(frozen["pool"])})
        else:
            jobs = corpus.section_jobs(corpus.FIXED)
        print("ready", flush=True)
        out = {}
        for job in jobs:
            # cold caches, so the recorded latency bounds any order in a pass
            subs = fresh_subs(flowmcg, [job])
            elapsed, kind, got, _mb = contained_call(flowmcg, job, subs, FREEZE_DEADLINE_S)
            out[job[0]] = {"kind": kind or "ok", "digest": got, "ms": round(elapsed * 1000.0, 1)}
            print(f"{job[0]}: {out[job[0]]['kind']} {elapsed:.3f}s", file=sys.stderr, flush=True)
        print(json.dumps(out, sort_keys=True))
        return 0

    jobs = corpus.jobs_for(args.workload, args.seed, frozen["pool"])
    if args.workload == "cli":
        # the cli workload's inputs are the files its children read
        for rules in corpus.cli_inputs().values():
            flowmcg.Substitution.from_rules(rules)
    else:
        fresh_subs(flowmcg, jobs)
    expected = frozen["jobs"]
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    rng = random.Random(args.seed)
    trace = args.mode == "trace"
    count = 1 if trace else planned_passes(jobs, expected, args.seconds)
    probes = SetupProbes(args.workload, args.seed, count * len(jobs))
    passes = []
    walls = []
    for _ in range(count):
        order = corpus.pass_order(jobs, rng)
        records, wall_ms = run_pass(flowmcg, order, expected, probes)
        passes.append(records)
        walls.append(wall_ms)
    # RUSAGE_SELF: the rusage wait4 reports for this process would include
    # the contained children
    record = {
        "passes": passes,
        "pass_wall_ms": walls,
        "setup_probes_s": probes.times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    if trace:
        import layertrace as tracing

        tracer = tracing.Tracer()
        tracer.install()
        traced, traced_ms, untraced_ms = paired_pass(flowmcg, order, expected, tracer)
        tracer.write(args.spans)
        record["trace"] = {
            "layers": tracing.layer_metrics(tracer.spans, len(traced)),
            "traced_ms": traced_ms,
            "untraced_ms": untraced_ms,
            "bindings_wrapped": tracer.wrapped,
            "spans": len(tracer.spans),
        }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
