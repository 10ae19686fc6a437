"""Benchmark of flowmcg: three workloads, end-to-end metrics, a layer trace.

    python3 perfbench/run.py --workload report|sections|cli --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout (it imports flowmcg from ``src/``;
nothing is installed).  Load is closed loop from one client: one job at a
time, in one workload process for ``report`` and ``sections`` and in one
cold child process per job for ``cli``.  Every job's output is checked
against the digest frozen at the seed in ``expected.json``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of one traced pass and
the tracing overhead.  Earlier lines and ``perfbench/out/`` hold the
failure ledger and the spans.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import layertrace  # noqa: E402
from worker import (  # noqa: E402
    EXPECTED, Deadline, SetupProbes, deadline_for, digest, on_alarm, planned_passes,
)

OUT = os.path.join(HERE, "out")
# Address-space cap of every workload process and cli child.
MEMORY_CAP = 2 << 30
# The whole run must end well inside the 180 s a run is allowed.
RUN_LIMIT_S = 170
TAIL_LADDER = (99, 95, 90, 80, 75, 60, 50)
FAILURE_KINDS = ("exit3", "budget", "timeout", "memory", "other", "mismatch", "unverified")

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:  # the group has already gone
        pass


class Children:
    """Every child this run starts; all are killed and reaped on exit.  Each
    child leads its own process group, so that killing it also kills what
    it started (a worker's set-up probes and contained jobs)."""

    def __init__(self) -> None:
        self.live: dict[int, subprocess.Popen] = {}

    def start(self, argv: list, **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_env(), preexec_fn=_cap_memory, start_new_session=True, **kwargs
        )
        self.live[proc.pid] = proc
        return proc

    def reap(self, proc: subprocess.Popen, timeout_s: float | None = None):
        """Wait for a child with os.wait4; return (exit code, rusage), the
        exit code None when the child was killed at the timeout."""
        timed_out = False
        try:
            if timeout_s is not None:
                signal.setitimer(signal.ITIMER_REAL, timeout_s)
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            timed_out = True
            _kill_group(proc.pid)
            _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        del self.live[proc.pid]
        return (None, usage) if timed_out else (proc.returncode, usage)

    def kill_all(self) -> None:
        for proc in list(self.live.values()):
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            proc.returncode = -9
        self.live.clear()


def worker_argv(workload: str, seed: int, seconds: float, mode: str, spans: str | None = None) -> list:
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
    ]
    return argv + (["--spans", spans] if spans else [])


def run_worker(children: Children, argv: list, limit_s: float):
    """Start a worker and wait for it; return (seconds until it reported
    ``ready``, its last stdout line, its peak RSS in MB).  Set-up is a fresh
    interpreter, flowmcg imported and the inputs built."""
    start = time.perf_counter()
    proc = children.start(argv, stdout=subprocess.PIPE, text=True)
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            lines = proc.stdout.read().splitlines()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        children.kill_all()
        raise RuntimeError(f"worker ran past {limit_s:.0f} s") from None
    proc.stdout.close()
    code, usage = children.reap(proc)
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker exited with {code}")
    return setup, (lines[-1] if lines else ""), usage.ru_maxrss / 1024.0


# -- cli workload ----------------------------------------------------------------


def write_inputs(work: str) -> dict:
    paths = {}
    for name, rules in corpus.cli_inputs().items():
        path = os.path.join(work, f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"alphabet": sorted(rules), "rules": rules}, handle)
        paths[name] = path
    return paths


def cli_call(children: Children, job, paths: dict, work: str, expected: dict,
             spans: str | None, deadline_s: float):
    """One cold process; return (seconds, outcome, peak RSS in MB, exit
    status or None at the deadline, stdout bytes)."""
    argv = [a.format(**paths) for a in job[3]]
    if spans is None:
        cmd = [sys.executable, "-m", "flowmcg.cli", *argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "tracecli.py"), spans, *argv]
    out_path = os.path.join(work, "stdout")
    err_path = os.path.join(work, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = children.start(cmd, stdout=out, stderr=err)
        code, usage = children.reap(proc, deadline_s)
        elapsed = time.perf_counter() - start
    with open(out_path, "rb") as handle:
        stdout = handle.read()
    with open(err_path, "rb") as handle:
        stderr = handle.read()
    exp = expected.get(job[0], {"kind": "missing", "digest": None})
    if code is None:
        kind = "timeout"
    elif code == 0 or (code == 1 and stderr.startswith(b"error:")):
        if exp["digest"] is None:
            kind = "unverified"
        else:
            same = digest(stdout) == exp["digest"] and code == exp["exit"]
            kind = "ok" if same else "mismatch"
    elif b"MemoryError" in stderr:
        kind = "memory"
    elif code == 2:
        kind = "budget"
    elif code == 3:
        kind = "exit3"
    else:
        kind = "other"
    return elapsed, kind, usage.ru_maxrss / 1024.0, code, stdout


def run_cli(children: Children, seed: int, seconds: float, trace: bool, spans_prefix: str):
    """The cli workload.  Measured passes with set-up probes spread over
    them; a traced run makes one untraced pass and then runs every job
    untraced and traced back to back, the order within a pair alternating."""
    expected = load_expected()["jobs"]
    work = os.path.join(HERE, ".work", f"cli-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        paths = write_inputs(work)
        jobs = corpus.cli_jobs()
        rng = random.Random(seed)
        count = 1 if trace else planned_passes(jobs, expected, seconds)
        probes = SetupProbes("cli", seed, count * len(jobs))
        passes, walls = [], []
        peak = 0.0
        for _ in range(count):
            order = corpus.pass_order(jobs, rng)
            records = []
            start = time.perf_counter()
            paused = 0.0
            for job in order:
                paused += probes.before_job()
                elapsed, kind, rss, _code, _out = cli_call(
                    children, job, paths, work, expected, None, deadline_for(job, expected)
                )
                peak = max(peak, rss)
                records.append([job[0], elapsed * 1000.0, kind, rss])
            passes.append(records)
            walls.append((time.perf_counter() - start - paused) * 1000.0)
        record = {
            "passes": passes,
            "pass_wall_ms": walls,
            "setup_probes_s": probes.times,
        }
        if trace:
            spans: list = []
            wall_ms = {False: 0.0, True: 0.0}
            for number, job in enumerate(order):
                for on in (False, True) if number % 2 == 0 else (True, False):
                    path = f"{spans_prefix}-{number}.jsonl"
                    start = time.perf_counter()
                    cli_call(children, job, paths, work, expected, path if on else None,
                             deadline_for(job, expected))
                    wall_ms[on] += (time.perf_counter() - start) * 1000.0
                    if on and os.path.exists(path):  # a child killed at its deadline wrote none
                        spans.extend(layertrace.read_spans(path, len(spans), number))
                        os.remove(path)
            layertrace.write_spans(spans, spans_prefix + ".jsonl")
            record["trace"] = {
                "layers": layertrace.layer_metrics(spans, len(order)),
                "traced_ms": wall_ms[True],
                "untraced_ms": wall_ms[False],
                "spans": len(spans),
            }
        return record, peak
    finally:
        shutil.rmtree(work, ignore_errors=True)


def startup_ms(children: Children) -> dict:
    """Median wall time of fresh ``python -c`` processes, 3 of each."""
    out = {}
    for metric, code in (
        ("cli.interpreter_ms", "pass"),
        ("cli.sympy_import_ms", "import sympy"),
        ("cli.import_ms", "import flowmcg"),
    ):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            proc = children.start([sys.executable, "-c", code])
            status, _usage = children.reap(proc, 60)
            if status != 0:
                raise RuntimeError(f"python -c {code!r} exited with {status}")
            times.append((time.perf_counter() - start) * 1000.0)
        out[metric] = statistics.median(times)
    return out


# -- metrics -------------------------------------------------------------------


def tail(values: list) -> tuple[float, int]:
    """Value at the highest ladder percentile with at least ten samples
    beyond it, and that percentile."""
    values = sorted(values)
    n = len(values)
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= 10:
            break
    else:
        p = TAIL_LADDER[-1]
    if n == 0:
        return 0.0, p
    pos = (n - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo), p


def summarize(passes: list, wall_ms: list) -> dict:
    records = [r for records in passes for r in records]
    ok_ms = [r[1] for r in records if r[2] == "ok"]
    total_s = sum(wall_ms) / 1000.0
    tail_ms, percentile = tail(ok_ms)
    ledger: dict[str, list] = {}
    for key, _ms, kind, _mb in records:
        if kind != "ok":
            ledger.setdefault(kind, [])
            if key not in ledger[kind]:
                ledger[kind].append(key)
    return {
        "attempted": len(records),
        "correct_jobs": len(ok_ms),
        "failed": len(records) - len(ok_ms),
        "jobs_per_s": len(ok_ms) / total_s if total_s else 0.0,
        "job_p50_ms": statistics.median(ok_ms) if ok_ms else 0.0,
        "job_tail_ms": tail_ms,
        "tail_percentile": percentile,
        "tail_samples": len(ok_ms),
        "ok_frac": len(ok_ms) / len(records),
        "pass_wall_s": total_s,
        "passes": len(passes),
        # equal for equal seeds: the inputs and the order of every pass
        "job_list_sha256": digest(json.dumps([[r[0] for r in records] for records in passes])),
        "ledger": {k: sorted(v) for k, v in sorted(ledger.items())},
        "largest_child_rss_mb": max((r[3] for r in records), default=0.0),
        "failures_by_kind": {k: sum(1 for r in records if r[2] == k) for k in FAILURE_KINDS},
    }


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    parser = argparse.ArgumentParser(description="flowmcg benchmark")
    parser.add_argument("--workload", required=True, choices=("report", "sections", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "flowmcg", "__init__.py")):
        print(f"no flowmcg sources under {os.path.join(ROOT, 'src')}; run from a checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, on_alarm)
    os.makedirs(OUT, exist_ok=True)
    children = Children()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    started = time.perf_counter()
    try:
        spans = os.path.join(OUT, f"spans-{tag}")
        if args.workload == "cli":
            record, peak_mb = run_cli(children, args.seed, args.seconds, bool(args.trace), spans)
            setups = record["setup_probes_s"]
        else:
            mode = "trace" if args.trace else "measure"
            argv = worker_argv(args.workload, args.seed, args.seconds, mode, spans + ".jsonl")
            limit = RUN_LIMIT_S - (time.perf_counter() - started)
            setup, line, _rss = run_worker(children, argv, limit)
            record = json.loads(line)
            setups = [setup] + record["setup_probes_s"]
            peak_mb = record["peak_rss_mb"]
        extra = startup_ms(children) if args.trace else {}
    finally:
        children.kill_all()

    summary = summarize(record["passes"], record["pass_wall_ms"])
    summary.update(seed=args.seed, workload=args.workload, setup_s_samples=setups, peak_rss_mb=peak_mb)
    values = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": summary["jobs_per_s"],
        "job_p50_ms": summary["job_p50_ms"],
        "job_tail_ms": summary["job_tail_ms"],
        "ok_frac": summary["ok_frac"],
        "peak_rss_mb": peak_mb,
    }
    if args.trace:
        traced = record["trace"]
        layers = dict(traced["layers"], **extra)
        layers["trace.overhead_ms"] = traced["traced_ms"] - traced["untraced_ms"]
        summary["trace"] = {k: v for k, v in traced.items() if k != "layers"}
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump({"summary": summary, "values": values, "passes": record["passes"]}, handle, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  passes {summary['passes']}  "
          f"jobs/pass {summary['attempted'] // summary['passes']}  "
          f"job list {summary['job_list_sha256'][:16]}")
    for name, value in values.items():
        print(f"  {name:12s} {value:12.4f} {END_TO_END[name]}")
    print(f"  job_tail_ms is p{summary['tail_percentile']} of {summary['tail_samples']} correct jobs; "
          f"failed_frac {1 - summary['ok_frac']:.4f}")
    for kind, keys in summary["ledger"].items():
        print(f"  {kind}: {', '.join(keys)}")
    if args.trace:
        t = summary["trace"]
        print(f"  trace: {t['spans']} spans; paired pass: traced {t['traced_ms']:.1f} ms, "
              f"untraced {t['untraced_ms']:.1f} ms")
    result = {
        "correct": summary["failures_by_kind"]["mismatch"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_job"):
        return "calls/job"
    if name.endswith("_bits_max"):
        return "bits"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
