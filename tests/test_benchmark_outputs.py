"""The benchmark's behaviour gate inside the test suite: the canonical
output of every in-process benchmark job, recomputed and checked against
the digests frozen in perfbench/expected.json.

Covered are every ``report`` job on the seed-1 inputs, the
``coinvariants_report`` job on every renaming of the pool that the digests
were frozen for, and every ``sections`` job that returned or was rejected
as invalid when the digests were frozen.  A ``report`` job that failed then
may now fail cleanly or return, with no frozen digest to compare with, but
not be rejected as invalid or escape with an exception outside the
package's own.  The
benchmark's own modules do the job calls, the serialisation, the digests
and the verdict, so the two gates cannot drift apart.
"""

import json
import os
import sys

import pytest

import flowmcg
from flowmcg.errors import InternalCheckError, ResourceLimitError, ValidationError

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

_saved_path = list(sys.path)
sys.path.insert(0, PERFBENCH)
try:
    import corpus
    import worker
finally:
    sys.path[:] = _saved_path

with open(worker.EXPECTED, encoding="utf-8") as _handle:
    EXPECTED = json.load(_handle)
SEED = 1


def _outcome(job, subs):
    try:
        result = worker.call_job(flowmcg, job, subs)
    except InternalCheckError:
        kind, got = "exit3", None
    except ResourceLimitError:
        kind, got = "budget", None
    except ValidationError:
        kind, got = "invalid", None
    else:
        kind, got = None, worker.digest(worker.canonical(job[1], result))
    return worker.outcome(job, kind, got, EXPECTED["jobs"])


@pytest.mark.parametrize("workload", ["report", "sections"])
def test_benchmark_jobs_reproduce_their_frozen_outputs(workload):
    jobs = corpus.jobs_for(workload, SEED, EXPECTED["pool"])
    subs = worker.fresh_subs(flowmcg, jobs)
    checked = 0
    for job in jobs:
        frozen = EXPECTED["jobs"][job[0]]["kind"]
        if frozen in ("ok", "invalid"):
            assert _outcome(job, subs) == "ok", job[0]
            checked += 1
        elif workload == "report":
            assert _outcome(job, subs) != "mismatch", job[0]
    assert checked > len(jobs) // 2


def test_every_frozen_renaming_reproduces_its_coinvariants_report():
    """A seed draws one renaming of each pool member, and a report may
    depend on the letter names (the default base letter is the first by
    index; the renamings of pool03 and of pool07 have two digests each), so
    every renaming frozen is checked, not only those of one seed."""
    inputs = corpus.all_pool_inputs(EXPECTED["pool"])
    for job in corpus.report_jobs(inputs):
        if job[1] == "coinvariants_report":
            assert _outcome(job, {}) == "ok", job[0]
