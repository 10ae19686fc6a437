"""Run one flowmcg CLI command with the layer tracer installed.

    python3 perfbench/tracecli.py SPANS_FILE COMMAND [ARGS...]

Behaves as ``python -m flowmcg.cli COMMAND [ARGS...]`` and writes the
command's spans to SPANS_FILE as JSON lines.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

import flowmcg.cli  # noqa: E402
import layertrace  # noqa: E402

if __name__ == "__main__":
    tracer = layertrace.Tracer()
    tracer.install()
    tracer.job = 0
    try:
        code = flowmcg.cli.run(sys.argv[2:])
    finally:
        tracer.job = None
        tracer.write(sys.argv[1])
    raise SystemExit(code)
