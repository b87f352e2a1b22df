"""One benchmark sample, run in a fresh interpreter by ``run.py``.

    python3 perfbench/child.py WORKLOAD SEED TRACE OUT_DIR [--oracle-point]

Imports exitgrid from ``./src`` first, so the parent can time interpreter
start-up plus ``import exitgrid, exitgrid.cli`` from the monotonic clock
reading this process records right after the import.  Then it runs the
workload body (timed, traced when TRACE is 1), reads the peak resident set
size, runs the workload's checks and writes ``OUT_DIR/result.json``.
"""

import os
import sys
import time

SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)
import exitgrid  # noqa: E402
import exitgrid.cli  # noqa: E402

IMPORTED = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    workload, seed, trace, out = argv[0], int(argv[1]), argv[2] == "1", Path(argv[3])
    if not os.path.abspath(exitgrid.__file__).startswith(SRC + os.sep):
        print(f"exitgrid imported from {exitgrid.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    body, check = workloads.WORKLOADS[workload]
    ops = workloads.Ops()
    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    state = body(exitgrid, seed, out, ops)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()

    checked = check(exitgrid, state, out, ops)
    if "--oracle-point" in argv[4:]:
        checked["analytic_max_err"] = workloads.operating_point_gap(exitgrid, ops)
    result = {
        "imported": IMPORTED,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss_kb / 1024.0,
        "attempted": ops.attempted,
        "failures": ops.failures,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "spans": tracer.spans if tracer else None,
        **checked,
    }
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
