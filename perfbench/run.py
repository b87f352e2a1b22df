"""exitgrid benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {mc_wide,mc_fine,analytic} --seed N
                             --seconds S --trace {0,1}

Run it from the root of a checkout: exitgrid is imported from ``./src``.
The load is a closed loop with one client: samples run back to back, each
in a fresh child interpreter (``child.py``) with ``--workers 1``, so that the
run ends as near to ``--seconds`` as whole samples allow (at least three).

With ``--trace 0`` every sample is untraced and the result carries the
end-to-end metrics of ``BENCHMARK.json``: median set-up time (interpreter
start plus ``import exitgrid, exitgrid.cli``), median wall time of the
workload body, median peak RSS, and the sup-norm gap between exitgrid's
analytic error density and the closed-form oracle in ``oracle.py``.  With
``--trace 1`` traced and untraced samples alternate and the result carries
the per-layer metrics from the traced samples, plus the tracing overhead.

Every CLI invocation, analytic call and output check is an operation; the
CSV bodies of all samples of a run (traced or not) must hash alike.  The
report lines before the last one give machine and build facts, each
timing's median, its highest percentile with at least ten samples beyond it
and the sample count, and per-layer shares.  The last line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
WORKLOADS = ("mc_wide", "mc_fine", "analytic")
MIN_SAMPLES = 3
LAUNCH_CAP_S = 150.0  # no sample starts later than this; a run must end within 180 s
RUN_LIMIT_S = 175.0


def summary(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    xs = sorted(values)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n}
    k = n - 10  # 1-based rank of the highest order statistic with ten beyond it
    if k >= 1:
        out[f"p{100.0 * k / n:.0f}"] = xs[k - 1]
    return out


def result_line(spec: dict, trace: bool, metrics: dict, attempted: int, failed: int) -> dict:
    """The final JSON object: exactly the metrics ``BENCHMARK.json`` names for this mode."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def _git(root: Path, *args: str) -> str | None:
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", *args], cwd=root, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _read_first(path: str, prefix: str = "") -> str | None:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line.strip()
    except OSError:
        pass
    return None


def machine_facts(root: Path, versions: dict) -> dict:
    llc = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = _read_first(str(index / "level")), _read_first(str(index / "size"))
        if level and size and (llc is None or int(level) >= llc[0]):
            llc = (int(level), size)
    sources = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    for p in sources:
        digest.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    sha = _git(root, "rev-parse", "HEAD")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _read_first("/proc/cpuinfo", "model name") or platform.processor(),
        "llc": f"L{llc[0]} {llc[1]}" if llc else None,
        "python": platform.python_version(),
        **versions,
        "git_sha": sha,
        "git_dirty": None if sha is None else bool(_git(root, "status", "--porcelain",
                                                        "--untracked-files=no")),
        "src_py_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "src_sha256": digest.hexdigest(),
    }


def run_sample(root: Path, workload: str, seed: int, traced: bool, out: Path,
               oracle_point: bool, timeout: float) -> tuple[dict | None, str | None]:
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed),
           "1" if traced else "0", str(out)] + (["--oracle-point"] if oracle_point else [])
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"sample timed out after {timeout:.0f} s"
    ended = time.monotonic()
    result = out / "result.json"
    if proc.returncode != 0 or not result.is_file():
        return None, f"sample exited {proc.returncode}: {proc.stderr.strip()[-800:]}"
    res = json.loads(result.read_text())
    res["traced"] = traced
    res["setup_s"] = res["imported"] - spawned
    res["duration_s"] = ended - spawned
    return res, None


def run_samples(root: Path, tmp: Path, workload: str, seed: int, seconds: float, trace: bool):
    """Closed loop, one client: fresh child per sample, back to back."""
    start = time.monotonic()
    samples, errors, durations = [], [], []
    while True:
        i = len(samples) + len(errors)
        traced = trace and i % 2 == 1
        res, err = run_sample(root, workload, seed, traced, tmp / f"sample{i}",
                              oracle_point=i == 0 and not trace and workload != "analytic",
                              timeout=RUN_LIMIT_S - (time.monotonic() - start))
        if err:
            errors.append(err)
            break  # a crashing sample would crash again; report what was measured
        samples.append(res)
        durations.append(res["duration_s"])
        now = time.monotonic()
        enough = len(samples) >= (2 if trace else MIN_SAMPLES)
        # stop when one more sample would end farther past the deadline than we are before it
        if now - start > LAUNCH_CAP_S or (enough and now + statistics.median(durations) / 2 > start + seconds):
            break
    return samples, errors, time.monotonic() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    root = Path.cwd()
    trace = bool(args.trace)
    if not (root / "src" / "exitgrid" / "__init__.py").is_file():
        print(f"perfbench: no exitgrid sources in {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    tmp = root / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        samples, errors, elapsed = run_samples(root, tmp, args.workload, args.seed,
                                               args.seconds, trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    if not samples:
        print("perfbench: no sample completed:\n" + "\n".join(errors), file=sys.stderr)
        return 1

    # operations: everything the samples attempted, each failed sample process,
    # and one output-digest comparison per sample after the first
    attempted = sum(s["attempted"] for s in samples) + len(errors)
    failures = [f for s in samples for f in s["failures"]] + errors
    for i, s in enumerate(samples[1:], 1):
        attempted += 1
        if s["digests"] != samples[0]["digests"]:
            failures.append(f"sample {i} ({'traced' if s['traced'] else 'untraced'}) outputs "
                            "differ from sample 0")

    plain = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    timings = {
        "setup_s": summary([s["setup_s"] for s in samples]),
        "wall_s": summary([s["wall_s"] for s in plain]),
        "peak_rss_mb": summary([s["peak_rss_mb"] for s in plain]),
    }
    metrics = {k: v["median"] for k, v in timings.items()}
    metrics["analytic_max_err"] = samples[0].get("analytic_max_err")
    shares = {}
    if traced:
        layers = [spans.layer_metrics(s["spans"]) for s in traced]
        for name in layers[0]:
            metrics[name] = statistics.median(lay[name] for lay in layers)
        traced_wall = statistics.median(s["wall_s"] for s in traced)
        metrics["proc.cpu_s"] = statistics.median(s["cpu_s"] for s in traced)
        metrics["trace.overhead_s"] = traced_wall - metrics["wall_s"]
        timings["traced_wall_s"] = summary([s["wall_s"] for s in traced])
        shares = {k: round(v / traced_wall, 4) for k, v in metrics.items()
                  if k.endswith("_s") and k in layers[0] and v > 0.0}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {len(samples)} samples "
          f"in {elapsed:.1f} s (closed loop, one client, fresh process per sample, workers=1)")
    print("facts " + json.dumps(machine_facts(root, samples[0]["versions"])))
    for name, s in timings.items():
        print(f"timing {name} " + json.dumps(s))
    if shares:
        print("layer self-time shares of traced wall_s " + json.dumps(shares))
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    line = result_line(spec, trace, metrics, attempted, len(failures))
    if any(v["value"] is None for v in line["metrics"].values()):
        print("perfbench: a metric could not be measured", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
