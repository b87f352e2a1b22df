#!/usr/bin/env python3
"""Drive the experiment runners end-to-end at a reduced scale.

Produces the three standard verification figures plus the convergence report
as CSV (and SVG) under ./demo_output.  The CSV metadata block carries the
tool version, the full configuration echo, the seed and its hash, and
rerunning with the same configuration reproduces the bytes exactly.

For the full protocol use the CLI directly, e.g.

    exitgrid fig2 --paper-scale --workers 8 --svg --out results/
"""

from pathlib import Path

from exitgrid.experiments import (
    ExperimentConfig,
    read_csv,
    run_fig1,
    run_fig2,
    run_fig3,
    run_limit_check,
)

out = Path("demo_output")
scale = dict(paths=2500, steps=25000, seed=31415, workers=1, emit_svg=True, out_dir=str(out))

print("fig1: kernel estimates against the two reference laws")
files = run_fig1(ExperimentConfig(experiment="fig1", etas=(4.0, 2.0, 0.5), **scale))
print("  " + "\n  ".join(str(f) for f in files))

print("fig2: Wasserstein distances across thresholds (one shared batch)")
files = run_fig2(ExperimentConfig(experiment="fig2", etas=(0.5, 1.0, 1.5, 2.0, 2.75, 3.5), **scale))
print("  " + "\n  ".join(str(f) for f in files))
_, cols, data = read_csv(out / "fig2.csv")
cross = [
    (a, b)
    for a, b in zip(data[:-1], data[1:])
    if (a[1] - a[2]) * (b[1] - b[2]) < 0
]
if cross:
    print(f"  distance curves cross between eta = {cross[0][0][0]:g} and {cross[0][1][0]:g}")

print("fig3: variance of the normalized error over time")
files = run_fig3(
    ExperimentConfig(
        experiment="fig3",
        etas=(0.5, 1.0, 2.25),
        t_eval=(0.002, 0.004, 0.006, 0.008, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5),
        **scale,
    )
)
print("  " + "\n  ".join(str(f) for f in files))

print("limit: triangular-limit ladder + Monte Carlo cross-check")
# the cross-check gate is d_W < 0.01, and the empirical noise floor scales
# like 1/sqrt(paths); 2500 paths sit right at the gate, so use more here
limit_scale = {**scale, "paths": 8000}
files = run_limit_check(ExperimentConfig(experiment="limit", eta=0.5, **limit_scale))
print("  " + "\n  ".join(str(f) for f in files))
print("done; outputs in", out.resolve())
