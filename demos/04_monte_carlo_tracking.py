#!/usr/bin/env python3
"""Monte Carlo view of the tracking scheme, at a desk-friendly scale.

Simulates a few thousand paths, applies the first-exit rule for several
thresholds and shows the two limiting shapes: the error law is close to a
scaled normal while the threshold is wide, and close to the triangular law
once several detections have occurred.  Also prints the variance curve that
saturates at 1/6 and the distance crossover in eta.

(The full verification protocol lives in the CLI and the acceptance tests;
this script trades sample size for speed.)
"""

from exitgrid import (
    PathConfig,
    ScaledNormalLaw,
    TriangularLaw,
    simulate_batch,
    wasserstein1,
)

etas = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
t_eval = (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
# the whole batch in one configuration; its grid ends at the last evaluation time
cfg = PathConfig(sigma=1.0, etas=etas, t_eval=t_eval, n_steps=20000, n_paths=4000, seed=1618)
batch = simulate_batch(cfg, workers=1)

print(f"simulated {cfg.n_paths} paths, {cfg.n_steps + 1} grid points over [0, {cfg.t_end}],"
      f" thresholds {etas}")
print()
print(f"== renewal counts at t = {cfg.t_end} ==")
for e in etas:
    counts = batch.renewal_counts[:, etas.index(e)]
    print(f"eta = {e:4.2f}: mean detections {counts.mean():7.3f} (guide t/eta^2 = {0.5 / e**2:6.3f})")

print()
print("== distance to the two reference laws at t = 0.5 ==")
tri = TriangularLaw()
print(f"{'eta':>5} {'d_W tri':>9} {'d_W norm':>9}")
for e in etas:
    s = batch.sample(e, 0.5)
    d_tri = wasserstein1(s, tri)
    d_norm = wasserstein1(s, ScaledNormalLaw(cfg.sigma, 0.5, e))
    marker = "<- triangular side" if d_tri < d_norm else "<- normal side"
    print(f"{e:5.2f} {d_tri:9.4f} {d_norm:9.4f}   {marker}")

print()
print("== variance of Z/eta versus time (saturates at 1/6 = 0.1667) ==")
header = "  t    " + "  ".join(f"eta={e:<4.2f}" for e in etas[:4])
print(header)
for t in t_eval:
    row = "  ".join(f"{batch.variance(e, t):8.4f}" for e in etas[:4])
    print(f"{t:5.2f} {row}")

