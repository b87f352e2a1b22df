#!/usr/bin/env python3
"""Absorbed Wiener density: two series, one function, and a triangular integral.

The process X_t = sigma*W_t killed at -eta/+eta has a transition density with
two classical series representations.  The image (Gaussian) form converges
fast for small v = sigma^2 t/eta^2, the spectral (sine) form for large;
absorbed_density switches between them at v = SWITCH_V, and the two agree
there to the truncation tolerance.  Integrated over all time the density is
the closed form (eta - |x|)^+ / sigma^2, the triangular profile, which is
exactly why the tracking-error limit in this package is triangular.
"""

import numpy as np

from exitgrid import ModelParams, absorbed_density
from exitgrid.params import SWITCH_V

params = ModelParams(sigma=1.0, eta=1.0)

print("== the image and spectral series meet at v = SWITCH_V ==")
# below SWITCH_V the image series answers, from SWITCH_V on the spectral
# series; the gap shrinks with the step, down to adjacent doubles
xs = np.linspace(-1.0, 1.0, 9)
for below_v in (SWITCH_V * (1.0 - 1e-4), SWITCH_V * (1.0 - 1e-8), np.nextafter(SWITCH_V, 0.0)):
    below = absorbed_density(params, t=np.full(xs.shape, below_v), x=xs)
    above = absorbed_density(params, t=np.full(xs.shape, SWITCH_V), x=xs)
    print(f"v = {below_v:.17g} vs {SWITCH_V}: max |images - spectral| = "
          f"{np.max(np.abs(below - above)):.2e}")

print()
print("== dispatcher values along the diagonal ==")
for t in (0.001, 0.05, 0.5, 2.0, 20.0):
    branch = "images" if params.unit_time(t) < SWITCH_V else "spectral"
    print(f"p({t:7.3f}, 0) = {absorbed_density(params, t=t, x=0.0):12.6g}   [{branch}]")

print()
print("== time integral -> triangular profile (eta - |x|)^+ / sigma^2 ==")
# a trapezoid sum on a geometric time grid; it misses the O(sqrt(1e-8)) mass
# below its first node
ts = np.geomspace(1e-8, 60.0, 20001)
print(f"{'x':>6} {'trapezoid':>12} {'closed form':>12}")
for x in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0):
    v = np.trapezoid(absorbed_density(params, t=ts, x=np.full(ts.shape, x)), ts)
    exact = max(params.eta - abs(x), 0.0) / params.sigma**2
    print(f"{x:6.2f} {v:12.8f} {exact:12.8f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    xs = np.linspace(-1, 1, 401)
    fig, ax = plt.subplots(figsize=(7, 4))
    for t in (0.02, 0.1, 0.3, 1.0, 3.0):
        ax.plot(xs, absorbed_density(params, t=np.full(xs.shape, t), x=xs), label=f"t = {t}")
    ax.set_xlabel("x")
    ax.set_ylabel("absorbed density")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo01_absorbed_density.png", dpi=120)
    print("\nwrote demo01_absorbed_density.png")
except ImportError:
    print("\n(matplotlib not available; skipping the plot)")
