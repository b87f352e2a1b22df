#!/usr/bin/env python3
"""Absorbed Wiener density: two series, one function, and a triangular integral.

The process X_t = sigma*W_t killed at -eta/+eta has a transition density with
two classical series representations.  The image (Gaussian) form converges
fast for small v = sigma^2 t/eta^2, the spectral (sine) form for large; the
dispatcher picks whichever is cheaper at each point, at SeriesConfig's
switch_ratio.  Integrated over all time the density is the closed form
(eta - |x|)^+ / sigma^2, the triangular profile, which is exactly why the
tracking-error limit in this package is triangular.
"""

import numpy as np

from exitgrid import ModelParams, SeriesConfig, absorbed_density

params = ModelParams(sigma=1.0, eta=1.0)
# a switch far above or below every v forces one representation everywhere
only_images = SeriesConfig(switch_ratio=1e9)
only_spectral = SeriesConfig(switch_ratio=1e-9)

print("== representation agreement ==")
for t in (0.01, 0.2, 1.0, 10.0):
    xs = np.linspace(-1.0, 1.0, 9)
    ts = np.full(xs.shape, t)
    a = absorbed_density(params, only_images, ts, xs)
    b = absorbed_density(params, only_spectral, ts, xs)
    print(f"t = {t:6.2f}: max |images - spectral| = {np.max(np.abs(a - b)):.2e}")

print()
print("== dispatcher values along the diagonal ==")
for t in (0.001, 0.05, 0.5, 2.0, 20.0):
    branch = "images" if t * params.sigma**2 / params.eta**2 < 0.5 else "spectral"
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
