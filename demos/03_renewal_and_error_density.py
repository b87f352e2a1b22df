#!/usr/bin/env python3
"""Renewal density and the analytic law of the tracking error.

Detection epochs form a renewal process whose density m solves m = f + f*m;
in rescaled time u = t/eta^2 it has the closed form

    m(u) = 2/(sigma sqrt(2 pi) u^{3/2}) sum_{n>=1} n^2 exp(-n^2/(2 sigma^2 u)).

The tracking error Z_t = X_t - (last anchor), normalized by eta, has density

    f(z) = p1(T, z) + int_0^T p1(T - v, z) m(v) dv,      T = t/eta^2,

which also has a closed image series, and the integral converges to the
triangular profile (1 - |z|)^+ as T grows.
Convergence is startlingly fast here: the band's spectral decay modes cancel
against the renewal equation, so by T = 2 the density is already triangular
to within numerical noise.
"""

import numpy as np

from exitgrid import (
    FirstPassageLaw,
    ModelParams,
    TriangularLaw,
    convolution_term,
    solve_renewal_density,
    tracking_error_density,
    triangular_pdf,
    wasserstein1,
)

law1 = FirstPassageLaw(ModelParams(sigma=1.0, eta=1.0))
# m tabulated from its closed form; the error-density calls below take the
# grid for its sigma only and serve any rescaled time
rg = solve_renewal_density(law1, h=0.005, horizon=52.5)

print("== renewal density ==")
for t in (0.1, 0.3, 0.5, 1.0, 2.0, 20.0):
    i = int(round(t / rg.h))
    print(f"m({t:5.2f}) = {rg.values[i]:.8f}")
print("limit 1/mean =", law1.params.sigma**2)

print()
print("== convergence of the renewal convolution to the triangular profile ==")
z = np.linspace(-1, 1, 401)
tri = triangular_pdf(z)
for T in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
    conv = convolution_term(ModelParams(1.0, 1.0), rg, T, z)
    print(f"T = {T:5.1f}: sup |conv - triangle| = {np.max(np.abs(conv - tri)):.3e}")

print()
print("== the full error density across regimes ==")
tri_law = TriangularLaw()
for T in (0.03, 0.2, 0.5, 1.0, 2.0):
    ed = tracking_error_density(ModelParams(1.0, 1.0), rg, T)
    d = wasserstein1(ed.law(), tri_law)
    print(f"t/eta^2 = {T:5.2f}: mass = {ed.mass:.8f}, d_W to triangle = {d:.5f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4))
    zs = np.linspace(-1, 1, 801)
    for T in (0.05, 0.15, 0.3, 0.6, 2.0):
        ed = tracking_error_density(ModelParams(1.0, 1.0), rg, T, z_grid=zs)
        ax.plot(zs, ed.grid.f, label=f"t/eta^2 = {T}")
    ax.plot(zs, triangular_pdf(zs), "k--", label="triangular limit")
    ax.set_xlabel("z")
    ax.set_ylabel("density of Z/eta")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo03_error_density.png", dpi=120)
    print("\nwrote demo03_error_density.png")
except ImportError:
    print("\n(matplotlib not available; skipping the plot)")
