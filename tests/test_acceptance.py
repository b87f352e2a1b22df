"""Acceptance suite: one test per verification criterion, at stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion.  The heavy Monte Carlo batch and renewal grid are session-scoped
fixtures shared across criteria; their build time is charged to the first
criterion that uses them where a runtime budget applies.
"""

import contextlib
import io
import time

import numpy as np
import pytest

from exitgrid import (
    EmpiricalSample,
    FirstPassageLaw,
    ModelParams,
    ScaledNormalLaw,
    TriangularLaw,
    convolution_term,
    solve_renewal_density,
    tracking_error_density,
    triangular_pdf,
    wasserstein1,
)
from exitgrid.cli import main
from exitgrid.density import _images, _spectral

from conftest import BUILD_TIMES, DESK_T_EVAL
from test_density import integrate_density_over_time
from test_renewal import brute_force_renewal_density, volterra_renewal_density

P11 = ModelParams(1.0, 1.0)


def _report(num: int, text: str) -> None:
    print(f"criterion {num:2d} PASS: {text}")


def test_criterion_01_parseval_identity():
    # oracle: quadrature of the density over all time against the closed form
    t0 = time.monotonic()
    xs = [0.0] + [s * v for v in (0.1, 0.3, 0.5, 0.7, 0.9) for s in (1.0, -1.0)]
    xs += [0.2, -0.2, 0.4, -0.4, 0.6, -0.6, 0.8, -0.8]
    worst = 0.0
    for x in xs:
        got = integrate_density_over_time(P11, x)
        worst = max(worst, abs(got - (1.0 - abs(x))))
    elapsed = time.monotonic() - t0
    assert worst < 1e-6
    assert elapsed < 10.0
    _report(1, f"time integral equals (1-|x|)+ to {worst:.2e} in {elapsed:.2f}s")


def test_criterion_02_representation_agreement():
    t0 = time.monotonic()
    ts = np.geomspace(1e-3, 1e2, 50)
    xi = np.abs(np.linspace(-1.0, 1.0, 41))  # unit band: v = t, xi = |x|
    worst = 0.0
    for t in ts:
        v = np.full(xi.shape, t)
        a = _spectral(v, xi)
        b = _images(v, xi)
        worst = max(worst, float(np.max(np.abs(a - b))))
    elapsed = time.monotonic() - t0
    assert worst < 1e-10
    assert elapsed < 5.0
    _report(2, f"series agree to {worst:.2e} on the 50x41 grid in {elapsed:.2f}s")


def test_criterion_03_mean_exit_time():
    from scipy.integrate import quad

    t0 = time.monotonic()
    law = FirstPassageLaw(P11)
    mean_quad, _ = quad(lambda t: t * law.density(t), 1e-9, 50.0, limit=400)
    assert abs(mean_quad - 1.0) < 1e-6

    n = 100000
    rng = np.random.default_rng(1234)
    draws = law.sample(rng, n)
    se = np.sqrt(2.0 / 3.0 / n)  # Var(tau) = 2/3 for the unit band
    err = abs(float(draws.mean()) - 1.0)
    elapsed = time.monotonic() - t0
    assert err < 3.0 * se
    assert elapsed < 30.0
    _report(
        3,
        f"quadrature mean off by {abs(mean_quad - 1.0):.2e}; "
        f"MC mean off by {err:.2e} (< 3 SE = {3 * se:.2e}) in {elapsed:.1f}s",
    )


def test_criterion_04_density_consistency():
    from scipy.integrate import quad

    law = FirstPassageLaw(P11)
    ts = np.linspace(0.05, 5.0, 250)
    d = 1e-5
    fd = (law.survival(ts - d) - law.survival(ts + d)) / (2.0 * d)
    worst = float(np.max(np.abs(fd - law.density(ts))))
    assert worst < 1e-6
    mass, _ = quad(law.density, 1e-9, 40.0, limit=400)
    assert abs(mass - 1.0) < 1e-8
    _report(4, f"density = -dS/dt to {worst:.2e}; total mass off by {abs(mass - 1.0):.2e}")


def test_criterion_05_triangular_limit_dual_oracle(desk_batch, renewal_grid):
    t0 = time.monotonic()
    params = ModelParams(1.0, 0.5)
    tri = TriangularLaw()

    analytic = tracking_error_density(params, renewal_grid, 0.5)
    d_analytic = wasserstein1(analytic.law(), tri)

    sample = desk_batch.sample(0.5, 0.5)
    assert sample.n >= 20000
    d_empirical = wasserstein1(sample, tri)
    d_cross = wasserstein1(sample, analytic.law())

    elapsed = time.monotonic() - t0 + BUILD_TIMES.get("desk_batch", 0.0)
    assert d_analytic < 0.02
    assert d_empirical < 0.02
    assert d_cross < 0.01
    assert elapsed < 300.0
    _report(
        5,
        f"d_W(analytic, tri) = {d_analytic:.3e}, d_W(MC, tri) = {d_empirical:.3e}, "
        f"d_W(MC, analytic) = {d_cross:.3e} in {elapsed:.0f}s incl. batch",
    )


def test_criterion_06_normal_regime(desk_batch):
    sample = desk_batch.sample(4.0, 0.5)
    d_norm = wasserstein1(sample, ScaledNormalLaw(1.0, 0.5, 4.0))
    d_tri = wasserstein1(sample, TriangularLaw())
    assert d_norm < 0.02
    assert d_tri > d_norm
    _report(6, f"wide threshold: d_W to normal {d_norm:.4f} < 0.02 < d_W to tri {d_tri:.4f}")


def test_criterion_07_crossover(desk_batch):
    etas = desk_batch.cfg.etas
    tri = TriangularLaw()
    diffs = []
    for e in etas:
        s = desk_batch.sample(e, 0.5)
        diffs.append(wasserstein1(s, tri) - wasserstein1(s, ScaledNormalLaw(1.0, 0.5, e)))
    diffs = np.array(diffs)
    # triangular side below 1.25, normal side above 2.25
    assert np.all(diffs[np.array(etas) <= 1.25] < 0.0)
    assert np.all(diffs[np.array(etas) >= 2.25] > 0.0)
    signs = np.sign(diffs)
    changes = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    assert changes.size == 1
    lo, hi = etas[changes[0]], etas[changes[0] + 1]
    # the stated window plus one grid step on each side
    assert 1.25 - 0.25 <= lo and hi <= 2.25 + 0.25
    _report(7, f"single crossover between eta = {lo} and {hi}")


def test_criterion_08_variance_curve(desk_batch):
    v = desk_batch.variance(0.5, 0.5)
    assert abs(v - 1.0 / 6.0) < 0.01

    small_t = np.array(DESK_T_EVAL[:5])
    worst = 0.0
    for e in (0.5, 0.75, 1.0, 1.5, 2.25):
        vs = np.array([desk_batch.variance(e, t) for t in small_t])
        slope = float(np.sum(vs * small_t) / np.sum(small_t**2))
        rel = abs(slope - 1.0 / e**2) * e**2
        worst = max(worst, rel)
        assert rel < 0.10
    _report(
        8,
        f"plateau variance {v:.4f} within 0.01 of 1/6; "
        f"initial slopes within {100 * worst:.1f}% of 1/eta^2",
    )


def test_criterion_09_key_renewal_convergence(renewal_grid):
    z = np.linspace(-1.0, 1.0, 1001)
    tri = triangular_pdf(z)
    gaps = []
    for T in (1.0, 2.0, 5.0, 10.0, 50.0):
        conv = convolution_term(P11, renewal_grid, T, z)
        gaps.append(float(np.max(np.abs(conv - tri))))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-3
    _report(9, "gaps " + " > ".join(f"{g:.2e}" for g in gaps) + " (final < 1e-3)")


def test_criterion_10_renewal_density(unit_law, renewal_grid):
    h = 0.005
    rg = solve_renewal_density(unit_law, h=h, horizon=10.0)
    oracle = brute_force_renewal_density(unit_law, h, 10.0, k_max=50)
    worst = float(np.max(np.abs(rg.values - oracle)))
    assert worst < 1e-4
    stepped = volterra_renewal_density(unit_law, h, 10.0)
    worst_stepped = float(np.max(np.abs(rg.values - stepped)))
    assert worst_stepped < 1e-4

    idx = int(round(20.0 / renewal_grid.h))
    m20 = float(renewal_grid.values[idx])
    assert abs(m20 - 1.0) < 0.01
    _report(
        10,
        f"closed form vs 50-fold convolution sum: {worst:.2e}, "
        f"vs Volterra stepping: {worst_stepped:.2e}; m(20) = {m20:.6f}",
    )


def test_criterion_11_engineering_determinism(tmp_path):
    args = ["simulate", "--paths", "240", "--steps", "2400", "--seed", "21",
            "--etas", "0.5,1.0", "--t-eval", "0.25,0.5"]
    bodies = {}
    for w in (1, 4, 8):
        out = tmp_path / f"w{w}"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(args + ["--workers", str(w), "--out", str(out)]) == 0
        for name in ("simulate_samples.csv", "simulate_moments.csv", "simulate_renewals.csv"):
            bodies.setdefault(name, set()).add((out / name).read_bytes())
    assert all(len(v) == 1 for v in bodies.values())
    _report(11, "CSV outputs byte-identical across 1, 4 and 8 workers")
