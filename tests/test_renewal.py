import math
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from exitgrid import (
    FirstPassageLaw,
    InvalidDomainError,
    ModelParams,
    NoConvergenceError,
    ScaledNormalLaw,
    ToleranceNotMetError,
    TriangularLaw,
    absorbed_density,
    convolution_term,
    solve_renewal_density,
    tracking_error_density,
    triangular_pdf,
    wasserstein1,
)
from exitgrid.params import SWITCH_V
from exitgrid.renewal import (
    _error_density_images,
    _error_density_spectral,
    _renewal_images,
    _renewal_spectral,
)


def brute_force_renewal_density(law, h: float, t_max: float, k_max: int) -> np.ndarray:
    """Independent oracle: direct partial sum of the k-fold convolutions.

    Convolutions are computed by grid convolution (trapezoid weights are
    plain sums here because the kernel vanishes at 0).
    """
    n = int(round(t_max / h))
    t = h * np.arange(n + 1)
    f = np.empty(n + 1)
    f[0] = 0.0
    f[1:] = law.density(t[1:])
    total = f.copy()
    fk = f.copy()
    for _ in range(2, k_max + 1):
        fk = np.convolve(fk, f)[: n + 1] * h
        total += fk
    return total


def volterra_renewal_density(law, h: float, t_max: float) -> np.ndarray:
    """Independent oracle: trapezoid stepping for ``m = f + f*m``.

    Both endpoint weights vanish because f(0) = 0 and m(0) = 0, so every step
    is explicit.
    """
    n = int(round(t_max / h))
    t = h * np.arange(n + 1)
    f = np.empty(n + 1)
    f[0] = 0.0
    f[1:] = law.density(t[1:])
    m = np.empty(n + 1)
    m[0] = 0.0
    for i in range(1, n + 1):
        m[i] = f[i] + h * float(np.dot(f[1:i][::-1], m[1:i]))
    return m


def quadrature_convolution(sigma: float, rg, T: float, z) -> np.ndarray:
    """Independent oracle: ``int_0^T p1(T - v, z) m(v) dv`` by adaptive quadrature.

    The integral is taken in ``w = sqrt(T - v)``, which removes the 1/sqrt
    singularity of ``p1`` at the upper end (the small-time corner near
    z = 0); ``m`` between grid nodes comes from a cubic spline.
    """
    p1 = ModelParams(sigma, 1.0)
    m_at = CubicSpline(rg.times, rg.values)
    sqrtT = math.sqrt(T)
    out = []
    for za in np.abs(np.asarray(z, dtype=float)):

        def g(w: float, _z=za) -> float:
            u = w * w
            if u == 0.0:
                return 0.0 if _z > 0.0 else 2.0 * float(m_at(T)) / (sigma * math.sqrt(2.0 * math.pi))
            return 2.0 * w * absorbed_density(p1, t=u, x=_z) * float(m_at(T - u))

        pts = sorted(
            {p for p in (0.3 * za / sigma, za / sigma, 3.0 * za / sigma, math.sqrt(0.5) / sigma)
             if 0.0 < p < sqrtT}
        )
        val, err = quad(g, 0.0, sqrtT, points=pts or None, epsabs=1e-9, epsrel=1e-10, limit=400)
        assert err < 5e-8
        out.append(val)
    return np.array(out)


def brute_force_error_density(sigma: float, T: float, z) -> np.ndarray:
    """Independent oracle: the image series of ``f_Z`` with no truncation test.

    Every term whose centre lies within 40 standard deviations is summed.
    """
    v = sigma * sigma * T
    a = np.abs(np.asarray(z, dtype=float))
    n = np.arange(1, int(math.ceil(2.0 + 40.0 * math.sqrt(v))) + 1, dtype=float)[:, None]
    near = np.exp(-((n - 1.0 + a) ** 2) / (2.0 * v))
    far = np.exp(-((n + 1.0 - a) ** 2) / (2.0 * v))
    return (n * (near - far)).sum(axis=0) / math.sqrt(2.0 * math.pi * v)


@dataclass(frozen=True)
class TriangularLimitReport:
    """Distance of the analytic error density from its triangular limit."""

    t_rescaled: float
    d_wasserstein: float
    max_abs_gap: float
    atom_max: float
    atom_bound: float  # valid bound 4 eta^2 / (3 sigma^2 t)
    atom_bound_unit_time: float  # the fixed-time constant 4 eta^2 / (3 sigma^2)
    asymptotic: bool  # True when t/eta^2 >= 1 (the regime the limit describes)
    mass: float


def triangular_limit_check(
    params: ModelParams,
    t: float,
    rg=None,
    z_grid=None,
) -> TriangularLimitReport:
    """Compare the analytic error density at time ``t`` to ``(1 - |z|)^+``."""
    if z_grid is None:
        z_grid = np.linspace(-1.0, 1.0, 1001)
    T = t / params.eta**2
    if rg is None:
        law1 = FirstPassageLaw(ModelParams(params.sigma, 1.0))
        rg = solve_renewal_density(law1, horizon=max(20.0, 1.05 * T))
    ed = tracking_error_density(params, rg, t, z_grid)

    atom = np.asarray(absorbed_density(ModelParams(params.sigma, 1.0), T, z_grid))
    atom_max = float(np.max(atom))
    atom_bound = 4.0 * params.eta**2 / (3.0 * params.sigma**2 * t)
    if atom_max > atom_bound * (1.0 + 1e-9):
        raise ToleranceNotMetError(
            f"atom term {atom_max:.3e} exceeds its series bound {atom_bound:.3e}"
        )

    tri = TriangularLaw()
    gap = float(np.max(np.abs(ed.grid.f - tri.pdf(ed.grid.x))))
    d_w = wasserstein1(ed.law(), tri)
    return TriangularLimitReport(
        t_rescaled=T,
        d_wasserstein=d_w,
        max_abs_gap=gap,
        atom_max=atom_max,
        atom_bound=atom_bound,
        atom_bound_unit_time=4.0 * params.eta**2 / (3.0 * params.sigma**2),
        asymptotic=T >= 1.0,
        mass=ed.mass,
    )


class TestSolver:
    def test_matches_kernel_at_small_times(self, unit_law, renewal_grid):
        # for t well below one mean the higher convolutions are negligible:
        # the second convolution is ~2e-7 at t = 0.1 and 1.6e-3 by t = 0.2
        times = renewal_grid.times
        sel = (times > 0.01) & (times <= 0.1)
        f = unit_law.density(times[sel])
        assert np.max(np.abs(renewal_grid.values[sel] - f)) < 1e-6

        h = renewal_grid.h
        n = int(round(0.25 / h))
        t = h * np.arange(n + 1)
        fv = np.concatenate(([0.0], unit_law.density(t[1:])))
        two_fold = f + np.convolve(fv, fv)[: n + 1][np.nonzero(sel)[0]] * h
        assert np.max(np.abs(renewal_grid.values[sel] - two_fold)) < 1e-6

    def test_limit_value(self, unit_law):
        rg = solve_renewal_density(unit_law, h=0.005, horizon=20.0)
        assert rg.values[-1] == pytest.approx(1.0, abs=0.01)
        assert rg.values[-1] == pytest.approx(1.0, abs=1e-6)  # converges much faster
        assert np.all(rg.values >= 0.0)

    def test_brute_force_series_agreement(self):
        h = 0.005
        for sigma in (1.0, 1.7):
            law = FirstPassageLaw(ModelParams(sigma, 1.0))
            rg = solve_renewal_density(law, h=h, horizon=10.0)
            for oracle in (
                brute_force_renewal_density(law, h, 10.0, k_max=50),
                volterra_renewal_density(law, h, 10.0),
            ):
                assert np.max(np.abs(rg.values - oracle)) < 1e-4

    def test_cumulative_is_nondecreasing(self, renewal_grid):
        M = np.cumsum(renewal_grid.values) * renewal_grid.h
        assert np.all(np.diff(M) >= 0.0)

    def test_rejects_bad_inputs(self, unit_law):
        with pytest.raises(InvalidDomainError):
            solve_renewal_density(FirstPassageLaw(ModelParams(1.0, 2.0)), h=0.005)
        # the closed form reads no horizon, so one shorter than the mean gap
        # (1 here) is served, with the leading nodes of a longer grid
        short = solve_renewal_density(unit_law, h=0.005, horizon=0.5)
        full = solve_renewal_density(unit_law, h=0.005, horizon=20.0)
        assert short.values.size == 101
        np.testing.assert_allclose(short.values, full.values[:101], rtol=0.0, atol=1e-14)

    def test_node_ceiling_fails_before_allocating(self, unit_law):
        # 5e10 and 1e325 (inf) nodes; the largest grid that passes holds 1e7
        tracemalloc.start()
        try:
            for h in (1e-9, 5e-324):
                with pytest.raises(InvalidDomainError):
                    solve_renewal_density(unit_law, h=h, horizon=50.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_far_horizon_is_fast_and_flat(self, unit_law):
        # u up to 1e6 would need about 8 000 image terms; above SWITCH_V the
        # spectral kernel needs one, and m has reached its limit 1 / E[tau]
        t0 = time.monotonic()
        rg = solve_renewal_density(unit_law, h=50.0, horizon=1e6)
        assert time.monotonic() - t0 < 1.0
        assert rg.values.size == 20001
        assert np.max(np.abs(rg.values[1:] - 1.0)) <= 1e-15

    def test_image_kernel_is_zero_where_every_term_underflows(self):
        # below v = 1/1500 each exp(-n^2/(2v)) is an exact 0, and v^1.5 may
        # be 0 as well; the other points keep their values
        v = np.array([1e-300, 1e-4, 0.01, 0.3])
        out = _renewal_images(v)
        assert out[0] == 0.0 and out[1] == 0.0
        np.testing.assert_array_equal(out[2:], _renewal_images(v[2:]))
        tiny = FirstPassageLaw(ModelParams(1.3e-149, 1.0))
        assert not np.any(solve_renewal_density(tiny, horizon=52.5).values)

    @pytest.mark.parametrize("sigma", [1.0, 1.7, 0.3])
    def test_image_kernel_below_switch_bit_for_bit(self, sigma):
        # nodes below SWITCH_V are the image series summed over the whole
        # grid, as before the spectral kernel took the nodes above it
        law = FirstPassageLaw(ModelParams(sigma, 1.0))
        rg = solve_renewal_density(law, h=0.0025, horizon=52.5)
        v = law.params.unit_time(rg.times[1:])
        below = v < SWITCH_V
        assert np.any(below) and np.any(~below)
        reference = law.params.unit_time(_renewal_images(v))
        np.testing.assert_array_equal(rg.values[1:][below], reference[below])
        assert np.max(np.abs(rg.values[1:][~below] - reference[~below])) < 1e-13


class TestErrorDensity:
    def test_normalized_for_every_time(self, renewal_grid):
        params = ModelParams(1.0, 1.0)
        for t in (0.03, 0.5, 2.0, 50.0):
            ed = tracking_error_density(params, renewal_grid, t)
            assert ed.mass == pytest.approx(1.0, abs=1e-6)

    def test_symmetric(self, renewal_grid):
        ed = tracking_error_density(ModelParams(1.0, 0.5), renewal_grid, 0.5)
        assert np.max(np.abs(ed.grid.f - ed.grid.f[::-1])) < 1e-12

    def test_triangular_regime(self, renewal_grid):
        # at t/eta^2 = 2 the law is already indistinguishable from triangular
        ed = tracking_error_density(ModelParams(1.0, 0.5), renewal_grid, 0.5)
        assert wasserstein1(ed.law(), TriangularLaw()) < 0.01

    def test_normal_regime(self, renewal_grid):
        # at t/eta^2 = 0.03 the law matches the wide-threshold normal shape
        ed = tracking_error_density(ModelParams(1.0, 1.0), renewal_grid, 0.03)
        assert wasserstein1(ed.law(), ScaledNormalLaw(1.0, 0.03, 1.0)) < 0.01

    def test_horizon_guard(self, unit_law):
        # the closed form reads no grid node, so a short grid serves any T
        rg = solve_renewal_density(unit_law, h=0.005, horizon=5.0)
        z = np.linspace(-1.0, 1.0, 201)
        for T in (8.0, 200.0):
            ed = tracking_error_density(ModelParams(1.0, 1.0), rg, T, z)
            assert np.max(np.abs(ed.grid.f - brute_force_error_density(1.0, T, z))) < 1e-13

    def test_triangle_far_past_the_image_cap(self, renewal_grid):
        # v = 1e6 needs about 8 000 image terms, past MAX_TERMS; the spectral
        # series is the triangle there, and the atom has decayed to 0
        z = np.linspace(-1.0, 1.0, 1001)
        params = ModelParams(1.0, 1.0)
        ed = tracking_error_density(params, renewal_grid, 1e6, z)
        np.testing.assert_array_equal(ed.grid.f, triangular_pdf(z))
        conv = convolution_term(params, renewal_grid, 1e6, z)
        np.testing.assert_array_equal(conv, triangular_pdf(z))
        with pytest.raises(NoConvergenceError):
            _error_density_images(np.full(z.shape, 1e6), np.abs(z))

    @pytest.mark.parametrize("sigma", [1.0, 1.7, 0.3])
    def test_images_below_switch_bit_for_bit(self, sigma):
        law = FirstPassageLaw(ModelParams(sigma, 1.0))
        rg = solve_renewal_density(law, h=0.005, horizon=20.0)
        z = np.linspace(-1.0, 1.0, 401)
        za = np.abs(z)
        for T in np.array([0.01, 0.1, 0.25, 0.49]) / sigma**2:
            v = sigma * sigma * T  # as convolution_term forms it
            assert v < SWITCH_V
            ed = tracking_error_density(ModelParams(sigma, 1.0), rg, T, z)
            f_z = _error_density_images(np.full(z.shape, v), za)
            atom = absorbed_density(ModelParams(sigma, 1.0), T, z)
            conv = np.maximum(f_z - atom, 0.0)
            np.testing.assert_array_equal(ed.grid.f, atom + conv)
            np.testing.assert_array_equal(ed.convolution, conv)
            np.testing.assert_array_equal(convolution_term(ModelParams(sigma, 1.0), rg, T, z), conv)

    def test_rejects_grid_of_another_sigma(self, renewal_grid):
        params = ModelParams(1.7, 1.0)
        with pytest.raises(InvalidDomainError):
            convolution_term(params, renewal_grid, 0.5, np.linspace(-1.0, 1.0, 21))
        with pytest.raises(InvalidDomainError):
            tracking_error_density(params, renewal_grid, 0.5)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, 2e-311])
    def test_rejects_unit_time_below_the_normal_doubles(self, renewal_grid, t):
        # 1 / (2 v) overflows below v of about 2.8e-309, and the image series
        # multiplies by it; v = 2.3e-308 still evaluates, finite and warning-free
        params = ModelParams(1.0, 1.0)
        with pytest.raises(InvalidDomainError, match="sigma\\^2 t / eta\\^2"):
            tracking_error_density(params, renewal_grid, t)
        ed = tracking_error_density(params, renewal_grid, 2.3e-308)
        assert np.isfinite(ed.grid.f).all()

    @pytest.mark.parametrize("sigma", [1.0, 1.7])
    def test_matches_quadrature_convolution(self, sigma):
        law = FirstPassageLaw(ModelParams(sigma, 1.0))
        rg = solve_renewal_density(law, h=0.0025, horizon=10.5)
        p1 = ModelParams(sigma, 1.0)
        z = np.linspace(-1.0, 1.0, 21)
        for T in (0.5, 2.0, 10.0):
            oracle = quadrature_convolution(sigma, rg, T, z)
            assert np.max(np.abs(convolution_term(p1, rg, T, z) - oracle)) < 1e-6

    def test_uses_rescaled_time(self, renewal_grid):
        # same t/eta^2 must give the same normalized density
        a = tracking_error_density(ModelParams(1.0, 0.5), renewal_grid, 0.5)
        b = tracking_error_density(ModelParams(1.0, 1.0), renewal_grid, 2.0)
        assert np.max(np.abs(a.grid.f - b.grid.f)) < 1e-9


class TestSpectralDuals:
    V = np.linspace(0.1, 4.0, 79)

    def test_renewal_dual_matches_images(self):
        gap = np.abs(_renewal_spectral(self.V) - _renewal_images(self.V))
        assert np.max(gap) < 2e-14

    def test_error_density_dual_matches_images(self):
        za = np.linspace(0.0, 1.0, 401)
        for v in self.V:
            vv = np.full(za.shape, v)
            gap = np.abs(_error_density_spectral(vv, za) - _error_density_images(vv, za))
            assert np.max(gap) < 2e-14, v


class TestKeyRenewalConvergence:
    def test_gap_decreases_and_vanishes(self, renewal_grid):
        z = np.linspace(-1.0, 1.0, 401)
        tri = triangular_pdf(z)
        p1 = ModelParams(1.0, 1.0)
        gaps = []
        for T in (1.0, 2.0, 5.0):
            conv = convolution_term(p1, renewal_grid, T, z)
            gaps.append(float(np.max(np.abs(conv - tri))))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 5e-3


class TestLimitReport:
    def test_asymptotic_point(self, renewal_grid):
        rep = triangular_limit_check(ModelParams(1.0, 0.1), 0.5, rg=renewal_grid)
        assert rep.t_rescaled == pytest.approx(50.0)
        assert rep.asymptotic
        assert rep.d_wasserstein < 1e-3
        assert rep.atom_max <= rep.atom_bound
        assert rep.mass == pytest.approx(1.0, abs=1e-6)

    def test_non_asymptotic_point_flagged(self, renewal_grid):
        rep = triangular_limit_check(ModelParams(1.0, 1.0), 0.01, rg=renewal_grid)
        assert not rep.asymptotic
        assert rep.d_wasserstein > 0.2

    def test_bound_constants(self, renewal_grid):
        rep = triangular_limit_check(ModelParams(1.0, 0.5), 0.5, rg=renewal_grid)
        assert rep.atom_bound == pytest.approx(4.0 * 0.25 / (3.0 * 0.5))
        assert rep.atom_bound_unit_time == pytest.approx(4.0 * 0.25 / 3.0)
