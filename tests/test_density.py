import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from scipy.special import ndtr

from exitgrid import (
    FirstPassageLaw,
    InvalidDomainError,
    ModelParams,
    NoConvergenceError,
    ToleranceNotMetError,
    absorbed_density,
)
from exitgrid.density import _check_space, _images, _spectral
from exitgrid.params import MAX_TERMS, SWITCH_V, TERM_TOL

P11 = ModelParams(1.0, 1.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Reference: the physical-unit series, which took sigma and eta into every
# term.  The unit-band kernels must equal them bit for bit at sigma = eta = 1
# and stay within the truncation tolerance elsewhere.


def reference_spectral(params: ModelParams, t, x) -> float | np.ndarray:
    """Sine/exponential series for the absorbed density, valid for t > 0."""
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0 and np.ndim(x) == 0
    if np.any(t <= 0.0):
        raise InvalidDomainError("spectral series needs t > 0")
    xa = _check_space(x, params.eta)
    t, xa = np.broadcast_arrays(t, xa)

    eta = params.eta
    lam = (math.pi * params.sigma / (2.0 * eta)) ** 2 / 2.0  # rate: exp(-lam k^2 t)
    tmin = float(np.min(t))

    total = np.zeros(t.shape)
    arg = math.pi * (xa + eta) / (2.0 * eta)
    used = 0
    k = 1
    sign = 1.0
    while True:
        bound = math.exp(-lam * k * k * tmin) / eta
        if bound < TERM_TOL:
            break
        if used >= MAX_TERMS:
            raise NoConvergenceError(
                f"spectral series: {MAX_TERMS} terms, tail bound {bound:.3e}"
            )
        total += sign * np.exp(-lam * k * k * t) * np.sin(k * arg)
        used += 1
        sign = -sign
        k += 2  # even terms vanish
    total /= eta
    np.maximum(total, 0.0, out=total)
    total[xa == eta] = 0.0  # sine factor vanishes identically on the barrier
    return float(total) if scalar else total


def reference_images(params: ModelParams, t, x):
    """Gaussian image series for the absorbed density, valid for t >= 0."""
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0 and np.ndim(x) == 0
    if np.any(t < 0.0):
        raise InvalidDomainError("image series needs t >= 0")
    xa = _check_space(x, params.eta)
    t, xa = np.broadcast_arrays(t, xa)

    zero_t = t == 0.0
    if np.any(zero_t & (xa == 0.0)):
        raise InvalidDomainError("t = 0 with x = 0 is the unit point mass, not a density value")
    if np.all(zero_t):
        out = np.zeros(t.shape)
        return float(out) if scalar else out

    eta, sigma = params.eta, params.sigma
    tp = t[~zero_t]
    xp = xa[~zero_t]
    var = sigma * sigma * tp
    varmax = float(np.max(var))
    varmin = float(np.min(var))
    norm_max = 1.0 / math.sqrt(2.0 * math.pi * varmin)

    # k = 0 images: centers 0 and 2*eta
    acc = np.exp(-(xp**2) / (2.0 * var)) - np.exp(-((xp - 2.0 * eta) ** 2) / (2.0 * var))
    used = 1
    k = 1
    while True:
        d = (4.0 * k - 2.0) * eta  # closest image distance for |x| <= eta
        bound = 4.0 * norm_max * math.exp(-(d * d) / (2.0 * varmax))
        if bound < TERM_TOL:
            break
        if used + 2 > MAX_TERMS:
            raise NoConvergenceError(
                f"image series: {MAX_TERMS} terms, tail bound {bound:.3e}"
            )
        c = 4.0 * k * eta
        acc += np.exp(-((xp - c) ** 2) / (2.0 * var))
        acc += np.exp(-((xp + c) ** 2) / (2.0 * var))
        acc -= np.exp(-((xp - 2.0 * eta + c) ** 2) / (2.0 * var))
        acc -= np.exp(-((xp - 2.0 * eta - c) ** 2) / (2.0 * var))
        used += 2
        k += 1
    acc /= np.sqrt(2.0 * math.pi * var)
    np.maximum(acc, 0.0, out=acc)

    out = np.zeros(t.shape)
    out[~zero_t] = acc
    return float(out) if scalar else out


def reference_density(params: ModelParams, t, x) -> np.ndarray:
    """The physical-unit dispatch: images below ``SWITCH_V``, spectral above."""
    t, xa = np.broadcast_arrays(np.atleast_1d(np.asarray(t, dtype=float)),
                                np.atleast_1d(_check_space(x, params.eta)))
    ratio = params.sigma**2 / params.eta**2
    out = np.empty(t.shape)
    small = t * ratio < SWITCH_V
    if np.any(small):
        out[small] = reference_images(params, t[small], xa[small])
    if np.any(~small):
        out[~small] = reference_spectral(params, t[~small], xa[~small])
    return out


def unit(v, xi):
    """Arguments of a unit-band kernel: 1-D float arrays of a common shape."""
    return np.broadcast_arrays(np.atleast_1d(np.asarray(v, dtype=float)),
                               np.atleast_1d(np.asarray(xi, dtype=float)))


# ---------------------------------------------------------------------------
# Oracle for the time integral: quadrature of the density plus closed forms of
# the image series near t = 0 and a spectral tail bound.


def _gauss_time_integral(h: float, c: float, sigma: float) -> float:
    """Closed form of ``int_0^h exp(-c^2/(2 sigma^2 u)) / sqrt(2 pi sigma^2 u) du``."""
    if h <= 0.0:
        return 0.0
    if c == 0.0:
        return 2.0 * math.sqrt(h) / (sigma * _SQRT_2PI)
    w = abs(c) / (sigma * math.sqrt(h))
    if w > 8.3:
        # value < 2|c|/sigma^2 * phi(w)/w^3, below double noise for our uses
        return 0.0
    phi = math.exp(-0.5 * w * w) / _SQRT_2PI
    return (2.0 * abs(c) / sigma**2) * (phi / w - ndtr(-w))


def small_time_density_integral(params: ModelParams, h: float, x) -> float | np.ndarray:
    """``int_0^h p(u, x) du`` via term-by-term closed forms of the image series.

    Accurate for ``h`` well below ``eta^2/sigma^2``; image pairs beyond the
    first few are super-exponentially small there.
    """
    xs = np.atleast_1d(_check_space(x, params.eta))
    eta, sigma = params.eta, params.sigma
    out = np.zeros(xs.shape)
    for i, xi in enumerate(xs):
        acc = _gauss_time_integral(h, xi, sigma) - _gauss_time_integral(h, xi - 2.0 * eta, sigma)
        for k in range(1, 6):
            c = 4.0 * k * eta
            inc = (
                _gauss_time_integral(h, xi - c, sigma)
                + _gauss_time_integral(h, xi + c, sigma)
                - _gauss_time_integral(h, xi - 2.0 * eta + c, sigma)
                - _gauss_time_integral(h, xi - 2.0 * eta - c, sigma)
            )
            acc += inc
            if abs(inc) < 1e-18:
                break
        out[i] = max(acc, 0.0)
    return float(out[0]) if np.ndim(x) == 0 else out


def integrate_density_over_time(
    params: ModelParams,
    x: float = 0.0,
    t_max: float | None = None,
    quad_tol: float = 1e-8,
) -> float:
    """Numerical ``int_0^inf p(t, x) dt``.

    Split as closed-form piece on ``[0, eps]`` (the integrand vanishes
    super-exponentially there for x != 0, and behaves like ``1/sqrt(t)`` at
    x = 0), adaptive quadrature on ``[eps, t_max]``, and a spectral tail
    bound beyond ``t_max`` kept below ``quad_tol/4``.
    """
    xa = float(_check_space(x, params.eta))
    eta, sigma = params.eta, params.sigma
    if xa >= eta:
        return 0.0  # density vanishes on the barrier for every t

    lam = (math.pi * sigma / (2.0 * eta)) ** 2 / 2.0
    tail_coeff = 4.0 * eta / (3.0 * sigma**2)
    if t_max is None:
        t_max = math.log(4.0 * tail_coeff / quad_tol) / lam
    tail_bound = tail_coeff * math.exp(-lam * t_max)
    if tail_bound > quad_tol / 2.0:
        raise ToleranceNotMetError(
            f"t_max={t_max} leaves a spectral tail bound {tail_bound:.3e} > quad_tol/2"
        )

    eps = 0.005 * params.timescale
    head = small_time_density_integral(params, eps, xa)

    pts = [p for p in (xa**2 / sigma**2, params.timescale) if eps < p < t_max]
    body, err = quad(
        lambda tt: absorbed_density(params, tt, xa),
        eps,
        t_max,
        points=pts or None,
        epsabs=quad_tol / 2.0,
        epsrel=1e-12,
        limit=300,
    )
    if err > quad_tol:
        raise ToleranceNotMetError(f"quadrature error estimate {err:.3e} > {quad_tol:.3e}")
    return head + body


class TestRepresentations:
    @pytest.mark.parametrize("sigma,eta", [(1.0, 1.0), (1.0, 0.5), (2.0, 1.5)])
    def test_agreement_on_grid(self, sigma, eta):
        # the two series must agree far below the acceptance tolerance; the
        # unit-band kernels see v = sigma^2 t / eta^2 and xi = |x| / eta
        params = ModelParams(sigma, eta)
        scale = params.timescale
        ts = np.geomspace(1e-3 * scale, 1e2 * scale, 50)
        xs = np.linspace(-eta, eta, 41)
        for t in ts:
            args = unit(sigma**2 * t / eta**2, np.abs(xs) / eta)
            a = _spectral(*args) / eta
            b = _images(*args) / eta
            assert np.max(np.abs(a - b)) < 1e-10

    def test_point_value_small_time(self):
        # k = 0 image dominates; images at +-2 contribute ~exp(-200)
        v = _images(*unit(0.01, 0.0))[0]
        assert v == pytest.approx(1.0 / math.sqrt(2 * math.pi * 0.01), abs=1e-12)

    def test_vanishes_on_barrier(self):
        for t in (0.01, 0.5, 3.0, 50.0):
            assert _spectral(*unit(t, 1.0))[0] == 0.0
            assert abs(_images(*unit(t, 1.0))[0]) < 1e-13

    def test_large_time_bound(self):
        v = _spectral(*unit(10.0, 0.0))[0]
        assert 0.0 < v < 4.0 / 3.0
        assert v == pytest.approx(_images(*unit(10.0, 0.0))[0], abs=1e-10)

    def test_symmetry_exact(self):
        xs = np.linspace(0.0, 1.0, 11)
        for t in (0.05, 0.7, 4.0):
            left = absorbed_density(P11, t, -xs)
            right = absorbed_density(P11, t, xs)
            np.testing.assert_array_equal(left, right)

    def test_value_alone_equals_value_in_batch(self):
        # the spectral series always sums its leading mode, so a point keeps
        # it even where it is below TERM_TOL, alone or beside smaller times
        alone = absorbed_density(P11, 30.0, 0.3)
        assert alone == absorbed_density(P11, np.array([1.0, 30.0]), 0.3)[1]
        lead = math.exp(-(math.pi**2) / 8.0 * 30.0) * math.sin(1.3 * math.pi / 2.0)
        assert alone == pytest.approx(lead, rel=1e-12)

    def test_monotone_decreasing_in_t_at_origin(self):
        # each spectral term at x = 0 decreases in t, so the sum must too
        ts = np.linspace(0.5, 40.0, 200)
        vals = absorbed_density(P11, ts, 0.0)
        assert np.all(np.diff(vals) < 0)


class TestDispatcher:
    def test_branch_values(self):
        assert absorbed_density(P11, 0.001, 0.0) == pytest.approx(
            12.615662610100797, abs=1e-10
        )
        assert absorbed_density(P11, 100.0, 0.0) < 1e-10

    def test_continuity_at_switch(self):
        # representation handover must be invisible at the boundary
        tsw = SWITCH_V
        for x in (0.0, 0.3, 0.9):
            below = absorbed_density(P11, tsw * (1 - 1e-12), x)
            above = absorbed_density(P11, tsw * (1 + 1e-12), x)
            assert below == pytest.approx(above, abs=1e-10)

    def test_atom_corner_rejected(self):
        with pytest.raises(InvalidDomainError, match="unit point mass"):
            absorbed_density(P11, 0.0, 0.0)
        with pytest.raises(InvalidDomainError, match="unit point mass"):
            reference_images(P11, 0.0, 0.0)
        assert absorbed_density(P11, 0.0, 0.4) == 0.0

    def test_atom_inside_array_rejected(self):
        with pytest.raises(InvalidDomainError):
            absorbed_density(P11, np.array([0.0, 1.0]), np.array([0.0, 0.0]))

    @given(
        sigma=st.floats(0.3, 3.0),
        eta=st.floats(0.3, 3.0),
        u=st.floats(0.01, 20.0),
        zfrac=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_scaling_relation(self, sigma, eta, u, zfrac):
        # p with threshold eta equals the unit-threshold density in rescaled
        # time, divided by eta
        p_eta = ModelParams(sigma, eta)
        p_one = ModelParams(sigma, 1.0)
        t = u * eta**2
        x = zfrac * eta
        lhs = absorbed_density(p_eta, t, x)
        rhs = absorbed_density(p_one, u, zfrac) / eta
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    def test_spatial_normalization_matches_survival(self, unit_law):
        # integral over the band equals the no-exit probability
        for t in (0.1, 0.5, 1.0, 2.0):
            total, _ = quad(
                lambda x: absorbed_density(P11, t, x),
                -1.0,
                1.0,
                epsabs=1e-11,
                limit=200,
            )
            assert total == pytest.approx(unit_law.survival(t), abs=1e-8)


class TestUnitBand:
    @pytest.mark.parametrize(
        "sigma,eta", [(1.0, 1.0), (1.0, 0.5), (2.0, 1.5), (1.7, 2.0), (0.3, 0.02)]
    )
    def test_matches_physical_reference(self, sigma, eta):
        # the parent's physical-unit series; bit for bit at sigma = eta = 1 and
        # sigma = 1, eta = 0.5 (v = 4 t exactly), else within 1e-13 of 1/eta
        params = ModelParams(sigma, eta)
        ts = np.geomspace(1e-3 * params.timescale, 1e2 * params.timescale, 60)
        t, x = (a.ravel() for a in np.meshgrid(ts, np.linspace(-eta, eta, 41)))
        got = absorbed_density(params, t, x)
        ref = reference_density(params, t, x)
        if sigma == 1.0:
            np.testing.assert_array_equal(got, ref)
        assert np.max(np.abs(got - ref)) * eta < 1e-13

    @given(
        log_eta=st.floats(-150.0, 150.0),
        log_sigma=st.floats(-2.0, 2.0),
        v=st.floats(0.01, 50.0),
        xi=st.floats(-0.99, 0.99),
    )
    @settings(max_examples=80, deadline=None)
    def test_scaling_to_unit_band(self, log_eta, log_sigma, v, xi):
        # every law depends on eta only through v = sigma^2 t / eta^2 and
        # xi = x / eta: eta p(t, x) = p1(v, xi), S(t) = S1(v) and
        # (eta^2 / sigma^2) f(t) = f1(v), at thresholds far outside the range
        # where sigma^2 / eta^2 is a double
        eta, sigma = 10.0**log_eta, 10.0**log_sigma
        params = ModelParams(sigma, eta)
        t = v * (eta / sigma) ** 2
        # v and sigma^2 t / eta^2 may round to either side of a term cut-off,
        # so the two sums may differ by one term below TERM_TOL
        tol = {"rel": 1e-12, "abs": 2.0 * TERM_TOL}
        p = absorbed_density(params, t, xi * eta)
        assert eta * p == pytest.approx(absorbed_density(P11, v, xi), **tol)
        law, law1 = FirstPassageLaw(params), FirstPassageLaw(P11)
        assert law.survival(t) == pytest.approx(law1.survival(v), **tol)
        f = law.density(t)
        assert f * (eta / sigma) ** 2 == pytest.approx(law1.density(v), **tol)


class TestErrors:
    def test_domain_checks(self):
        with pytest.raises(InvalidDomainError):
            absorbed_density(P11, -1.0, 0.0)
        with pytest.raises(InvalidDomainError):
            absorbed_density(P11, 1.0, 1.5)


class TestTimeIntegral:
    @pytest.mark.parametrize("x", [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0, -0.6])
    def test_triangular_profile_unit(self, x):
        v = integrate_density_over_time(P11, x)
        assert v == pytest.approx(max(1.0 - abs(x), 0.0), abs=1e-6)

    def test_triangular_profile_scaled(self):
        # with threshold eta the integral is eta*(1 - |x|/eta)/sigma^2
        params = ModelParams(2.0, 2.0)
        v = integrate_density_over_time(params, 1.0)
        assert v == pytest.approx(2.0 * 0.5 / 4.0, abs=1e-6)

    def test_small_time_piece_matches_quadrature(self):
        eps = 0.005
        for x in (0.0, 0.2, 0.8):
            head = small_time_density_integral(P11, eps, x)
            ref, _ = quad(
                lambda t: absorbed_density(P11, t, x),
                1e-12,
                eps,
                epsabs=1e-12,
                limit=300,
            )
            assert head == pytest.approx(ref, abs=5e-9)
