import functools
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
    PathConfig,
    ToleranceNotMetError,
    generate_path,
)
from exitgrid._normal import ndtr as exitgrid_ndtr
from exitgrid.params import MAX_TERMS, SWITCH_V, TERM_TOL
from exitgrid.path_sim import _CHUNK, _extend

# ---------------------------------------------------------------------------
# Reference: the physical-unit series of the exit-time law, which took sigma
# and eta into every term, with their dispatch on sigma^2 t / eta^2.


def _ref_survival_images(params: ModelParams, t: np.ndarray, ndtr=ndtr) -> np.ndarray:
    eta, sigma = params.eta, params.sigma
    out = np.ones(t.shape)
    pos = t > 0.0
    if not np.any(pos):
        return out
    s = sigma * np.sqrt(t[pos])
    smax = float(np.max(s))

    def band(center: float) -> np.ndarray:
        # integral of the Gaussian image at `center` over [-eta, eta]
        return ndtr((eta - center) / s) - ndtr((-eta - center) / s)

    acc = band(0.0) - band(2.0 * eta)
    k = 1
    while True:
        bound = 4.0 * ndtr(-(4.0 * k - 3.0) * eta / smax)
        if bound < TERM_TOL:
            break
        if k > MAX_TERMS:
            raise NoConvergenceError("survival image series hit its term cap")
        acc += band(4.0 * k * eta) - band(2.0 * eta - 4.0 * k * eta)
        acc += band(-4.0 * k * eta) - band(2.0 * eta + 4.0 * k * eta)
        k += 1
    out[pos] = acc
    return out


def _ref_survival_spectral(params: ModelParams, t: np.ndarray) -> np.ndarray:
    eta, sigma = params.eta, params.sigma
    mu = (math.pi * sigma) ** 2 / (8.0 * eta**2)
    tmin = float(np.min(t))
    acc = np.zeros(t.shape)
    j = 0
    while True:
        k = 2 * j + 1
        bound = (4.0 / (math.pi * k)) * math.exp(-mu * k * k * tmin)
        if bound < TERM_TOL:
            break
        if j > MAX_TERMS:
            raise NoConvergenceError("survival spectral series hit its term cap")
        acc += ((-1.0) ** j / k) * np.exp(-mu * k * k * t)
        j += 1
    return (4.0 / math.pi) * acc


def _ref_density_images(params: ModelParams, t: np.ndarray) -> np.ndarray:
    eta, sigma = params.eta, params.sigma
    var = sigma * sigma * t
    # below this every exponential underflows to an exact zero while the
    # t^(-3/2) prefactor may overflow; the product is identically 0
    live = var >= eta * eta / 1500.0
    if not np.all(live):
        out = np.zeros(t.shape)
        if np.any(live):
            out[live] = _ref_density_images(params, t[live])
        return out
    pref = 1.0 / (2.0 * t * np.sqrt(2.0 * math.pi * var))
    prefmax = float(np.max(pref))
    varmax = float(np.max(var))

    def kterm(k: int) -> np.ndarray:
        a = (1.0 - 4.0 * k) * eta
        b = (1.0 + 4.0 * k) * eta
        c = (3.0 - 4.0 * k) * eta
        return (
            2.0 * a * np.exp(-(a * a) / (2.0 * var))
            + b * np.exp(-(b * b) / (2.0 * var))
            - c * np.exp(-(c * c) / (2.0 * var))
        )

    acc = kterm(0)
    k = 1
    while True:
        d = (4.0 * k - 3.0) * eta
        bound = 16.0 * (k + 1.0) * eta * prefmax * math.exp(-(d * d) / (2.0 * varmax))
        if bound < TERM_TOL:
            break
        if 2 * k > MAX_TERMS:
            raise NoConvergenceError("exit-density image series hit its term cap")
        acc += kterm(k) + kterm(-k)
        k += 1
    return pref * acc


def _ref_density_spectral(params: ModelParams, t: np.ndarray) -> np.ndarray:
    eta, sigma = params.eta, params.sigma
    mu = (math.pi * sigma) ** 2 / (8.0 * eta**2)
    lead = math.pi * sigma**2 / (2.0 * eta**2)
    tmin = float(np.min(t))
    acc = np.zeros(t.shape)
    j = 0
    while True:
        k = 2 * j + 1
        bound = lead * k * math.exp(-mu * k * k * tmin)
        if bound < TERM_TOL:
            break
        if j > MAX_TERMS:
            raise NoConvergenceError("exit-density spectral series hit its term cap")
        acc += ((-1.0) ** j * k) * np.exp(-mu * k * k * t)
        j += 1
    return lead * acc


def _ref_dispatch(params, t, images, spectral) -> np.ndarray:
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(tt.shape)
    ratio = params.sigma**2 / params.eta**2
    small = tt * ratio < SWITCH_V
    if np.any(small):
        out[small] = images(params, tt[small])
    if np.any(~small):
        out[~small] = spectral(params, tt[~small])
    return out


def reference_survival(params: ModelParams, t, ndtr=ndtr) -> np.ndarray:
    images = functools.partial(_ref_survival_images, ndtr=ndtr)
    out = _ref_dispatch(params, t, images, _ref_survival_spectral)
    return np.clip(out, 0.0, 1.0)


def reference_exit_density(params: ModelParams, t) -> np.ndarray:
    out = _ref_dispatch(params, t, _ref_density_images, _ref_density_spectral)
    return np.maximum(out, 0.0)


def bisection_quantile(law: FirstPassageLaw, p, tol=None):
    """The inverse CDF by bracketed bisection, to |t - t*| < tol: the former
    ``FirstPassageLaw.quantile``, kept as the oracle of the Newton iteration."""
    p = np.asarray(p, dtype=float)
    scalar = p.ndim == 0
    pp = np.atleast_1d(p)
    if tol is None:
        tol = 1e-10 * law.params.timescale

    lo = np.zeros(pp.shape)
    hi = np.full(pp.shape, 8.0 * law.params.timescale)
    for _ in range(64):
        need = 1.0 - law.survival(hi) < pp
        if not np.any(need):
            break
        hi[need] *= 2.0
    else:
        raise ToleranceNotMetError("quantile bracket did not cover p")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = 1.0 - law.survival(mid) < pp
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if float(np.max(hi - lo)) < tol:
            break
    else:
        raise ToleranceNotMetError("quantile bisection hit its iteration cap")
    q = 0.5 * (lo + hi)
    return float(q[0]) if scalar else q.reshape(p.shape)


@pytest.fixture(scope="module")
def law():
    return FirstPassageLaw(ModelParams(1.0, 1.0))


class TestSurvival:
    def test_boundary_values(self, law):
        assert law.survival(0.0) == 1.0
        assert law.survival(100.0) < 1e-10
        ts = np.linspace(0.0, 10.0, 400)
        s = law.survival(ts)
        assert np.all(np.diff(s) <= 0)
        assert np.all((s >= 0.0) & (s <= 1.0))

    def test_mean_via_survival_integral(self, law):
        # E[tau] = integral of the survival function
        val, _ = quad(law.survival, 0.0, 40.0, limit=300)
        assert val == pytest.approx(1.0, abs=1e-6)

    @given(sigma=st.floats(0.3, 3.0), eta=st.floats(0.3, 3.0), u=st.floats(0.0, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_scaling_law(self, sigma, eta, u):
        base = FirstPassageLaw(ModelParams(sigma, 1.0))
        scaled = FirstPassageLaw(ModelParams(sigma, eta))
        assert scaled.survival(u * eta**2) == pytest.approx(base.survival(u), abs=1e-10)

    def test_threshold_two_is_time_scaled_by_four(self, law):
        wide = FirstPassageLaw(ModelParams(1.0, 2.0))
        for t in (0.1, 0.8, 3.0, 9.0):
            assert wide.survival(t) == pytest.approx(law.survival(t / 4.0), abs=1e-12)

    def test_branch_continuity(self, law):
        tsw = SWITCH_V
        assert law.survival(tsw * (1 - 1e-12)) == pytest.approx(
            law.survival(tsw * (1 + 1e-12)), abs=1e-12
        )

    def test_negative_time_rejected(self, law):
        with pytest.raises(InvalidDomainError):
            law.survival(-0.1)

    @pytest.mark.parametrize("t", [26.4, 30.0, 50.0])
    def test_value_alone_equals_value_in_batch(self, law, t):
        # the spectral series always sums its leading mode, so a point keeps
        # it even where it is below TERM_TOL, alone or beside smaller times
        assert law.survival(t) == law.survival(np.array([1.0, t]))[1] > 0.0
        assert law.density(t) == law.density(np.array([1.0, t]))[1] > 0.0


class TestDensity:
    def test_normalization(self, law):
        val, _ = quad(law.density, 1e-9, 40.0, limit=400)
        assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize(
        "sigma,eta,expected", [(1.0, 1.0, 1.0), (1.0, 2.0, 4.0), (2.0, 1.0, 0.25)]
    )
    def test_mean(self, sigma, eta, expected):
        fp = FirstPassageLaw(ModelParams(sigma, eta))
        assert fp.mean() == expected
        val, _ = quad(lambda t: t * fp.density(t), 1e-9, 50.0 * fp.mean(), limit=400)
        assert val == pytest.approx(expected, abs=1e-6)

    def test_matches_negative_survival_derivative(self, law):
        # central finite differences of the survival function are the oracle
        ts = np.linspace(0.05, 5.0, 250)
        d = 1e-5
        fd = (law.survival(ts - d) - law.survival(ts + d)) / (2.0 * d)
        assert np.max(np.abs(fd - law.density(ts))) < 1e-6

    def test_survival_plus_cdf_integral(self, law):
        for t in (0.2, 1.0, 3.0):
            mass, _ = quad(law.density, 1e-9, t, limit=300)
            assert law.survival(t) + mass == pytest.approx(1.0, abs=1e-7)

    def test_bounded_and_nonnegative(self, law):
        ts = np.geomspace(1e-3, 20.0, 4000)
        f = law.density(ts)
        assert np.all(f >= 0.0)
        assert np.isfinite(f).all()
        assert f.max() < 2.0  # peak is ~1.06 at t ~ 0.4 for the unit band

    def test_rejects_nonpositive_time(self, law):
        with pytest.raises(InvalidDomainError):
            law.density(0.0)


class TestUnitBand:
    @pytest.mark.parametrize(
        "sigma,eta", [(1.0, 1.0), (1.0, 0.5), (2.0, 1.5), (1.7, 2.0), (0.3, 0.02)]
    )
    def test_matches_physical_reference(self, sigma, eta):
        # the parent's physical-unit series; bit for bit at sigma = eta = 1,
        # else within 1e-13 of the natural scales 1 and sigma^2 / eta^2
        params = ModelParams(sigma, eta)
        law = FirstPassageLaw(params)
        ts = np.geomspace(1e-4 * params.timescale, 50.0 * params.timescale, 2000)
        surv = law.survival(np.concatenate(([0.0], ts)))
        surv_ref = reference_survival(params, np.concatenate(([0.0], ts)))
        dens = law.density(ts)
        dens_ref = reference_exit_density(params, ts)
        if sigma == eta == 1.0:
            # bit for bit given the same normal CDF; exitgrid's, from
            # math.erfc, may differ from scipy's in the last bits
            same_cdf = reference_survival(params, np.concatenate(([0.0], ts)), ndtr=exitgrid_ndtr)
            np.testing.assert_array_equal(surv, same_cdf)
            np.testing.assert_array_equal(dens, dens_ref)
        assert np.max(np.abs(surv - surv_ref)) < 1e-13
        assert np.max(np.abs(dens - dens_ref)) * params.timescale < 1e-13


class TestQuantileAndSampling:
    def test_monotone_quantiles(self, law):
        q = law.quantile(np.array([0.1, 0.5, 0.9]))
        assert q[0] < q[1] < q[2]

    def test_inverse_property(self, law):
        q = law.quantile(0.5)
        assert 1.0 - law.survival(q) == pytest.approx(0.5, abs=1e-9)

    def test_quantile_scaling(self, law):
        wide = FirstPassageLaw(ModelParams(1.0, 2.0))
        for p in (0.2, 0.5, 0.8):
            assert wide.quantile(p) == pytest.approx(4.0 * law.quantile(p), abs=1e-8)

    def test_invalid_p(self, law):
        for p in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(InvalidDomainError):
                law.quantile(p)

    @pytest.mark.parametrize("sigma,far_is_finite", [(3e-154, True), (2.2e-154, False)])
    def test_quantiles_near_the_double_range(self, law, sigma, far_is_finite):
        # time scales 1.1e307 and 2.1e307: the iteration runs in unit time, so
        # a quantile is the unit-band one scaled once, and only a quantile
        # that is itself past the double range fails, as a typed error; p =
        # 0.999999 sits at unit time 11.4, which is 1.27e308 at the first
        # scale and 2.35e308 at the second
        wide = FirstPassageLaw(ModelParams(sigma, 1.0))
        scale = wide.params.timescale
        for p in [0.5, 0.99] + [0.999999] * far_is_finite:
            q = wide.quantile(p)
            assert q == law.quantile(p) * scale
            assert wide.cdf(q * (1.0 - 1e-9)) < p <= wide.cdf(q * (1.0 + 1e-9))
        for p in [1.0 - 1e-16] + [0.999999] * (not far_is_finite):
            with pytest.raises(InvalidDomainError, match="time scale .* past the double range"):
                wide.quantile(p)
        with pytest.raises(InvalidDomainError, match="past the double range"):
            wide.quantile(np.array([0.5, 1.0 - 1e-16]))

    def test_tolerance_cap(self, law):
        with pytest.raises(ToleranceNotMetError):
            law.quantile(0.5, tol=1e-300)

    @pytest.mark.parametrize("sigma,eta", [(1.0, 0.5), (1.7, 2.0), (1.0, 1.0), (0.3, 2.0)])
    def test_matches_bisection(self, sigma, eta):
        law = FirstPassageLaw(ModelParams(sigma, eta))
        tol = 1e-10 * law.params.timescale
        ps = np.linspace(0.01, 0.99, 99)
        assert np.max(np.abs(law.quantile(ps) - bisection_quantile(law, ps))) < tol
        # the clip points of `sample`, where F = 1 - survival is flat to rounding
        for p in (1e-300, 1.0 - 1e-16):
            assert abs(law.quantile(p) - bisection_quantile(law, p)) < tol

    def test_far_tail_quantile_follows_the_leading_mode(self, law):
        # F = 1 - S reaches p = 1 - 2^-53 where S falls to 1.5 * 2^-53 (above
        # it 1 - S rounds below p), and there S is its leading spectral mode
        # (4/pi) exp(-pi^2 v / 8); without that mode F would reach 1 at the
        # truncation edge near 26.33
        p = 1.0 - 1e-16
        v = math.log(4.0 / (math.pi * 1.5 * 2.0**-53)) / (math.pi**2 / 8.0)
        q = law.quantile(p)
        assert q == pytest.approx(v, abs=1e-10)
        assert law.quantile(np.array([0.99, p]))[1] == q

    @given(sigma=st.floats(0.1, 10.0), eta=st.floats(0.01, 10.0), p=st.floats(1e-6, 1.0 - 1e-6))
    @settings(max_examples=200, deadline=None)
    def test_brackets_the_quantile(self, sigma, eta, p):
        law = FirstPassageLaw(ModelParams(sigma, eta))
        tol = 1e-10 * law.params.timescale
        q = law.quantile(p)
        assert law.cdf(q - tol) < p <= law.cdf(q + tol)

    def test_sampling_statistics(self, law):
        rng = np.random.default_rng(2024)
        n = 100000
        s = law.sample(rng, n)
        assert np.all(s > 0.0)
        # E[tau] = 1, Var(tau) = 2/3 for the unit band
        se = np.sqrt(2.0 / 3.0 / n)
        assert abs(s.mean() - 1.0) < 3.0 * se
        # Kolmogorov-Smirnov against the analytic CDF at the 1% level
        s_sorted = np.sort(s)
        cdf = 1.0 - law.survival(s_sorted)
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / n)))
        assert ks < 1.63 / np.sqrt(n)


def grid_hits(cfg: PathConfig, paths, block: int = 500):
    """First grid time with ``|x| >= eta`` of each path (nan if none), on generate_path's stream.

    ``eta`` is the batch's one threshold.

    Paths are drawn in blocks, ``_CHUNK`` steps at a time through ``_extend``
    from the carry at each chunk start, and a path is no longer drawn once it
    has touched.
    """
    (eta,) = cfg.etas
    scale = cfg.sigma * math.sqrt(cfg.dt)
    hits = np.full(len(paths), np.nan)
    for b0 in range(0, len(paths), block):
        live = np.arange(b0, min(b0 + block, len(paths)))
        rngs = [np.random.default_rng([cfg.seed, paths[i]]) for i in live]
        carry = np.full(live.size, -0.0)  # see generate_path
        done = 0
        while live.size and done < cfg.n_steps:
            n = min(_CHUNK, cfg.n_steps - done)
            rows = np.empty((live.size, n + 1))
            _extend(rngs, rows, n, scale, carry, np.zeros(live.size))
            touched = np.abs(rows[:, 1:]) >= eta
            hit = touched.any(axis=1)
            hits[live[hit]] = (done + 1 + touched[hit].argmax(axis=1)) * cfg.dt
            live, carry = live[~hit], rows[~hit, n]
            rngs = [rng for rng, h in zip(rngs, hit) if not h]
            done += n
    return hits


class TestAgainstSimulation:
    def test_grid_hits_are_generate_path_hits(self):
        cfg = PathConfig(sigma=1.0, etas=(0.5,), t_eval=(0.4,), n_steps=160000, n_paths=4000,
                         seed=7)
        paths = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584]
        want = np.full(len(paths), np.nan)
        for j, i in enumerate(paths):
            touched = np.abs(generate_path(cfg, i)) >= 0.5
            if touched.any():
                want[j] = touched.argmax() * cfg.dt
        got = grid_hits(cfg, paths, block=7)
        assert np.isnan(want).any() and not np.isnan(want).all()
        assert got.tobytes() == want.tobytes()

    def test_median_matches_grid_hitting_times(self):
        # grid detection is slightly late (first-touch at grid points), so the
        # simulated median may exceed the analytic one by the resolution bias
        eta = 0.5
        law = FirstPassageLaw(ModelParams(1.0, eta))
        cfg = PathConfig(sigma=1.0, etas=(eta,), t_eval=(0.4,), n_steps=160000, n_paths=4000,
                         seed=7)
        # the first detection is the first grid point with |x| >= eta
        hits = grid_hits(cfg, range(cfg.n_paths))
        # paths that never crossed count as +inf; the median is still
        # identified as long as most paths crossed
        assert np.isnan(hits).mean() < 0.3
        med_sim = float(np.median(np.where(np.isnan(hits), np.inf, hits)))
        med_ana = law.quantile(0.5)
        assert med_sim >= med_ana * 0.99
        assert abs(med_sim - med_ana) / med_ana < 0.02
