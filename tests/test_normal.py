import math
import warnings
from statistics import NormalDist

import mpmath
import numpy as np
import pytest

from exitgrid._normal import ndtr, ndtri

EPS = np.finfo(float).eps
TINY = mpmath.mpf(np.finfo(float).tiny)


def _quiet(fn, x):
    """``fn(x)`` with every floating-point warning an error (underflow aside)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return fn(x)


def _rel_err(ours, ref):
    """``|ours - ref| / |ref|`` in 40-digit arithmetic; a reference below the
    smallest normal double counts as that double, so a subnormal result is
    judged by its absolute error."""
    with mpmath.workdps(40):
        return np.array([
            float(abs(mpmath.mpf(float(o)) - r) / max(abs(r), TINY)) for o, r in zip(ours, ref)
        ])


def _elementwise(fn, x):
    """``fn`` applied to each double of ``x`` through ``np.frompyfunc``."""
    return np.asarray(np.frompyfunc(fn, 1, 1)(np.asarray(x, dtype=float)), dtype=float)[()]


def reference_ndtr(x):
    """The former ``ndtr``, one Python lambda call per element: the oracle of its bits."""
    return _elementwise(lambda a: 0.5 * math.erfc(-a * math.sqrt(0.5)), x)


def reference_ndtri(p):
    """The former ``ndtri``, edges set per element: the oracle of its bits."""
    def one(q):
        if math.isnan(q):
            return math.nan
        if 0.0 < q < 1.0:
            return NormalDist().inv_cdf(q)
        return {0.0: -math.inf, 1.0: math.inf}.get(q, math.nan)

    return _elementwise(one, p)


def assert_same_bits(got, want):
    """The same shape and type, nan where ``want`` is nan, and the same bits elsewhere."""
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def _mp_ndtr(x):
    with mpmath.workdps(40):
        return [mpmath.ncdf(mpmath.mpf(float(v))) for v in x]


class TestNdtr:
    def test_within_4_eps_x2_of_mpmath(self):
        # the argument x / sqrt 2 carries a relative rounding error of up to
        # eps, which moves Phi(x) by up to eps x^2 relative in the lower tail
        rng = np.random.default_rng(20240)
        x = np.concatenate((rng.uniform(-37.5, 40.0, 4000), rng.uniform(-3.0, 3.0, 2000),
                            rng.uniform(-37.5, -5.0, 2000)))
        err = _rel_err(_quiet(ndtr, x), _mp_ndtr(x))
        assert np.max(err / (EPS * np.maximum(1.0, x * x))) <= 4.0

    def test_deep_tail_is_subnormal(self):
        # below about -37.5 Phi(x) is subnormal, and then 0 below about -38.5
        x = np.linspace(-38.6, -37.5, 500)
        ours = _quiet(ndtr, x)
        err = _rel_err(ours, _mp_ndtr(x))
        assert np.max(err / (EPS * x * x)) <= 4.0
        assert np.all(np.diff(ours) >= 0.0)
        assert 0.0 < ndtr(-38.0) < np.finfo(float).tiny

    def test_extremes(self):
        # each is the correctly rounded value
        x = np.array([np.nan, np.inf, -np.inf, 1e308, -1e308, -0.0, 0.0, 5e-324, -5e-324,
                      26.64, -40.0])
        np.testing.assert_array_equal(
            _quiet(ndtr, x), [np.nan, 1.0, 0.0, 1.0, 0.0, 0.5, 0.5, 0.5, 0.5, 1.0, 0.0]
        )

    def test_shapes_and_scalars(self):
        assert isinstance(ndtr(0.3), np.floating) and np.ndim(ndtr(0.3)) == 0
        assert ndtr(np.float64(0.0)) == 0.5
        assert ndtr(np.zeros((2, 3))).shape == (2, 3)
        assert ndtr(np.zeros(0)).shape == (0,)


class TestNdtri:
    def test_within_4_eps_of_mpmath(self):
        rng = np.random.default_rng(20241)
        p = np.concatenate((
            rng.uniform(0.0, 1.0, 2500),
            10.0 ** rng.uniform(-300.0, 0.0, 2500),
            1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 2500),
            [5e-324, 1e-300, 1.0 - 1e-16],
        ))
        p = p[(p > 0.0) & (p < 1.0)]
        ours = _quiet(ndtri, p)
        ref = []
        with mpmath.workdps(40):
            for q, t in zip(p, ours):
                # Newton on the 40-digit CDF from our double: quadratic
                # convergence reaches the 40-digit root in a few steps
                q, t = mpmath.mpf(float(q)), mpmath.mpf(float(t))
                for _ in range(5):
                    t -= (mpmath.ncdf(t) - q) / mpmath.npdf(t)
                ref.append(t)
        assert np.max(_rel_err(ours, ref)) <= 4.0 * EPS

    @pytest.mark.parametrize(
        "p,q",
        [(0.0, -np.inf), (-0.0, -np.inf), (1.0, np.inf), (-0.1, np.nan), (1.1, np.nan),
         (-5e-324, np.nan), (1.0000000000000002, np.nan), (np.nan, np.nan), (np.inf, np.nan), (-np.inf, np.nan),
         (0.5, 0.0)],
    )
    def test_extremes(self, p, q):
        np.testing.assert_array_equal(_quiet(ndtri, p), q)

    def test_nan_after_many_finite_points(self):
        # once the interpreter has specialised a per-element comparison for
        # floats, comparing nan in it would raise the invalid flag
        out = _quiet(ndtri, np.concatenate((np.full(1000, 0.3), [np.nan, -0.1, np.nan])))
        assert np.isnan(out[-3:]).all()

    def test_shapes_and_scalars(self):
        assert isinstance(ndtri(0.3), np.floating) and np.ndim(ndtri(0.3)) == 0
        assert ndtri(np.full((2, 3), 0.5)).shape == (2, 3)
        assert ndtri(np.zeros(0)).shape == (0,)

    def test_inverts_ndtr(self):
        p = np.linspace(0.001, 0.999, 999)
        np.testing.assert_allclose(ndtr(ndtri(p)), p, rtol=1e-14)


class TestMatchesElementwiseForm:
    """Both functions map the C-level callables over the doubles; the bits are the former ones."""

    def test_ndtr(self):
        rng = np.random.default_rng(20242)
        x = np.concatenate((rng.standard_normal(20000) * 10.0, rng.uniform(-40.0, 40.0, 20000),
                            rng.standard_normal(200) * 1e-310,
                            [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308,
                             -38.0, -37.5, 26.64]))
        assert_same_bits(_quiet(ndtr, x), reference_ndtr(x))
        for v in (0.3, -0.0, np.nan, np.float64(-38.2), np.zeros((2, 3)), np.zeros(0)):
            assert_same_bits(ndtr(v), reference_ndtr(v))

    def test_ndtri(self):
        rng = np.random.default_rng(20243)
        p = np.concatenate((rng.uniform(0.0, 1.0, 20000), 10.0 ** rng.uniform(-323.0, 0.0, 10000),
                            1.0 - 10.0 ** rng.uniform(-17.0, 0.0, 10000),
                            [0.0, -0.0, 1.0, 0.5, -0.1, 1.1, 5e-324, -5e-324, 1.0000000000000002,
                             np.nan, np.inf, -np.inf]))
        assert_same_bits(_quiet(ndtri, p), reference_ndtri(p))
        for v in (0.3, 0.0, 1.0, -1.0, np.nan, np.full((2, 3), 0.25), np.zeros(0)):
            assert_same_bits(ndtri(v), reference_ndtri(v))
