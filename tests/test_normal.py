import warnings

import numpy as np
import pytest
from scipy import special

from exitgrid._normal import ndtr, ndtri

SQRT2 = np.sqrt(2.0)


def _quiet(fn, x):
    """``fn(x)`` with every floating-point warning an error (underflow aside)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return fn(x)


def _assert_close(ours, ref, rtol):
    # equal where the reference is 0, +-inf or nan, else within rtol; a
    # subnormal reference counts as the smallest normal double, whose ulp
    # is the subnormals' spacing
    plain = np.isfinite(ref) & (ref != 0.0)
    np.testing.assert_array_equal(ours[~plain], ref[~plain])
    scale = np.maximum(np.abs(ref[plain]), np.finfo(float).tiny)
    assert np.max(np.abs(ours[plain] - ref[plain]) / scale, initial=0.0) <= rtol


class TestNdtr:
    def test_matches_scipy_on_millions_of_points(self):
        rng = np.random.default_rng(20240)
        for _ in range(4):
            x = np.concatenate((rng.uniform(-40.0, 40.0, 400_000), rng.uniform(-3.0, 3.0, 100_000)))
            ours, ref = _quiet(ndtr, x), special.ndtr(x)
            inner = np.abs(x) < SQRT2
            # only + - * / there: the same doubles
            np.testing.assert_array_equal(ours[inner], ref[inner])
            # elsewhere numpy's exp may differ from the C library's in the last bits
            _assert_close(ours[~inner], ref[~inner], 1e-14)

    def test_extremes(self):
        x = np.array([np.nan, np.inf, -np.inf, 1e308, -1e308, -0.0, 0.0, 5e-324, -5e-324,
                      26.64, -26.64, 37.5, -37.5, -37.6, -38.0, 1.4142135623730951])
        np.testing.assert_array_equal(_quiet(ndtr, x), special.ndtr(x))

    def test_shapes_and_scalars(self):
        assert isinstance(ndtr(0.3), np.floating) and np.ndim(ndtr(0.3)) == 0
        assert ndtr(np.float64(0.0)) == 0.5
        assert ndtr(np.zeros((2, 3))).shape == (2, 3)
        assert ndtr(np.zeros(0)).shape == (0,)


class TestNdtri:
    def test_matches_scipy_on_millions_of_points(self):
        rng = np.random.default_rng(20241)
        p = np.concatenate((
            rng.uniform(0.0, 1.0, 800_000),
            10.0 ** rng.uniform(-300.0, 0.0, 800_000),
            1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 400_000),
        ))
        p = p[(p >= 1e-300) & (p <= 1.0 - 1e-16)]
        _assert_close(_quiet(ndtri, p), special.ndtri(p), 1e-14)

    @pytest.mark.parametrize("p", [0.0, -0.0, 1.0, -0.1, 1.1, np.nan, np.inf, -np.inf, 5e-324,
                                   1e-300, 0.5, 1.0 - 1e-16])
    def test_extremes(self, p):
        np.testing.assert_array_equal(_quiet(ndtri, p), special.ndtri(p))

    def test_shapes_and_scalars(self):
        assert isinstance(ndtri(0.3), np.floating) and np.ndim(ndtri(0.3)) == 0
        assert ndtri(np.full((2, 3), 0.5)).shape == (2, 3)
        assert ndtri(np.zeros(0)).shape == (0,)

    def test_inverts_ndtr(self):
        p = np.linspace(0.001, 0.999, 999)
        np.testing.assert_allclose(ndtr(ndtri(p)), p, rtol=1e-14)
