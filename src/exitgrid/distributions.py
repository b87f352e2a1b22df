"""Reference laws, empirical samples, Gaussian KDE and the Wasserstein-1 metric.

The distance used throughout is ``d_W(F, G) = int |F(x) - G(x)| dx``.  For an
empirical distribution against a smooth law it is computed by exact piecewise
integration between consecutive sample points (closed-form CDF
antiderivatives), for two empirical distributions by the classic merge over
the pooled sample, and for two laws exactly: by Simpson's rule between the
roots of ``F - G`` when both CDFs are piecewise quadratic, otherwise from
their CDF antiderivatives between the sign changes of ``F - G``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._normal import ndtr, ndtri
from .errors import (
    DegenerateSampleError,
    InvalidDomainError,
    UnboundedIntegralError,
)

__all__ = [
    "DensityGrid",
    "EmpiricalSample",
    "GridLaw",
    "KdeResult",
    "ScaledNormalLaw",
    "TriangularLaw",
    "kde",
    "triangular_cdf",
    "triangular_pdf",
    "triangular_quantile",
    "wasserstein1",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# containers


@dataclass(frozen=True)
class DensityGrid:
    """Tabulated density: uniform strictly-increasing abscissae and values >= 0."""

    x: np.ndarray
    f: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        f = np.asarray(self.f, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "f", f)
        if x.ndim != 1 or x.size < 2 or f.shape != x.shape:
            raise InvalidDomainError("grid needs matching 1-d x and f with >= 2 points")
        dx = np.diff(x)
        if np.any(dx <= 0) or not np.allclose(dx, dx[0], rtol=1e-9, atol=0.0):
            raise InvalidDomainError("grid abscissae must be uniform and increasing")
        if np.any(f < -1e-12) or not np.all(np.isfinite(f)):
            raise InvalidDomainError("grid values must be finite and >= 0")

    @property
    def spacing(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def mass(self) -> float:
        """Trapezoid mass of the tabulated density."""
        return float(np.trapezoid(self.f, self.x))


@dataclass(frozen=True)
class EmpiricalSample:
    """A sorted batch of real observations."""

    values: np.ndarray
    n: int = field(init=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float).ravel()
        if v.size == 0 or not np.all(np.isfinite(v)):
            raise InvalidDomainError("sample must be non-empty and finite")
        v = np.sort(v)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "n", int(v.size))

    def cdf(self, x) -> np.ndarray:
        return np.searchsorted(self.values, np.asarray(x, dtype=float), side="right") / self.n

    def mean(self) -> float:
        return float(np.mean(self.values))

    def variance(self) -> float:
        return float(np.var(self.values, ddof=1)) if self.n > 1 else 0.0


# ---------------------------------------------------------------------------
# reference laws
#
# Law objects expose: support() -> (lo, hi); breaks() -> the points where the
# CDF is not smooth; quadratic_cdf -> whether the CDF is a polynomial of degree
# <= 2 between breaks(), which then include both ends of the support; cdf(x);
# ppf(p); cdf_antideriv(x) = int_{-inf}^x F du (zero at -inf);
# sf_integral_upper(a) = int_a^inf (1 - F) du.  Both integrals are finite for
# every law here, which is what makes d_W integrable.


def triangular_pdf(z) -> float | np.ndarray:
    """Density (1 - |z|)^+ of the unit triangular law."""
    z = np.asarray(z, dtype=float)
    out = np.maximum(1.0 - np.abs(z), 0.0)
    return float(out) if out.ndim == 0 else out


def triangular_cdf(z) -> float | np.ndarray:
    z = np.asarray(z, dtype=float)
    zc = np.clip(z, -1.0, 1.0)
    out = np.where(zc <= 0.0, 0.5 * (1.0 + zc) ** 2, 1.0 - 0.5 * (1.0 - zc) ** 2)
    return float(out) if out.ndim == 0 else out


def triangular_quantile(p) -> float | np.ndarray:
    p = np.asarray(p, dtype=float)
    if np.any((p < 0.0) | (p > 1.0)):
        raise InvalidDomainError("quantile needs p in [0, 1]")
    out = np.where(p <= 0.5, np.sqrt(2.0 * p) - 1.0, 1.0 - np.sqrt(2.0 * (1.0 - p)))
    return float(out) if out.ndim == 0 else out


class TriangularLaw:
    """Triangular law on [-1, 1], the small-threshold limit of the scheme."""

    variance = 1.0 / 6.0
    quadratic_cdf = True

    def support(self):
        return (-1.0, 1.0)

    def breaks(self):
        return np.array([-1.0, 0.0, 1.0])

    def pdf(self, z):
        return triangular_pdf(z)

    def cdf(self, z):
        return triangular_cdf(z)

    def ppf(self, p):
        return triangular_quantile(p)

    def cdf_antideriv(self, z):
        z = np.asarray(z, dtype=float)
        zc = np.clip(z, -1.0, 1.0)
        low = (1.0 + zc) ** 3 / 6.0
        high = zc + (1.0 - zc) ** 3 / 6.0
        out = np.where(zc <= 0.0, low, high) + np.maximum(z - 1.0, 0.0)
        return float(out) if out.ndim == 0 else out

    def sf_integral_upper(self, a):
        # int_a^1 (1 - F) = V(a) - a inside the support; integrand is 1 below it
        a = np.asarray(a, dtype=float)
        ac = np.clip(a, -1.0, 1.0)
        out = (self.cdf_antideriv(ac) - ac) + np.maximum(-1.0 - a, 0.0)
        return float(out) if out.ndim == 0 else out


class ScaledNormalLaw:
    """Centred normal with sd = sigma*sqrt(t)/eta (kept untruncated)."""

    quadratic_cdf = False

    def __init__(self, sigma: float, t: float, eta: float):
        if sigma <= 0 or t <= 0 or eta <= 0:
            raise InvalidDomainError("scaled normal needs sigma, t, eta > 0")
        self.sd = sigma * math.sqrt(t) / eta
        if not 0.0 < self.sd < math.inf:
            raise InvalidDomainError(
                f"scaled normal sd = sigma sqrt(t) / eta = {self.sd} must be finite and > 0"
            )

    def support(self):
        return (-np.inf, np.inf)

    def breaks(self):
        return np.empty(0)

    def pdf(self, z):
        z = np.asarray(z, dtype=float)
        out = np.exp(-0.5 * (z / self.sd) ** 2) / (self.sd * _SQRT_2PI)
        return float(out) if out.ndim == 0 else out

    def cdf(self, z):
        z = np.asarray(z, dtype=float)
        out = ndtr(z / self.sd)
        return float(out) if out.ndim == 0 else out

    def ppf(self, p):
        p = np.asarray(p, dtype=float)
        out = self.sd * ndtri(p)
        return float(out) if out.ndim == 0 else out

    def cdf_antideriv(self, z):
        z = np.asarray(z, dtype=float)
        y = z / self.sd
        out = self.sd * (y * ndtr(y) + np.exp(-0.5 * y * y) / _SQRT_2PI)
        return float(out) if out.ndim == 0 else out

    def sf_integral_upper(self, a):
        a = np.asarray(a, dtype=float)
        y = a / self.sd
        out = self.sd * (np.exp(-0.5 * y * y) / _SQRT_2PI - y * ndtr(-y))
        return float(out) if out.ndim == 0 else out


class GridLaw:
    """Law backed by a tabulated density; CDF is its trapezoid cumulative.

    The tabulated mass is renormalized to 1 (the raw mass stays available as
    ``raw_mass``), and the CDF is treated as piecewise linear between knots,
    which is exact to O(spacing^2) of the underlying density.
    """

    quadratic_cdf = True

    def __init__(self, grid: DensityGrid):
        self.grid = grid
        self.raw_mass = grid.mass
        if self.raw_mass <= 0:
            raise DegenerateSampleError("grid holds no mass")
        dx = grid.spacing
        c = np.concatenate(([0.0], np.cumsum(0.5 * dx * (grid.f[1:] + grid.f[:-1]))))
        self._cdf_knots = np.minimum(c / self.raw_mass, 1.0)
        self._cdf_knots[-1] = 1.0
        self._x = grid.x
        # antiderivative of the piecewise-linear CDF at the knots
        v = np.concatenate(
            ([0.0], np.cumsum(0.5 * dx * (self._cdf_knots[1:] + self._cdf_knots[:-1])))
        )
        self._V_knots = v

    def support(self):
        return (float(self._x[0]), float(self._x[-1]))

    def breaks(self):
        return self._x

    def cdf(self, z):
        z = np.asarray(z, dtype=float)
        out = np.interp(z, self._x, self._cdf_knots, left=0.0, right=1.0)
        return float(out) if out.ndim == 0 else out

    def ppf(self, p):
        p = np.asarray(p, dtype=float)
        out = np.interp(p, self._cdf_knots, self._x)
        return float(out) if out.ndim == 0 else out

    def cdf_antideriv(self, z):
        z = np.asarray(z, dtype=float)
        zc = np.clip(z, self._x[0], self._x[-1])
        idx = np.clip(np.searchsorted(self._x, zc, side="right") - 1, 0, self._x.size - 2)
        x0 = self._x[idx]
        dz = zc - x0
        slope = (self._cdf_knots[idx + 1] - self._cdf_knots[idx]) / self.grid.spacing
        out = self._V_knots[idx] + self._cdf_knots[idx] * dz + 0.5 * slope * dz * dz
        out = out + np.maximum(z - self._x[-1], 0.0)
        return float(out) if out.ndim == 0 else out

    def sf_integral_upper(self, a):
        a = np.asarray(a, dtype=float)
        hi = self._x[-1]
        out = np.where(
            a >= hi,
            0.0,
            (hi - np.maximum(a, self._x[0]))
            - (self._V_knots[-1] - self.cdf_antideriv(np.maximum(a, self._x[0])))
            + np.maximum(self._x[0] - a, 0.0),
        )
        return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# kernel density estimation


@dataclass(frozen=True)
class KdeResult:
    """Gaussian-kernel estimate on a grid plus the bandwidth that produced it."""

    grid: DensityGrid
    bandwidth: float


def kde(sample: EmpiricalSample, x_grid) -> KdeResult:
    """Gaussian KDE with Silverman bandwidth 1.06 * sd * n^(-1/5)."""
    if sample.n < 2:
        raise InvalidDomainError("kde needs at least 2 observations")
    sd = float(np.std(sample.values, ddof=1))
    if sd == 0.0:
        raise DegenerateSampleError("sample has zero spread")
    h = 1.06 * sd * sample.n ** (-0.2)
    x_grid = np.asarray(x_grid, dtype=float)
    acc = np.zeros(x_grid.shape)
    for chunk in np.array_split(sample.values, max(1, sample.n // 4096)):
        acc += np.exp(-0.5 * ((x_grid[None, :] - chunk[:, None]) / h) ** 2).sum(axis=0)
    f = acc / (sample.n * h * _SQRT_2PI)
    return KdeResult(DensityGrid(x_grid, f), h)


# ---------------------------------------------------------------------------
# Wasserstein-1


def _w1_empirical_pair(a: EmpiricalSample, b: EmpiricalSample) -> float:
    pooled = np.sort(np.concatenate((a.values, b.values)))
    fa = np.searchsorted(a.values, pooled[:-1], side="right") / a.n
    fb = np.searchsorted(b.values, pooled[:-1], side="right") / b.n
    return float(np.sum(np.abs(fa - fb) * np.diff(pooled)))


def _w1_empirical_law(sample: EmpiricalSample, law) -> float:
    xs = sample.values
    n = sample.n
    v = law.cdf_antideriv(xs)  # at every sample point, once
    total = float(v[0])  # below the sample: |0 - F|
    total += float(law.sf_integral_upper(xs[-1]))  # above the sample: |1 - F|
    if n > 1:
        c = np.arange(1, n) / n
        left = xs[:-1]
        right = xs[1:]
        xstar = np.clip(law.ppf(c), left, right)
        v_l = v[:-1]
        v_s = law.cdf_antideriv(xstar)
        v_r = v[1:]
        below = np.abs(c * (xstar - left) - (v_s - v_l))  # F <= c on [left, x*]
        above = np.abs((v_r - v_s) - c * (right - xstar))
        total += float(np.sum(below + above))
    return total


def _finite_range(law, tail: float = 1e-14):
    lo, hi = law.support()
    if not math.isfinite(lo):
        lo = float(law.ppf(tail))
    if not math.isfinite(hi):
        hi = float(law.ppf(1.0 - tail))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UnboundedIntegralError("law has no usable quantile range")
    return lo, hi


def _distinct(x: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``x``, as ``np.unique`` gives them.

    ``np.unique`` imports ``numpy.ma`` on its first call, about 14 ms, a
    sixth of a short analytic run.
    """
    x = np.sort(x)
    keep = np.empty(x.size, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _w1_quadratic_pieces(f, g) -> float:
    """Exact ``int |F - G|`` for two laws whose CDFs are quadratics between breaks.

    On each piece between consecutive merged breaks ``D = F - G`` is the
    quadratic through its values at the ends and the midpoint.  Its roots
    split the piece into parts where ``D`` keeps one sign, and Simpson's
    rule, exact for a quadratic, integrates ``D`` on each part.  Only
    differences of CDF values enter, never differences of O(1)
    antiderivatives.  Outside the merged breaks both CDFs are 0 or both 1.
    """
    x = _distinct(np.concatenate((f.breaks(), g.breaks())))
    a, b = x[:-1], x[1:]
    m = 0.5 * (a + b)
    d0, dm, d1 = (f.cdf(t) - g.cdf(t) for t in (a, m, b))
    # D(a + s (b - a)) = d0 + c1 s + c2 s^2 for 0 <= s <= 1
    c1 = 4.0 * dm - 3.0 * d0 - d1
    c2 = 2.0 * (d0 + d1) - 4.0 * dm
    with np.errstate(divide="ignore", invalid="ignore"):
        # the stable pair of quadratic roots; NaN or inf where there is none
        q = -0.5 * (c1 + np.copysign(np.sqrt(c1 * c1 - 4.0 * c2 * d0), c1))
        roots = np.stack((q / c2, d0 / q), axis=1)
    roots = np.where((roots > 0.0) & (roots < 1.0), roots, 1.0)
    s = np.sort(np.column_stack((np.zeros(a.size), roots, np.ones(a.size))), axis=1)
    lo, hi = s[:, :-1], s[:, 1:]

    def d(t):
        return d0[:, None] + t * (c1[:, None] + t * c2[:, None])

    parts = (hi - lo) / 6.0 * np.abs(d(lo) + 4.0 * d(0.5 * (lo + hi)) + d(hi))
    return float(np.sum((b - a) * parts.sum(axis=1)))


def _w1_law_pair(f, g) -> float:
    """Exact ``int |F - G|`` from ``|V_F - V_G|`` increments between sign changes.

    Sign changes are bracketed on 4097 even probes plus both laws' CDF
    breakpoints, then bisected all at once; probes where ``F == G`` exactly
    count too.  Two sign changes closer than the probe spacing are missed.
    """
    lo1, hi1 = _finite_range(f)
    lo2, hi2 = _finite_range(g)
    lo, hi = min(lo1, lo2), max(hi1, hi2)
    knots = np.concatenate((f.breaks(), g.breaks()))
    inner = knots[(knots > lo) & (knots < hi)]
    xs = _distinct(np.concatenate((np.linspace(lo, hi, 4097), inner)))
    d = f.cdf(xs) - g.cdf(xs)
    sign = np.sign(d)
    i = np.flatnonzero(sign[:-1] * sign[1:] < 0.0)
    a, b, sa = xs[i], xs[i + 1], sign[i]
    for _ in range(60):
        m = 0.5 * (a + b)
        up = np.sign(f.cdf(m) - g.cdf(m)) == sa  # the sign change lies in [m, b]
        a, b = np.where(up, m, a), np.where(up, b, m)
    pts = _distinct(np.concatenate(([lo, hi], xs[d == 0.0], 0.5 * (a + b))))
    val = float(np.sum(np.abs(np.diff(f.cdf_antideriv(pts) - g.cdf_antideriv(pts)))))
    # tail pieces outside the quantile range; the CDFs do not cross out
    # there, so the absolute difference integrates in closed form
    val += abs(float(f.sf_integral_upper(hi)) - float(g.sf_integral_upper(hi)))
    val += abs(float(f.cdf_antideriv(lo)) - float(g.cdf_antideriv(lo)))
    return val


def wasserstein1(f, g) -> float:
    """``int |F - G|`` between two laws, empirical samples, or one of each."""
    fe = isinstance(f, EmpiricalSample)
    ge = isinstance(g, EmpiricalSample)
    if fe and ge:
        return _w1_empirical_pair(f, g)
    if fe:
        return _w1_empirical_law(f, g)
    if ge:
        return _w1_empirical_law(g, f)
    if f.quadratic_cdf and g.quadratic_cdf:
        return _w1_quadratic_pieces(f, g)
    return _w1_law_pair(f, g)
