"""Renewal density of the detection epochs and the tracking-error density.

Working in rescaled time ``u = t / eta^2`` reduces every threshold to the
unit-band law (Brownian scaling), so one renewal grid per ``sigma`` serves
all thresholds.  The unit-band exit time has Laplace transform ``1 / cosh b``
with ``b = sqrt(2 s) / sigma``, so the renewal density ``m = f + f * m`` has
transform ``1 / (cosh b - 1) = 2 sum_n n exp(-n b)``.  Inverting term by term
gives the image series

    m(u) = 2 / (sigma sqrt(2 pi) u^{3/2}) sum_{n>=1} n^2 exp(-n^2 / (2 sigma^2 u)).

The density of the normalized tracking error at time ``t`` is

    f_Z(z) = p1(T, z) + int_0^T p1(T - v, z) m(v) dv,        T = t / eta^2,

where ``p1`` is the absorbed density for a unit band.  The first summand is
the atom of ``T - (last detection time)`` at ``T`` (no detection yet).  The
killed Green's function times ``1 + m_hat`` is
``sinh(b (1 - |z|)) / (sigma^2 b (cosh b - 1))``, which inverts to

    f_Z(z) = sum_{n>=1} n [phi_v(n - 1 + |z|) - phi_v(n + 1 - |z|)],   v = sigma^2 T,

with ``phi_v`` the centred normal density of variance ``v``.  As T grows the
integral converges to the triangular profile ``(1 - |z|)^+``.  Both series
need about ``sqrt(v)`` terms, so past ``SeriesConfig.max_terms`` (very large
``T``) they raise ``NoConvergenceError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import absorbed_density
from .distributions import DensityGrid, GridLaw, TriangularLaw, wasserstein1
from .errors import (
    HorizonTooShortError,
    InvalidDomainError,
    NoConvergenceError,
    ToleranceNotMetError,
)
from .first_passage import FirstPassageLaw
from .params import DEFAULT_SERIES, ModelParams, SeriesConfig

__all__ = [
    "ErrorDensity",
    "RenewalGrid",
    "TriangularLimitReport",
    "convolution_term",
    "solve_renewal_density",
    "tracking_error_density",
    "triangular_limit_check",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_MAX_NODES = 10**7  # ceiling on renewal grid nodes: 80 MB per tabulated array


@dataclass(frozen=True)
class RenewalGrid:
    """Renewal density tabulated on a uniform grid in rescaled time."""

    h: float
    values: np.ndarray
    horizon: float
    sigma: float

    @property
    def times(self) -> np.ndarray:
        return self.h * np.arange(self.values.size)


def _renewal_series(sigma: float, u: np.ndarray, cfg: SeriesConfig) -> np.ndarray:
    """Image series for ``m(u)`` at positive ``u``, summed one term at a time.

    As a function of ``u``, term ``n`` peaks at ``u = n^2 / (3 sigma^2)``, and
    at fixed ``u`` the terms fall in ``n`` once ``n^2 > 2 sigma^2 u``.  So from
    ``n^2 >= 3 sigma^2 max(u)`` on, the value at ``max(u)`` bounds the term
    everywhere and decreases in ``n``: summing stops at the first such ``n``
    whose bound is below ``cfg.term_tol``.
    """
    umax = float(np.max(u))
    vmax = sigma * sigma * umax
    coeff = 2.0 / (sigma * _SQRT_2PI * umax**1.5)

    def needed(n: int) -> bool:
        if n * n < 3.0 * vmax:
            return True
        return coeff * n * n * math.exp(-n * n / (2.0 * vmax)) >= cfg.term_tol

    if needed(cfg.max_terms + 1):
        raise NoConvergenceError(
            f"renewal series: more than {cfg.max_terms} terms at u = {umax:.4g}"
        )
    inv2v = 0.5 / (sigma * sigma * u)
    acc = np.zeros(u.shape)
    n = 1
    while needed(n):
        acc += n * n * np.exp(-n * n * inv2v)
        n += 1
    return 2.0 * acc / (sigma * _SQRT_2PI * u**1.5)


def _error_density_series(
    sigma: float, T: float, za: np.ndarray, cfg: SeriesConfig
) -> np.ndarray:
    """Image series for ``f_Z(T, z)`` at ``za = |z|``, summed one term at a time.

    Term ``n`` lies in ``[0, n phi_v(n - 1)]``, a bound that decreases in ``n``
    once ``n (n - 1) > v``; summing stops at the first such ``n`` whose bound
    is below ``cfg.term_tol``.
    """
    v = sigma * sigma * T
    norm = 1.0 / math.sqrt(2.0 * math.pi * v)

    def needed(n: int) -> bool:
        if n * (n - 1) <= v:
            return True
        return n * norm * math.exp(-((n - 1) ** 2) / (2.0 * v)) >= cfg.term_tol

    if needed(cfg.max_terms + 1):
        raise NoConvergenceError(
            f"error-density series: more than {cfg.max_terms} terms at T = {T:.4g}"
        )
    inv2v = 0.5 / v
    acc = np.zeros(za.shape)
    n = 1
    while needed(n):
        near = np.exp(-((n - 1.0 + za) ** 2) * inv2v)
        far = np.exp(-((n + 1.0 - za) ** 2) * inv2v)
        acc += n * (near - far)
        n += 1
    return norm * acc


def solve_renewal_density(
    law: FirstPassageLaw,
    h: float = 0.005,
    horizon: float = 50.0,
) -> RenewalGrid:
    """Tabulate the renewal density ``m`` of a unit-band law at ``h * arange(n + 1)``.

    ``law`` must be a unit-band (eta = 1) law: the grid is in rescaled time.
    ``n = round(horizon / h)``; ``m(0) = 0`` and every other node comes from
    the closed-form image series, truncated by ``law.cfg``.  ``horizon / h``
    above ``_MAX_NODES`` (10**7) raises ``InvalidDomainError`` before any
    allocation.
    """
    if law.params.eta != 1.0:
        raise InvalidDomainError("renewal grid is built in rescaled time; pass an eta=1 law")
    if not (0.0 < h < math.inf and 0.0 < horizon < math.inf):
        raise InvalidDomainError("h and horizon must be positive and finite")
    if not horizon / h <= _MAX_NODES:  # also catches horizon / h == inf
        raise InvalidDomainError(
            f"horizon / h = {horizon / h:.3g} grid nodes, more than {_MAX_NODES}"
        )
    if horizon < law.mean():
        raise InvalidDomainError("horizon shorter than one mean inter-detection time")

    sigma = law.params.sigma
    n = max(1, int(round(horizon / h)))
    m = np.zeros(n + 1)
    m[1:] = _renewal_series(sigma, h * np.arange(1, n + 1), law.cfg)
    return RenewalGrid(h=h, values=m, horizon=n * h, sigma=sigma)


def convolution_term(
    params: ModelParams,
    rg: RenewalGrid,
    t: float,
    z_grid,
    cfg: SeriesConfig = DEFAULT_SERIES,
) -> np.ndarray:
    """``int_0^T p1(T - v, z) m(v) dv`` for each z, with ``T = t / eta^2``.

    Evaluated as the closed-form ``f_Z`` minus the atom ``p1(T, z)``, clipped
    at 0.  ``rg`` must belong to ``params.sigma`` and reach ``T``.
    """
    sigma = params.sigma
    T = t / params.eta**2
    if T <= 0.0:
        raise InvalidDomainError("need t > 0")
    if rg.sigma != sigma:
        raise InvalidDomainError(f"renewal grid has sigma={rg.sigma}, params have sigma={sigma}")
    if rg.horizon < T - 1e-9:
        raise HorizonTooShortError(f"renewal horizon {rg.horizon} < rescaled time {T}")
    z_grid = np.asarray(z_grid, dtype=float)
    if np.any(np.abs(z_grid) > 1.0 + 1e-12):
        raise InvalidDomainError("z grid must lie in [-1, 1]")

    za = np.minimum(np.abs(z_grid), 1.0)
    f_z = _error_density_series(sigma, T, za, cfg)
    atom = absorbed_density(ModelParams(sigma, 1.0), cfg, T, za)
    return np.maximum(f_z - atom, 0.0)


@dataclass(frozen=True)
class ErrorDensity:
    """Analytic density of the normalized tracking error on a z grid."""

    grid: DensityGrid
    t_rescaled: float

    @property
    def mass(self) -> float:
        return self.grid.mass

    def law(self) -> GridLaw:
        return GridLaw(self.grid)


def tracking_error_density(
    params: ModelParams,
    rg: RenewalGrid,
    t: float,
    z_grid=None,
    cfg: SeriesConfig = DEFAULT_SERIES,
) -> ErrorDensity:
    """Analytic density of ``(X_t - last anchor) / eta`` on ``[-1, 1]``."""
    if z_grid is None:
        z_grid = np.linspace(-1.0, 1.0, 1001)
    z_grid = np.asarray(z_grid, dtype=float)
    T = t / params.eta**2
    atom = absorbed_density(ModelParams(params.sigma, 1.0), cfg, T, z_grid)
    conv = convolution_term(params, rg, t, z_grid, cfg)
    return ErrorDensity(DensityGrid(z_grid, np.asarray(atom) + conv), T)


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
    rg: RenewalGrid | None = None,
    cfg: SeriesConfig = DEFAULT_SERIES,
    z_grid=None,
) -> TriangularLimitReport:
    """Compare the analytic error density at time ``t`` to ``(1 - |z|)^+``."""
    if z_grid is None:
        z_grid = np.linspace(-1.0, 1.0, 1001)
    T = t / params.eta**2
    if rg is None:
        law1 = FirstPassageLaw(ModelParams(params.sigma, 1.0), cfg)
        rg = solve_renewal_density(law1, horizon=max(20.0, 1.05 * T))
    ed = tracking_error_density(params, rg, t, z_grid, cfg)

    atom = np.asarray(absorbed_density(ModelParams(params.sigma, 1.0), cfg, T, z_grid))
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
