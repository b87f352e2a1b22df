"""Renewal density of the detection epochs and the tracking-error density.

Working in rescaled time ``u = t / eta^2`` reduces every threshold to the
unit-band law (Brownian scaling), so one renewal grid per ``sigma`` serves
all thresholds.  The unit-band exit time has Laplace transform ``1 / cosh b``
with ``b = sqrt(2 s) / sigma``, so the renewal density ``m = f + f * m`` has
transform ``1 / (cosh b - 1) = 2 sum_n n exp(-n b)``.  Inverting term by term
gives the image series, through a kernel of ``v = sigma^2 u`` alone:

    m(u) = sigma^2 m1(sigma^2 u),
    m1(v) = 2 / (sqrt(2 pi) v^{3/2}) sum_{n>=1} n^2 exp(-n^2 / (2 v)).

The density of the normalized tracking error at time ``t`` is

    f_Z(z) = p1(T, z) + int_0^T p1(T - v, z) m(v) dv,        T = t / eta^2,

where ``p1`` is the absorbed density for a unit band.  The first summand is
the atom of ``T - (last detection time)`` at ``T`` (no detection yet).  The
killed Green's function times ``1 + m_hat`` is
``sinh(b (1 - |z|)) / (sigma^2 b (cosh b - 1))``, which inverts to

    f_Z(z) = sum_{n>=1} n [phi_v(n - 1 + |z|) - phi_v(n + 1 - |z|)],   v = sigma^2 T,

with ``phi_v`` the centred normal density of variance ``v``.  As T grows the
integral converges to the triangular profile ``(1 - |z|)^+``.

Both image series need about ``sqrt(v)`` terms, so each has a spectral dual
from the residues at the double poles ``-2 pi^2 k^2`` of its transform:

    m1(v)  = 1 + sum_{k>=1} (2 - 8 pi^2 k^2 v) exp(-2 pi^2 k^2 v),
    f_Z(z) = (1 - |z|) + sum_{k>=1} [4 pi k v sin(2 pi k |z|)
                                     + 2 (1 - |z|) cos(2 pi k |z|)] exp(-2 pi^2 k^2 v),

whose term count falls like ``1 / sqrt(v)``: five terms at ``v = 0.1``, two
(the limit and the slowest mode) from ``v = 0.5`` on and the limit alone
from ``v = 1.9`` on, where the images need 59 at ``v = 50``.  As for the
absorbed density, :func:`~exitgrid.params.evaluate` sends ``v < SWITCH_V``
to the image series and the rest to the dual, and each kernel takes its
term count from :func:`~exitgrid.params.series_terms`, so neither series
reaches ``MAX_TERMS`` at any ``v``.  Neither needs a horizon: the error
density is evaluated at any ``T`` without the tabulated ``m``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import absorbed_density
from .distributions import DensityGrid, GridLaw
from .errors import InvalidDomainError
from .first_passage import FirstPassageLaw
from .params import ModelParams, evaluate, series_terms

__all__ = [
    "ErrorDensity",
    "RenewalGrid",
    "convolution_term",
    "solve_renewal_density",
    "tracking_error_density",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_TWO_PI2 = 2.0 * math.pi**2  # decay rate of the slowest renewal mode
_MAX_NODES = 10**7  # ceiling on renewal grid nodes: 80 MB per tabulated array
_V_MIN = float(np.finfo(float).tiny)  # least unit time of f_Z: 1 / (2 v) is a double above it


@dataclass(frozen=True)
class RenewalGrid:
    """Renewal density tabulated on a uniform grid in rescaled time."""

    h: float
    values: np.ndarray
    sigma: float

    @property
    def times(self) -> np.ndarray:
        return self.h * np.arange(self.values.size)


def _renewal_images(v: np.ndarray) -> np.ndarray:
    """Image series for ``m1(v)`` at positive ``v``, summed one term at a time.

    As a function of ``v``, term ``n`` peaks at ``v = n^2 / 3``, and at fixed
    ``v`` the terms fall in ``n`` once ``n^2 > 2 v``.  So from
    ``n^2 >= 3 max(v)`` on, the value at ``max(v)`` bounds the term everywhere
    and decreases in ``n``; below that no bound is claimed.
    """
    out = np.zeros(v.shape)
    # below this every exponential underflows to an exact zero, while v^1.5
    # may underflow too and leave 0 / 0; the sum is identically 0
    live = v >= 1.0 / 1500.0
    if not np.any(live):
        return out
    v = v[live]
    vmax = float(np.max(v))
    coeff = 2.0 / (_SQRT_2PI * vmax**1.5)

    def bound(n: int) -> float:
        if n * n < 3.0 * vmax:
            return math.inf
        return coeff * n * n * math.exp(-n * n / (2.0 * vmax))

    n_terms = series_terms(bound, f"renewal image series at v = {vmax:.4g}")
    inv2v = 0.5 / v
    acc = np.zeros(v.shape)
    for n in range(1, n_terms):  # term 0 vanishes
        acc += n * n * np.exp(-n * n * inv2v)
    out[live] = 2.0 * acc / (_SQRT_2PI * v**1.5)
    return out


def _renewal_spectral(v: np.ndarray) -> np.ndarray:
    """Spectral series ``m1(v) = 1 + sum_{k>=1} (2 - 8 pi^2 k^2 v) exp(-2 pi^2 k^2 v)``.

    With ``x = 2 pi^2 k^2 v``, term ``k`` is at most ``(2 + 4 x) exp(-x)``,
    which falls in ``x`` once ``x > 1/2``: from there on, the value at
    ``min(v)`` bounds the term everywhere and decreases in ``k``.  The terms
    are formed in two buffers, in place.
    """
    vmin = float(np.min(v))

    def bound(k: int) -> float:
        x = _TWO_PI2 * k * k * vmin
        if x <= 0.5:
            return math.inf
        return (2.0 + 4.0 * x) * math.exp(-x)

    n_terms = series_terms(bound, f"renewal spectral series at v = {vmin:.4g}")
    out = np.ones(v.shape)
    decay = np.empty(v.shape)
    term = np.empty(v.shape)
    for k in range(1, n_terms):  # term 0 is the limit 1
        np.multiply(v, _TWO_PI2 * k * k, out=term)  # x
        np.negative(term, out=decay)
        np.exp(decay, out=decay)
        term *= -4.0
        term += 2.0
        term *= decay
        out += term
    return out


def _error_density_images(v: np.ndarray, za: np.ndarray) -> np.ndarray:
    """Image series for ``f_Z`` at ``v = sigma^2 T`` and ``za = |z|``, one term at a time.

    Term ``n`` lies in ``[0, n phi_v(n - 1)]``, a bound that decreases in ``n``
    once ``n (n - 1) > max(v)``; below that no bound is claimed.
    """
    vmax = float(np.max(v))
    norm_max = 1.0 / math.sqrt(2.0 * math.pi * float(np.min(v)))

    def bound(n: int) -> float:
        if n * (n - 1) <= vmax:
            return math.inf
        return n * norm_max * math.exp(-((n - 1) ** 2) / (2.0 * vmax))

    n_terms = series_terms(bound, f"error-density image series at v = {vmax:.4g}")
    inv2v = 0.5 / v
    acc = np.zeros(za.shape)
    for n in range(1, n_terms):  # term 0 vanishes
        near = np.exp(-((n - 1.0 + za) ** 2) * inv2v)
        far = np.exp(-((n + 1.0 - za) ** 2) * inv2v)
        acc += n * (near - far)
    return (1.0 / np.sqrt(2.0 * math.pi * v)) * acc


def _error_density_spectral(v: np.ndarray, za: np.ndarray) -> np.ndarray:
    """Spectral series for ``f_Z`` at ``v = sigma^2 T`` and ``za = |z|``.

    ``f_Z = (1 - za) + sum_{k>=1} [4 pi k v sin(2 pi k za) + 2 (1 - za)
    cos(2 pi k za)] exp(-2 pi^2 k^2 v)``, the residues at the double poles
    ``-2 pi^2 k^2`` of its Laplace transform.  Term ``k >= 1`` is at most
    ``(4 pi k v + 2) exp(-2 pi^2 k^2 v)``, which falls in both ``k`` and
    ``v``, so its value at ``min(v)`` bounds every later term.
    """
    vmin = float(np.min(v))

    def bound(k: int) -> float:
        return (4.0 * math.pi * k * vmin + 2.0) * math.exp(-_TWO_PI2 * k * k * vmin)

    n_terms = series_terms(bound, f"error-density spectral series at v = {vmin:.4g}")
    tri = 1.0 - za
    out = tri.copy()
    for k in range(1, n_terms):
        angle = (2.0 * math.pi * k) * za
        wave = (4.0 * math.pi * k) * v * np.sin(angle) + 2.0 * tri * np.cos(angle)
        out += wave * np.exp(-_TWO_PI2 * k * k * v)
    return out


def solve_renewal_density(
    law: FirstPassageLaw,
    h: float = 0.005,
    horizon: float = 50.0,
) -> RenewalGrid:
    """Tabulate the renewal density ``m`` of a unit-band law at ``h * arange(n + 1)``.

    ``law`` must be a unit-band (eta = 1) law: the grid is in rescaled time.
    ``n = round(horizon / h)``; ``m(0) = 0`` and every other node comes from
    the closed-form image series of ``m1``, so the truncation error of ``m``
    is about ``sigma^2 * TERM_TOL``.  Any horizon is served, also one shorter
    than the mean gap between detections.  ``horizon / h`` above
    ``_MAX_NODES`` (10**7) raises ``InvalidDomainError`` before any
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

    n = max(1, int(round(horizon / h)))
    m = np.zeros(n + 1)
    # m(u) = m1(v) dv/du with v = sigma^2 u
    v = law.params.unit_time(h * np.arange(1, n + 1))
    m1 = evaluate(_renewal_images, _renewal_spectral, v)
    m[1:] = law.params.unit_time(m1)
    return RenewalGrid(h=h, values=m, sigma=law.params.sigma)


def _error_density_and_atom(params: ModelParams, rg: RenewalGrid, t: float, z_grid):
    """``f_Z`` and the atom ``p1(T, z)`` on ``z_grid``, with ``T = t / eta^2``."""
    sigma = params.sigma
    T = t / params.eta**2
    v = sigma * sigma * T
    if not v >= _V_MIN:  # the image series multiplies by 1 / (2 v)
        raise InvalidDomainError(f"need sigma^2 t / eta^2 >= {_V_MIN:.4g}, got {v:.4g}")
    if rg.sigma != sigma:
        raise InvalidDomainError(f"renewal grid has sigma={rg.sigma}, params have sigma={sigma}")
    z_grid = np.asarray(z_grid, dtype=float)
    if np.any(np.abs(z_grid) > 1.0 + 1e-12):
        raise InvalidDomainError("z grid must lie in [-1, 1]")

    za = np.minimum(np.abs(z_grid), 1.0)
    f_z = evaluate(_error_density_images, _error_density_spectral, np.full(za.shape, v), za)
    atom = absorbed_density(ModelParams(sigma, 1.0), T, za)
    return f_z, atom


def convolution_term(
    params: ModelParams,
    rg: RenewalGrid,
    t: float,
    z_grid,
) -> np.ndarray:
    """``int_0^T p1(T - v, z) m(v) dv`` for each z, with ``T = t / eta^2``.

    Evaluated as the closed-form ``f_Z`` minus the atom ``p1(T, z)``, clipped
    at 0, for any ``T > 0``.  ``rg`` must belong to ``params.sigma``; its
    values are not read.
    """
    f_z, atom = _error_density_and_atom(params, rg, t, z_grid)
    return np.maximum(f_z - atom, 0.0)


@dataclass(frozen=True)
class ErrorDensity:
    """Analytic density of the normalized tracking error on a z grid.

    ``atom`` is the no-detection part ``p1(T, z)`` and ``convolution`` the
    renewal part, :func:`convolution_term`, on the same grid; ``grid.f`` is
    their sum.
    """

    grid: DensityGrid
    convolution: np.ndarray
    atom: np.ndarray

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
) -> ErrorDensity:
    """Analytic density of ``(X_t - last anchor) / eta`` on ``[-1, 1]``.

    The atom plus :func:`convolution_term`, from one evaluation of each.
    """
    if z_grid is None:
        z_grid = np.linspace(-1.0, 1.0, 1001)
    z_grid = np.asarray(z_grid, dtype=float)
    f_z, atom = _error_density_and_atom(params, rg, t, z_grid)
    conv = np.maximum(f_z - atom, 0.0)
    return ErrorDensity(DensityGrid(z_grid, atom + conv), conv, atom)
