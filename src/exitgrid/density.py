"""Transition density of the Wiener process absorbed at two symmetric barriers.

The process ``X_t = sigma * W_t`` started at 0 and killed on first touch of
``-eta`` or ``+eta`` has a sub-probability transition density ``p(t, x)`` on
``[-eta, eta]``.  Two classical series represent it:

* a spectral (sine/exponential) series that converges fast for large
  ``sigma^2 t / eta^2``;
* a Gaussian image series (method of images) that converges fast for small
  ``sigma^2 t / eta^2``.

Both are evaluated here with controlled truncation, plus the time integral
``int_0^inf p(t, x) dt``, which for a unit barrier equals the triangular
profile ``(1 - |x|)^+ / sigma^2``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from .errors import InvalidDomainError, NoConvergenceError, ToleranceNotMetError
from .params import DEFAULT_SERIES, ModelParams, SeriesConfig

__all__ = [
    "ATOM",
    "absorbed_density",
    "absorbed_density_images",
    "absorbed_density_spectral",
    "integrate_density_over_time",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class _Atom:
    """Marker for the unit point mass of ``p`` at ``t = 0, x = 0``.

    Returned instead of an infinity so that numeric callers are forced to
    treat the atom analytically rather than propagate ``inf``.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "ATOM"


ATOM = _Atom()


def _check_space(x, eta: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > eta * (1.0 + 1e-12)):
        raise InvalidDomainError(f"position outside [-eta, eta] with eta={eta}")
    # the density is even in x, so evaluate at |x|; this also makes the
    # truncated image sums exactly symmetric
    return np.minimum(np.abs(x), eta)


def absorbed_density_spectral(
    params: ModelParams, cfg: SeriesConfig, t, x
) -> float | np.ndarray:
    """Sine/exponential series for the absorbed density, valid for t > 0.

    Truncated once the magnitude bound of the next term (its exponential
    factor; the sine factors are at most 1) falls below ``cfg.term_tol``.
    """
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
        if bound < cfg.term_tol:
            break
        if used >= cfg.max_terms:
            raise NoConvergenceError(
                f"spectral series: {cfg.max_terms} terms, tail bound {bound:.3e}"
            )
        total += sign * np.exp(-lam * k * k * t) * np.sin(k * arg)
        used += 1
        sign = -sign
        k += 2  # even terms vanish
    total /= eta
    np.maximum(total, 0.0, out=total)
    total[xa == eta] = 0.0  # sine factor vanishes identically on the barrier
    return float(total) if scalar else total


def absorbed_density_images(
    params: ModelParams, cfg: SeriesConfig, t, x
) -> float | np.ndarray | _Atom:
    """Gaussian image series for the absorbed density, valid for t >= 0.

    At ``t = 0`` the value is 0 for ``x != 0``; the point mass at the origin
    is signalled with ``ATOM`` (scalar calls only).
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0 and np.ndim(x) == 0
    if np.any(t < 0.0):
        raise InvalidDomainError("image series needs t >= 0")
    xa = _check_space(x, params.eta)
    t, xa = np.broadcast_arrays(t, xa)

    zero_t = t == 0.0
    if np.any(zero_t & (xa == 0.0)):
        if scalar:
            return ATOM
        raise InvalidDomainError(
            "t = 0 with x = 0 inside an array; the atom must be handled separately"
        )
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
        if bound < cfg.term_tol:
            break
        if used + 2 > cfg.max_terms:
            raise NoConvergenceError(
                f"image series: {cfg.max_terms} terms, tail bound {bound:.3e}"
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


def absorbed_density(
    params: ModelParams, cfg: SeriesConfig = DEFAULT_SERIES, t=0.0, x=0.0
) -> float | np.ndarray | _Atom:
    """Absorbed-process density, dispatching to the faster representation.

    The image form is used when ``sigma^2 t / eta^2 < cfg.switch_ratio`` and
    the spectral form otherwise.  Returns ``ATOM`` for the scalar corner
    ``t = 0, x = 0``.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise InvalidDomainError("density needs t >= 0")
    xa = _check_space(x, params.eta)
    scalar = t.ndim == 0 and xa.ndim == 0
    if scalar and t == 0.0 and xa == 0.0:
        return ATOM
    t, xa = np.broadcast_arrays(np.atleast_1d(t), np.atleast_1d(xa))
    ratio = params.sigma**2 / params.eta**2

    out = np.empty(t.shape)
    small = t * ratio < cfg.switch_ratio
    if np.any(small):
        out[small] = absorbed_density_images(params, cfg, t[small], xa[small])
    if np.any(~small):
        out[~small] = absorbed_density_spectral(params, cfg, t[~small], xa[~small])
    return float(out[0]) if scalar else out


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
    cfg: SeriesConfig = DEFAULT_SERIES,
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
    from scipy.integrate import quad  # the package's only quad; kept off the import path
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
        lambda tt: absorbed_density(params, cfg, tt, xa),
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
