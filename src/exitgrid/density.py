"""Transition density of the Wiener process absorbed at two symmetric barriers.

The process ``X_t = sigma * W_t`` started at 0 and killed on first touch of
``-eta`` or ``+eta`` has a sub-probability transition density ``p(t, x)`` on
``[-eta, eta]``.  By Brownian scaling ``p(t, x) = p1(v, xi) / eta``, where
``v = sigma^2 t / eta^2``, ``xi = x / eta`` and ``p1`` is the density of the
unit band (``sigma = eta = 1``).  Two classical series represent ``p1``:

* a spectral (sine/exponential) series that converges fast for large ``v``;
* a Gaussian image series (method of images) that converges fast for small
  ``v``.

Both are kernels of ``(v, xi)`` alone, truncated by explicit next-term
bounds, and :meth:`SeriesConfig.evaluate` picks one per point.  ``sigma`` and
``eta`` enter only through ``v``, ``xi`` and the final ``1 / eta``, so every
``ModelParams`` evaluates without overflow.  Integrated over all time, ``p``
is the triangular profile ``(eta - |x|)^+ / sigma^2``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidDomainError, NoConvergenceError
from .params import DEFAULT_SERIES, ModelParams, SeriesConfig

__all__ = ["ATOM", "absorbed_density"]


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


def _spectral(v: np.ndarray, xi: np.ndarray, cfg: SeriesConfig) -> np.ndarray:
    """Sine/exponential series for ``p1(v, xi)`` at ``v > 0``, ``0 <= xi <= 1``.

    Truncated once the magnitude bound of the next term (its exponential
    factor; the sine factors are at most 1) falls below ``cfg.term_tol``.
    """
    lam = (math.pi / 2.0) ** 2 / 2.0  # rate: exp(-lam k^2 v)
    vmin = float(np.min(v))

    total = np.zeros(v.shape)
    arg = math.pi * (xi + 1.0) / 2.0
    used = 0
    k = 1
    sign = 1.0
    while True:
        bound = math.exp(-lam * k * k * vmin)
        if bound < cfg.term_tol:
            break
        if used >= cfg.max_terms:
            raise NoConvergenceError(
                f"spectral series: {cfg.max_terms} terms, tail bound {bound:.3e}"
            )
        total += sign * np.exp(-lam * k * k * v) * np.sin(k * arg)
        used += 1
        sign = -sign
        k += 2  # even terms vanish
    np.maximum(total, 0.0, out=total)
    total[xi == 1.0] = 0.0  # sine factor vanishes identically on the barrier
    return total


def _images(v: np.ndarray, xi: np.ndarray, cfg: SeriesConfig) -> np.ndarray:
    """Gaussian image series for ``p1(v, xi)`` at ``v >= 0``, ``0 <= xi <= 1``.

    At ``v = 0`` the value is 0; the caller keeps the atom at ``xi = 0`` out.
    """
    out = np.zeros(v.shape)
    live = v > 0.0
    if not np.any(live):
        return out
    var = v[live]
    xp = xi[live]
    varmax = float(np.max(var))
    varmin = float(np.min(var))
    norm_max = 1.0 / math.sqrt(2.0 * math.pi * varmin)

    # k = 0 images: centers 0 and 2
    acc = np.exp(-(xp**2) / (2.0 * var)) - np.exp(-((xp - 2.0) ** 2) / (2.0 * var))
    used = 1
    k = 1
    while True:
        d = 4.0 * k - 2.0  # closest image distance for |xi| <= 1
        bound = 4.0 * norm_max * math.exp(-(d * d) / (2.0 * varmax))
        if bound < cfg.term_tol:
            break
        if used + 2 > cfg.max_terms:
            raise NoConvergenceError(
                f"image series: {cfg.max_terms} terms, tail bound {bound:.3e}"
            )
        c = 4.0 * k
        acc += np.exp(-((xp - c) ** 2) / (2.0 * var))
        acc += np.exp(-((xp + c) ** 2) / (2.0 * var))
        acc -= np.exp(-((xp - 2.0 + c) ** 2) / (2.0 * var))
        acc -= np.exp(-((xp - 2.0 - c) ** 2) / (2.0 * var))
        used += 2
        k += 1
    acc /= np.sqrt(2.0 * math.pi * var)
    np.maximum(acc, 0.0, out=acc)
    out[live] = acc
    return out


def absorbed_density(
    params: ModelParams, cfg: SeriesConfig = DEFAULT_SERIES, t=0.0, x=0.0
) -> float | np.ndarray | _Atom:
    """Absorbed-process density ``p(t, x) = p1(v, xi) / eta``.

    ``p1`` takes the image form where ``v < cfg.switch_ratio`` and the
    spectral form elsewhere.  Returns ``ATOM`` for the scalar corner
    ``t = 0, x = 0``; that corner inside an array raises InvalidDomainError.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise InvalidDomainError("density needs t >= 0")
    xa = _check_space(x, params.eta)
    scalar = t.ndim == 0 and xa.ndim == 0
    if scalar and t == 0.0 and xa == 0.0:
        return ATOM
    t, xa = np.broadcast_arrays(np.atleast_1d(t), np.atleast_1d(xa))
    if np.any((t == 0.0) & (xa == 0.0)):
        raise InvalidDomainError(
            "t = 0 with x = 0 inside an array; the atom must be handled separately"
        )
    p1 = cfg.evaluate(_images, _spectral, params.unit_time(t), xa / params.eta)
    out = p1 / params.eta
    return float(out[0]) if scalar else out
