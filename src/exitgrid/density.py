"""Transition density of the Wiener process absorbed at two symmetric barriers.

The process ``X_t = sigma * W_t`` started at 0 and killed on first touch of
``-eta`` or ``+eta`` has a sub-probability transition density ``p(t, x)`` on
``[-eta, eta]``.  By Brownian scaling ``p(t, x) = p1(v, xi) / eta``, where
``v = sigma^2 t / eta^2``, ``xi = x / eta`` and ``p1`` is the density of the
unit band (``sigma = eta = 1``).  Two classical series represent ``p1``:

* a spectral (sine/exponential) series that converges fast for large ``v``;
* a Gaussian image series (method of images) that converges fast for small
  ``v``.

Both are kernels of ``(v, xi)`` alone.  Each bounds its terms from any index
on, :func:`~exitgrid.params.series_terms` turns that bound into the number
of terms to sum (or raises ``NoConvergenceError`` past ``MAX_TERMS``, before
summing), and :func:`~exitgrid.params.evaluate` picks one series per point
at ``v = SWITCH_V``.  ``sigma`` and ``eta`` enter only through ``v``, ``xi``
and the final ``1 / eta``, so every ``ModelParams`` evaluates without
overflow.  Integrated over all time, ``p`` is the triangular profile
``(eta - |x|)^+ / sigma^2``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidDomainError
from .params import MU, ModelParams, evaluate, series_terms, spectral_sum

__all__ = ["absorbed_density"]


def _check_space(x, eta: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all(np.abs(x) <= eta * (1.0 + 1e-12)):  # NaN fails too
        raise InvalidDomainError(f"position outside [-eta, eta] with eta={eta}")
    # the density is even in x, so evaluate at |x|; this also makes the
    # truncated image sums exactly symmetric
    return np.minimum(np.abs(x), eta)


def _spectral(v: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Sine/exponential series for ``p1(v, xi)`` at ``v > 0``, ``0 <= xi <= 1``.

    Mode ``k = 2j + 1`` carries ``(-1)^j sin(k arg) exp(-MU k^2 v)`` (even
    modes vanish); its magnitude is bounded by its exponential factor, as
    the sine factors are at most 1.
    """
    arg = math.pi * (xi + 1.0) / 2.0

    def coeff(k: int, x: np.ndarray) -> np.ndarray:
        np.sin(np.multiply(arg, k, out=x), out=x)
        x *= (-1.0) ** (k // 2)
        return x

    total = spectral_sum(np.zeros(v.shape), v, MU, coeff, lambda k, vmin: 1.0,
                         "absorbed-density spectral series", odd=True)
    np.maximum(total, 0.0, out=total)
    total[xi == 1.0] = 0.0  # sine factor vanishes identically on the barrier
    return total


def _images(v: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Gaussian image series for ``p1(v, xi)`` at ``v >= 0``, ``0 <= xi <= 1``.

    Term ``k`` holds the four images at distance about ``4k`` (two at
    ``k = 0``).  At ``v = 0`` the value is 0; the caller keeps the atom at
    ``xi = 0`` out.
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

    def bound(k: int) -> float:
        d = 4.0 * k - 2.0  # closest image distance for |xi| <= 1
        return 4.0 * norm_max * math.exp(-(d * d) / (2.0 * varmax))

    n = series_terms(bound, f"absorbed-density image series at v = {varmax:.4g}")
    # k = 0 images: centers 0 and 2
    acc = np.exp(-(xp**2) / (2.0 * var)) - np.exp(-((xp - 2.0) ** 2) / (2.0 * var))
    for k in range(1, n):
        c = 4.0 * k
        acc += np.exp(-((xp - c) ** 2) / (2.0 * var))
        acc += np.exp(-((xp + c) ** 2) / (2.0 * var))
        acc -= np.exp(-((xp - 2.0 + c) ** 2) / (2.0 * var))
        acc -= np.exp(-((xp - 2.0 - c) ** 2) / (2.0 * var))
    acc /= np.sqrt(2.0 * math.pi * var)
    np.maximum(acc, 0.0, out=acc)
    out[live] = acc
    return out


def absorbed_density(params: ModelParams, t=0.0, x=0.0) -> float | np.ndarray:
    """Absorbed-process density ``p(t, x) = p1(v, xi) / eta``.

    ``p1`` takes the image form where ``v < SWITCH_V`` and the spectral form
    elsewhere.  The corner ``t = 0, x = 0`` holds the unit point mass, not a
    density value, and raises InvalidDomainError, alone or inside an array.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0.0):
        raise InvalidDomainError("density needs t >= 0")
    xa = _check_space(x, params.eta)
    scalar = t.ndim == 0 and xa.ndim == 0
    t, xa = np.broadcast_arrays(np.atleast_1d(t), np.atleast_1d(xa))
    if np.any((t == 0.0) & (xa == 0.0)):
        raise InvalidDomainError(
            "t = 0 with x = 0 is the unit point mass at the start, not a density value"
        )
    p1 = evaluate(_images, _spectral, params.unit_time(t), xa / params.eta)
    out = p1 / params.eta
    return float(out[0]) if scalar else out
