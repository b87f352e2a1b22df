"""Law of the first exit time ``tau = inf{t > 0 : |X_t| = eta}``.

Survival function, density, mean, quantiles and exact-in-distribution
sampling for the time the process first leaves the band ``(-eta, eta)``.
By Brownian scaling the survival at ``t`` is the unit-band
(``sigma = eta = 1``) survival at ``v = sigma^2 t / eta^2``, and the density
is the unit-band density times ``dv/dt = sigma^2 / eta^2``.  Each unit-band
quantity has a Gaussian-image form (fast for small ``v``) and a spectral
form (fast for large ``v``); :func:`~exitgrid.params.evaluate` picks one per
point at ``v = SWITCH_V``, and each kernel takes its term count from
:func:`~exitgrid.params.series_terms`, which raises ``NoConvergenceError``
before summing when more than ``MAX_TERMS`` terms would be needed.  The
kernels see ``v`` only, so every ``ModelParams`` evaluates without
overflow.

Quantiles come from safeguarded Newton steps with the closed-form density,
seeded by the leading term of each series (its small-``v`` and large-``v``
asymptote) inside a bisection bracket; each is within ``tol`` of the exact
quantile, ``|t - t*| < tol``, and most take three rounds of survival
evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._normal import ndtr, ndtri
from .errors import InvalidDomainError, ToleranceNotMetError
from .params import MU, SWITCH_V, ModelParams, evaluate, series_terms, spectral_sum

__all__ = ["FirstPassageLaw"]

_SQRTH = math.sqrt(0.5)


def _survival_images(v: np.ndarray) -> np.ndarray:
    out = np.ones(v.shape)
    pos = v > 0.0
    if not np.any(pos):
        return out
    s = np.sqrt(v[pos])
    smax = float(np.max(s))

    def bound(k: int) -> float:
        # 4 ndtr(-(4k - 3) / smax) = 2 erfc((4k - 3) / (smax sqrt 2))
        return 2.0 * math.erfc((4.0 * k - 3.0) / smax * _SQRTH)

    n = series_terms(bound, f"survival image series at v = {smax * smax:.4g}")
    # every band edge below is m / s with m odd and |m| <= top, so one ndtr
    # call tabulates them all: cdf[(m + top) // 2] = ndtr(m / s)
    top = 4 * n - 1
    cdf = ndtr(np.arange(-top, top + 1, 2.0)[:, None] / s)

    def band(center: int) -> np.ndarray:
        # integral of the Gaussian image at `center` over [-1, 1]
        return cdf[(top + 1 - center) // 2] - cdf[(top - 1 - center) // 2]

    acc = band(0) - band(2)
    for k in range(1, n):
        acc += band(4 * k) - band(2 - 4 * k)
        acc += band(-4 * k) - band(2 + 4 * k)
    out[pos] = acc
    return out


def _survival_spectral(v: np.ndarray) -> np.ndarray:
    acc = spectral_sum(np.zeros(v.shape), v, MU, lambda k, x: (-1.0) ** (k // 2) / k,
                       lambda k, vmin: 4.0 / (math.pi * k), "survival spectral series", odd=True)
    return (4.0 / math.pi) * acc


def _density_images(v: np.ndarray) -> np.ndarray:
    out = np.zeros(v.shape)
    # below this every exponential underflows to an exact zero while the
    # v^(-3/2) prefactor may overflow; the product is identically 0
    live = v >= 1.0 / 1500.0
    if not np.any(live):
        return out
    var = v[live]
    pref = 1.0 / (2.0 * var * np.sqrt(2.0 * math.pi * var))
    prefmax = float(np.max(pref))
    varmax = float(np.max(var))

    def bound(k: int) -> float:
        d = 4.0 * k - 3.0
        return 16.0 * (k + 1.0) * prefmax * math.exp(-(d * d) / (2.0 * varmax))

    def kterm(k: int) -> np.ndarray:
        a = 1.0 - 4.0 * k
        b = 1.0 + 4.0 * k
        c = 3.0 - 4.0 * k
        return (
            2.0 * a * np.exp(-(a * a) / (2.0 * var))
            + b * np.exp(-(b * b) / (2.0 * var))
            - c * np.exp(-(c * c) / (2.0 * var))
        )

    n = series_terms(bound, f"exit-density image series at v = {varmax:.4g}")
    acc = kterm(0)
    for k in range(1, n):
        acc += kterm(k) + kterm(-k)
    out[live] = pref * acc
    return out


def _density_spectral(v: np.ndarray) -> np.ndarray:
    lead = math.pi / 2.0
    acc = spectral_sum(np.zeros(v.shape), v, MU, lambda k, x: (-1.0) ** (k // 2) * k,
                       lambda k, vmin: lead * k, "exit-density spectral series", odd=True)
    return lead * acc


def _unit_survival(v: np.ndarray) -> np.ndarray:
    """Unit-band survival at the unit times ``v``, clamped to [0, 1]."""
    return np.clip(evaluate(_survival_images, _survival_spectral, v), 0.0, 1.0)


def _unit_density(v: np.ndarray) -> np.ndarray:
    """Unit-band exit-time density at the unit times ``v > 0``, clamped to >= 0."""
    return np.maximum(evaluate(_density_images, _density_spectral, v), 0.0)


@dataclass(frozen=True)
class FirstPassageLaw:
    """Distribution of the first two-sided exit time from a centred band."""

    params: ModelParams

    def survival(self, t) -> float | np.ndarray:
        """P(tau > t), clamped to [0, 1].  Accepts scalars or arrays."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        if not np.all(t >= 0.0):  # NaN fails too
            raise InvalidDomainError("survival needs t >= 0")
        out = _unit_survival(self.params.unit_time(np.atleast_1d(t)))
        return float(out[0]) if scalar else out.reshape(t.shape)

    def density(self, t) -> float | np.ndarray:
        """Density of tau at t > 0, clamped to >= 0."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        if not np.all(t > 0.0):
            raise InvalidDomainError("density needs t > 0")
        f1 = _unit_density(self.params.unit_time(np.atleast_1d(t)))
        out = self.params.unit_time(f1)  # f(t) = f1(v) dv/dt, and v is linear in t
        return float(out[0]) if scalar else out.reshape(t.shape)

    # -- moments / inverse ---------------------------------------------------

    def mean(self) -> float:
        """E[tau] = eta^2 / sigma^2 (closed form)."""
        return self.params.timescale

    def cdf(self, t) -> float | np.ndarray:
        return 1.0 - self.survival(t)

    def quantile(self, p, tol: float | None = None) -> float | np.ndarray:
        """Inverse CDF by safeguarded Newton steps, to ``|t - t*| < tol``.

        ``t*`` is where ``cdf = 1 - survival`` reaches ``p``; ``tol`` defaults
        to ``1e-10 eta^2/sigma^2``.  The iteration runs in unit time ``v``, to
        ``tol sigma^2/eta^2``, and scales the result by ``eta^2/sigma^2`` once
        at the end, as the kernels do.  The bracket starts at ``[0, 8]`` and
        its upper end grows geometrically until it covers p.  Each point
        starts from the leading term of its series, ``v = 1 / ndtri(p/4)^2``
        (images) or, where that is at least ``SWITCH_V``,
        ``v = -(8/pi^2) log(pi (1-p)/4)`` (spectral).  Every round evaluates
        F at ``v +- 0.45 tol``, which shrinks the bracket, and steps to
        ``v' - (F(v') - p) / f(v')`` from the upper probe ``v'`` with the
        closed-form density.  A step that leaves the bracket, or does not
        halve the last move, goes to the bracket midpoint instead.  A point
        is done once its bracket is narrower than ``tol``; its quantile is
        then that last step, or the midpoint.  Raises ToleranceNotMetError
        when ``tol`` is below the double spacing at the quantile, and
        InvalidDomainError when a quantile lies past the double range.
        """
        p = np.asarray(p, dtype=float)
        scalar = p.ndim == 0
        pp = p.ravel()
        if not np.all((pp > 0.0) & (pp < 1.0)):
            raise InvalidDomainError("quantile needs p in (0, 1)")
        tol = 1e-10 if tol is None else self.params.unit_time(tol)

        lo = np.zeros(pp.shape)
        hi = np.full(pp.shape, 8.0)
        for _ in range(64):
            need = 1.0 - _unit_survival(hi) < pp
            if not np.any(need):
                break
            hi[need] *= 2.0
        else:
            raise ToleranceNotMetError("quantile bracket did not cover p")

        v = 1.0 / ndtri(pp / 4.0) ** 2
        v_spectral = -np.log(math.pi * (1.0 - pp) / 4.0) / MU
        v = np.where(v_spectral >= SWITCH_V, v_spectral, v)
        v = np.where((lo < v) & (v < hi), v, 0.5 * (lo + hi))
        h = 0.45 * tol
        moved = hi - lo  # how far each point's iterate moved last
        q = np.empty(pp.shape)
        todo = np.arange(pp.size)  # the points not yet done; the arrays below hold only them
        for _ in range(200):
            probes = np.stack([np.maximum(v - h, 0.0), v + h])
            cdf = 1.0 - _unit_survival(probes)
            below = cdf < pp
            lo = np.max(np.where(below, probes, lo), axis=0)
            hi = np.min(np.where(below, hi, probes), axis=0)
            mid = 0.5 * (lo + hi)
            # the Newton step from the upper probe, taken only when it lands
            # inside the bracket; the room test keeps f > 0 and g / f finite
            base, g = probes[1], cdf[1] - pp
            f = _unit_density(base)
            newton = np.abs(g) < f * np.where(g < 0.0, hi - base, base - lo)
            v_new = base - np.divide(g, f, out=np.zeros(g.shape), where=newton)
            newton &= (lo < v_new) & (v_new < hi)
            done = hi - lo < tol
            q[todo[done]] = np.where(newton, v_new, mid)[done]
            left = ~done
            if not np.any(left):
                break
            if np.any((mid[left] <= lo[left]) | (mid[left] >= hi[left])):
                raise ToleranceNotMetError(
                    f"quantile tolerance {tol:.3g} eta^2/sigma^2 is below the double spacing"
                    " at the quantile"
                )
            # where F is flat to rounding (p near 0 or 1) Newton creeps: it
            # must at least halve the last move, or the point bisects
            newton &= np.abs(v_new - v) <= 0.5 * moved
            v_new = np.where(newton, v_new, mid)
            moved = np.abs(v_new - v)
            todo, pp, lo, hi, v, moved = (a[left] for a in (todo, pp, lo, hi, v_new, moved))
        else:
            raise ToleranceNotMetError("quantile iteration hit its round cap")
        with np.errstate(over="ignore"):  # a quantile past the double range is reported below
            q *= self.params.timescale
        past = q == math.inf
        if np.any(past):
            raise InvalidDomainError(
                f"time scale eta^2/sigma^2 = {self.params.timescale:.4g} is too large: the"
                f" quantile at p = {p.ravel()[past][0]:.17g} lies past the double range"
            )
        return float(q[0]) if scalar else q.reshape(p.shape)

    def sample(self, rng: np.random.Generator, size=None, tol: float | None = None):
        """Inverse-CDF draws; exact in distribution up to the root tolerance."""
        u = rng.random(size)
        u = np.clip(u, 1e-300, 1.0 - 1e-16)
        return self.quantile(u, tol=tol)
