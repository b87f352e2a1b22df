"""Process parameters, the one truncation rule and the one spectral sum of every series.

Every law here is a truncated theta-type series on the unit band
(``sigma = eta = 1``) at the time ``v = sigma^2 t / eta^2``: a Gaussian-image
form and a spectral form, a sum of modes ``exp(-rate k^2 v)``, which
:func:`spectral_sum` adds up for every law.  ``MU = pi^2 / 8`` is the rate
of the band's sine modes.  Three constants fix how all series are cut off:

* ``TERM_TOL``: a series stops at the first term index ``n >= 1`` whose
  bound on every term from ``n`` on is below it;
* ``MAX_TERMS``: the most terms any series may sum, counted in the
  series's own term index; past it :func:`series_terms` raises
  ``NoConvergenceError`` before a term is summed;
* ``SWITCH_V``: :func:`evaluate` sends ``v < SWITCH_V`` to the Gaussian-image
  form and the rest to the spectral form.  Each converges fastest on its own
  side, as with theta functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDomainError, NoConvergenceError

TERM_TOL = 1e-14
MAX_TERMS = 1000
SWITCH_V = 0.5
MU = math.pi**2 / 8.0  # decay rate of the slowest sine mode of the unit band


@dataclass(frozen=True)
class ModelParams:
    """Diffusion scale and detection threshold.

    sigma : diffusion coefficient of ``X_t = sigma * W_t`` (space/sqrt(time)).
    eta   : half-width of the detection band (space).

    Both must be finite and strictly positive, and so must ``sigma**2``,
    ``eta**2``, ``eta**2 / sigma**2`` (the natural time scale of the scheme)
    and its inverse ``sigma**2 / eta**2`` (the factor of the exit-time
    density), in double precision.
    """

    sigma: float
    eta: float

    def __post_init__(self) -> None:
        sigma, eta = float(self.sigma), float(self.eta)
        sigma2, eta2 = sigma * sigma, eta * eta
        # the squares reject nothing the ratios do not; they keep a 0 square from dividing below
        if not (
            all(0.0 < v < math.inf for v in (sigma, eta, sigma2, eta2))
            and all(0.0 < r < math.inf for r in (eta2 / sigma2, sigma2 / eta2))
        ):
            raise InvalidDomainError(
                "sigma, eta, their squares and both of their ratios must be finite and > 0,"
                f" got sigma={self.sigma}, eta={self.eta}"
            )

    @property
    def timescale(self) -> float:
        """Mean time between detections, eta^2 / sigma^2."""
        return self.eta**2 / self.sigma**2

    def unit_time(self, t):
        """``t * sigma^2 / eta^2``: the unit-band time ``v`` of a time ``t``.

        By Brownian scaling every law of the band ``(-eta, eta)`` at time
        ``t`` is the unit-band (``sigma = eta = 1``) law at ``v``, so a time
        density converts with the same factor, ``dv/dt``.  The product is
        formed as ``(t * s) * s`` with ``s = sigma / eta``, which is finite
        whenever ``eta**2 / sigma**2`` is, so it overflows only when the
        result itself leaves the double range.
        """
        s = self.sigma / self.eta
        return t * s * s


def series_terms(bound, what: str) -> int:
    """The number of terms to sum: the first index ``n >= 1`` with ``bound(n) < TERM_TOL``.

    ``bound(n)`` must bound every term of index ``n`` and above, so summing
    the terms ``0 .. n-1`` leaves out only terms below ``TERM_TOL``.  The
    leading term is summed whatever its size, so a point deep in a series'
    tail keeps it whether or not the other points of its call need more
    terms.  When that index passes ``MAX_TERMS``, raises NoConvergenceError
    naming ``what`` after at most ``MAX_TERMS`` calls of ``bound``.
    """
    for n in range(1, MAX_TERMS + 1):
        if bound(n) < TERM_TOL:
            return n
    raise NoConvergenceError(f"{what}: more than {MAX_TERMS} terms")


def spectral_sum(acc, v, rate: float, coeff, amp, what: str, odd: bool = False):
    """Add ``sum_k coeff(k, x) exp(-x)``, with ``x = rate k^2 v``, to ``acc`` in place.

    The modes are ``k = 2j + 1`` from ``j = 0`` when ``odd``, and otherwise
    ``k = j`` from ``j = 1``, whose term 0 is already in ``acc``.  The number
    of terms is :func:`series_terms` of ``amp(k, min(v)) exp(-rate k^2 min(v))``,
    which must bound every term from ``j`` on.  ``coeff`` gets the buffer of
    ``x`` and may overwrite it; what it returns multiplies the buffer of
    ``exp(-x)`` in place, so a term allocates no array beyond what ``coeff``
    does.  Returns ``acc``.
    """
    vmin = float(np.min(v))

    def bound(j: int) -> float:
        k = 2 * j + 1 if odd else j
        decay = math.exp(-rate * k * k * vmin)
        # a finite amp times an underflowed decay is below TERM_TOL, and an amp that
        # overflows has an x far past that, where inf * 0 would be a NaN bound
        return amp(k, vmin) * decay if decay else 0.0

    n = series_terms(bound, f"{what} at v = {vmin:.4g}")
    x, decay = np.empty(v.shape), np.empty(v.shape)
    # past v ~ 1.5e308 x overflows to inf, whose exp(-x) is the exact 0
    with np.errstate(over="ignore"):
        for j in range(0 if odd else 1, n):
            k = 2 * j + 1 if odd else j
            np.multiply(v, rate * k * k, out=x)
            np.exp(np.negative(x, out=decay), out=decay)
            decay *= coeff(k, x)
            acc += decay
    return acc


def evaluate(images, spectral, v: np.ndarray, *args: np.ndarray) -> np.ndarray:
    """A unit-band series at the array of unit-band times ``v``.

    ``images(v, *args)`` serves ``v < SWITCH_V`` and ``spectral(v, *args)``
    the rest; each array in ``args`` is split with ``v``.
    """
    out = np.empty(v.shape)
    small = v < SWITCH_V
    for part, kernel in ((small, images), (~small, spectral)):
        if np.any(part):
            out[part] = kernel(v[part], *(a[part] for a in args))
    return out
