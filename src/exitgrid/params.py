"""Process parameters, series-evaluation settings and the image/spectral dispatcher."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDomainError


@dataclass(frozen=True)
class ModelParams:
    """Diffusion scale and detection threshold.

    sigma : diffusion coefficient of ``X_t = sigma * W_t`` (space/sqrt(time)).
    eta   : half-width of the detection band (space).

    Both must be finite and strictly positive, and so must ``sigma**2``,
    ``eta**2`` and ``eta**2 / sigma**2``, the natural time scale of the
    scheme, in double precision.
    """

    sigma: float
    eta: float

    def __post_init__(self) -> None:
        sigma, eta = float(self.sigma), float(self.eta)
        sigma2, eta2 = sigma * sigma, eta * eta
        if not (
            all(0.0 < v < math.inf for v in (sigma, eta, sigma2, eta2))
            and 0.0 < eta2 / sigma2 < math.inf
        ):
            raise InvalidDomainError(
                "sigma, eta, their squares and eta**2 / sigma**2 must be finite and > 0,"
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


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation control for the two series representations.

    term_tol     : absolute bound below which the next term is dropped.  It
                   bounds the unit-band kernel (``sigma = eta = 1`` at time
                   ``v = sigma^2 t / eta^2``), so the physical truncation error
                   is ``term_tol / eta`` for the absorbed density, ``term_tol``
                   for the exit-time survival and ``term_tol * sigma^2 / eta^2``
                   for the exit-time density.
    max_terms    : hard cap on summed terms before NoConvergenceError.
    switch_ratio : threshold on ``v``; below it the Gaussian-image form is
                   used, above it the sine/exponential (spectral) form.  Each
                   converges fastest on its own side, as with theta functions.
    """

    term_tol: float = 1e-14
    max_terms: int = 1000
    switch_ratio: float = 0.5

    def __post_init__(self) -> None:
        if not (self.term_tol > 0.0):
            raise InvalidDomainError(f"term_tol must be > 0, got {self.term_tol}")
        if self.max_terms < 1:
            raise InvalidDomainError(f"max_terms must be >= 1, got {self.max_terms}")
        if not (self.switch_ratio > 0.0):
            raise InvalidDomainError(f"switch_ratio must be > 0, got {self.switch_ratio}")

    def evaluate(self, images, spectral, v: np.ndarray, *args: np.ndarray) -> np.ndarray:
        """A unit-band series at the array of unit-band times ``v``.

        ``images(v, *args, cfg)`` serves ``v < switch_ratio`` and
        ``spectral(v, *args, cfg)`` the rest; each array in ``args`` is
        split with ``v``.
        """
        out = np.empty(v.shape)
        small = v < self.switch_ratio
        for part, kernel in ((small, images), (~small, spectral)):
            if np.any(part):
                out[part] = kernel(v[part], *(a[part] for a in args), self)
        return out


DEFAULT_SERIES = SeriesConfig()
