"""Process parameters and series-evaluation settings."""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation control for the two series representations.

    term_tol     : absolute bound below which the next term is dropped.
    max_terms    : hard cap on summed terms before NoConvergenceError.
    switch_ratio : threshold on the dimensionless time sigma^2*t/eta^2;
                   below it the Gaussian-image form is used, above it the
                   sine/exponential (spectral) form.  Each converges fastest
                   on its own side, as with theta functions.
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


DEFAULT_SERIES = SeriesConfig()
