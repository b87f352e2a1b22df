"""Closed-form oracle for the normalized tracking-error density.

In rescaled time ``T = t / eta^2`` the error ``Z = (X_t - anchor) / eta`` of
the continuous first-exit scheme has density

    f_Z(T, z) = sum_{n >= 1} n [phi_v(n - 1 + |z|) - phi_v(n + 1 - |z|)],

with ``phi_v`` the centred normal density of variance ``v = sigma^2 T``.  It
is independent of the renewal solver, the convolution quadrature and the
series kernels in exitgrid, so it checks the whole analytic pipeline at once.
Only the standard library and numpy are used.
"""

from __future__ import annotations

import math

import numpy as np

ORACLE_TOL = 1e-6  # sup-norm gap allowed between exitgrid and the oracle


def error_density(sigma: float, T: float, z) -> np.ndarray:
    """``f_Z(T, z)`` on an array of ``z`` in [-1, 1]."""
    v = sigma * sigma * T
    a = np.abs(np.asarray(z, dtype=float))
    # terms with n - 1 > 40 sd are below 1e-300 and cannot change the sum
    n_max = int(math.ceil(2.0 + 40.0 * math.sqrt(v)))
    n = np.arange(1, n_max + 1, dtype=float)[:, None]
    inv2v = 0.5 / v
    norm = 1.0 / math.sqrt(2.0 * math.pi * v)
    terms = n * (np.exp(-((n - 1.0 + a) ** 2) * inv2v) - np.exp(-((n + 1.0 - a) ** 2) * inv2v))
    return norm * terms.sum(axis=0)


def max_gap(f, sigma: float, T: float, z) -> float:
    """Sup-norm distance between a tabulated density and the oracle."""
    return float(np.max(np.abs(np.asarray(f, dtype=float) - error_density(sigma, T, z))))
