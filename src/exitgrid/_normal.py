"""Standard normal CDF ``ndtr`` and quantile ``ndtri`` from Python's standard library.

``ndtr(x)`` is ``erfc(-x / sqrt 2) / 2`` with ``math.erfc``, and ``ndtri``
is ``statistics.NormalDist().inv_cdf`` (Wichura's AS241, *Appl. Statist.*
37, 1988) with its edges set here: ``-inf`` at 0, ``inf`` at 1 and ``nan``
for ``nan`` or off [0, 1].  Both apply elementwise to scalars or arrays of
any shape, return a numpy scalar for a 0-d input and raise no floating
point warning for any double, ``nan`` and ``+-inf`` included.  Each maps
its standard-library function over the doubles as Python floats.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtr", "ndtri"]

_SQRTH = math.sqrt(0.5)


def ndtr(x):
    """P(N(0, 1) <= x)."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * np.fromiter(map(math.erfc, (-x * _SQRTH).ravel().tolist()), float, x.size)
    return out.reshape(x.shape)[()]


def ndtri(p):
    """The ``p``-quantile of N(0, 1): -inf at 0, inf at 1, nan off [0, 1]."""
    # imported here: statistics loads fractions and decimal, which only
    # callers that invert the CDF need
    from statistics import NormalDist

    p = np.asarray(p, dtype=float)
    inside = (p > 0.0) & (p < 1.0)  # numpy compares nan without the invalid flag
    out = np.where(p == 1.0, math.inf, np.where(p == 0.0, -math.inf, math.nan))
    out[inside] = np.fromiter(map(NormalDist().inv_cdf, p[inside].tolist()), float)
    return out[()]
