"""Standard normal CDF ``ndtr`` and quantile ``ndtri`` from Python's standard library.

``ndtr(x)`` is ``erfc(-x / sqrt 2) / 2`` with ``math.erfc``, and ``ndtri``
is ``statistics.NormalDist().inv_cdf`` (Wichura's AS241, *Appl. Statist.*
37, 1988) with its edges set here: ``-inf`` at 0, ``inf`` at 1 and ``nan``
for ``nan`` or off [0, 1].  Both apply elementwise to scalars or arrays of
any shape, return a numpy scalar for a 0-d input and raise no floating
point warning for any double, ``nan`` and ``+-inf`` included.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtr", "ndtri"]

_SQRTH = math.sqrt(0.5)


def _elementwise(fn, x):
    """``fn`` applied to each double of ``x``, as a float array or a 0-d numpy scalar."""
    return np.asarray(np.frompyfunc(fn, 1, 1)(np.asarray(x, dtype=float)), dtype=float)[()]


def ndtr(x):
    """P(N(0, 1) <= x)."""
    return _elementwise(lambda a: 0.5 * math.erfc(-a * _SQRTH), x)


def ndtri(p):
    """The ``p``-quantile of N(0, 1): -inf at 0, inf at 1, nan off [0, 1]."""
    # imported here: statistics loads fractions and decimal, which only
    # callers that invert the CDF need
    from statistics import NormalDist

    inv_cdf = NormalDist().inv_cdf

    def one(q: float) -> float:
        if math.isnan(q):  # before any comparison: one with nan may raise the invalid flag
            return math.nan
        if 0.0 < q < 1.0:
            return inv_cdf(q)
        return {0.0: -math.inf, 1.0: math.inf}.get(q, math.nan)

    return _elementwise(one, p)
