"""Standard normal CDF ``ndtr`` and quantile ``ndtri`` in plain numpy.

These are ports of the Cephes Math Library routines ``ndtr`` (through
``erf``/``erfc``) and ``ndtri`` by S. L. Moshier (1989); the erfc rational
fits follow W. J. Cody, *Math. Comp.* 23 (1969).  The ports keep the Cephes
coefficients, branch cut-offs and order of operations, so where a branch
uses only ``+ - * /`` (``|x| < sqrt(2)`` for ``ndtr``) the result is the
double the C routine returns, and elsewhere it differs only as far as
numpy's ``exp`` and ``log`` differ from the C library's, a few ulp.

Both functions accept scalars or arrays, return a numpy scalar for a 0-d
input, evaluate only the branches their inputs reach and raise no floating
point warning for any double, ``nan`` and ``+-inf`` included.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtr", "ndtri"]

_SQRTH = math.sqrt(0.5)
_MAXLOG = 7.09782712893383996843e2  # log(2**1024): exp(-x*x) is 0 past this
_EXP_M2 = 0.13533528323661269189  # exp(-2), the edge of ndtri's central branch
_S2PI = 2.50662827463100050242

# erf(x) = x T(x^2) / U(x^2) on |x| <= 1
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
# erfc(x) = exp(-x^2) P(x) / Q(x) on 1 <= x < 8, exp(-x^2) R(x) / S(x) above
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)

# ndtri on |p - 1/2| <= 1/2 - exp(-2)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# ndtri tails in z = 1 / sqrt(-2 log p): sqrt(-2 log p) in [2, 8), then [8, 64)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """``coef[0] x^N + ... + coef[N]`` by Horner's rule, as Cephes ``polevl``."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """``x^N + coef[0] x^(N-1) + ... + coef[N-1]``, as Cephes ``p1evl``."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _erfc_large(x: np.ndarray) -> np.ndarray:
    """Cephes ``erfc`` on ``x >= 1``, ``inf`` included; 0 where ``exp(-x^2)`` underflows."""
    sq = np.minimum(x, 27.0)  # past 27, x*x is above _MAXLOG (and may overflow)
    sq *= sq
    out = np.zeros(x.shape)
    live = sq <= _MAXLOG
    a = x[live]
    e = np.exp(-sq[live])
    y = np.empty(a.shape)
    far = a >= 8.0
    for sel, num, den in ((~far, _P, _Q), (far, _R, _S)):
        if sel.any():
            y[sel] = (e[sel] * _polevl(a[sel], num)) / _p1evl(a[sel], den)
    out[live] = y
    return out


def ndtr(a):
    """P(N(0, 1) <= a), as Cephes ``ndtr``."""
    a = np.asarray(a, dtype=float)
    x = a.ravel() * _SQRTH
    z = np.abs(x)
    out = np.full(x.shape, np.nan)  # nan stays in neither branch below
    small = z < 1.0
    if small.any():
        xs = x[small]
        zs = xs * xs
        out[small] = 0.5 + 0.5 * (xs * _polevl(zs, _T) / _p1evl(zs, _U))
    large = z >= 1.0
    if large.any():
        y = 0.5 * _erfc_large(z[large])
        out[large] = np.where(x[large] > 0.0, 1.0 - y, y)
    return out.reshape(a.shape)[()]


def ndtri(p):
    """The ``p``-quantile of N(0, 1), as Cephes ``ndtri``: -inf at 0, inf at 1, nan off [0, 1]."""
    p = np.asarray(p, dtype=float)
    y0 = p.ravel()
    out = np.full(y0.shape, np.nan)
    out[y0 == 0.0] = -np.inf
    out[y0 == 1.0] = np.inf
    inner = np.flatnonzero((y0 > 0.0) & (y0 < 1.0))
    y = y0[inner]
    upper = y > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y, y)
    central = y > _EXP_M2
    if central.any():
        c = y[central] - 0.5
        c2 = c * c
        out[inner[central]] = (c + c * (c2 * _polevl(c2, _P0) / _p1evl(c2, _Q0))) * _S2PI
    tail = ~central
    if tail.any():
        x = np.sqrt(-2.0 * np.log(y[tail]))
        x0 = x - np.log(x) / x
        z = 1.0 / x
        x1 = np.empty(x.shape)
        near = x < 8.0
        for sel, num, den in ((near, _P1, _Q1), (~near, _P2, _Q2)):
            if sel.any():
                x1[sel] = z[sel] * _polevl(z[sel], num) / _p1evl(z[sel], den)
        x = x0 - x1
        out[inner[tail]] = np.where(upper[tail], x, -x)
    return out.reshape(p.shape)[()]
