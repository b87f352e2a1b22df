"""Each unit-band series against a numerical inverse of its Laplace transform.

With ``b = sqrt(2 s)``, every law of the unit band (``sigma = eta = 1``) is
the inverse of a closed form:

* exit-time density ``1 / cosh b`` and survival ``(1 - 1 / cosh b) / s``;
* renewal density ``m1``: ``1 / (cosh b - 1)``;
* absorbed density from 0, the killed Green's function:
  ``sinh(b (1 - |x|)) / (b cosh b)``;
* error density ``f_Z`` minus its limit ``1 - |z|``:
  ``sinh(b (1 - |z|)) / (b (cosh b - 1)) - (1 - |z|) / s``.

mpmath's Talbot inversion at 30 digits serves as the oracle; it shares no
code with the package's series.  Each law is checked through
:func:`~exitgrid.params.evaluate`, so on the ladder below every image kernel
is checked at ``v < SWITCH_V`` and every spectral kernel at ``v >= SWITCH_V``.
The walk's ratio functions are checked against their targets ``p1 / phi``
and ``f1 / (2 g)`` at the ``v <= 1`` they serve.
"""

import functools
import math

import mpmath
import numpy as np
import pytest

from exitgrid.density import _images, _spectral
from exitgrid.first_passage import (
    _density_images,
    _density_spectral,
    _survival_images,
    _survival_spectral,
)
from exitgrid.params import SWITCH_V, evaluate
from exitgrid.path_sim import _exit_ratio, _stay_ratio
from exitgrid.renewal import (
    _error_density_images,
    _error_density_spectral,
    _renewal_images,
    _renewal_spectral,
)

LADDER = (0.02, 0.1, 0.3, 0.64, 1.0, 3.0, 10.0)
POINTS = (0.0, 0.25, 0.6, 0.95)  # |x| or |z| on the unit band
TOL = 1e-14  # absolute; each series leaves out terms below TERM_TOL = 1e-14

TRANSFORMS = {
    "survival": lambda s, b, x: (1 - 1 / mpmath.cosh(b)) / s,
    "exit density": lambda s, b, x: 1 / mpmath.cosh(b),
    "renewal": lambda s, b, x: 1 / (mpmath.cosh(b) - 1),
    "absorbed density": lambda s, b, x: mpmath.sinh(b * (1 - x)) / (b * mpmath.cosh(b)),
    "error density excess": lambda s, b, x: (
        mpmath.sinh(b * (1 - x)) / (b * (mpmath.cosh(b) - 1)) - (1 - x) / s
    ),
}


@functools.lru_cache(maxsize=None)
def inverse(name: str, v: float, x: float = 0.0) -> float:
    """The inverse Laplace transform of ``TRANSFORMS[name]`` at ``v``, by Talbot at 30 digits."""
    transform = TRANSFORMS[name]
    with mpmath.workdps(30):
        value = mpmath.invertlaplace(
            lambda s: transform(s, mpmath.sqrt(2 * s), x), v, method="talbot"
        )
        return float(value)


def test_ladder_spans_the_switch():
    assert min(LADDER) < SWITCH_V <= max(LADDER)


@pytest.mark.parametrize("v", LADDER)
@pytest.mark.parametrize(
    "name,images,spectral",
    [
        ("survival", _survival_images, _survival_spectral),
        ("exit density", _density_images, _density_spectral),
        ("renewal", _renewal_images, _renewal_spectral),
    ],
    ids=["survival", "exit-density", "renewal"],
)
def test_time_law_inverts_its_transform(name, images, spectral, v):
    got = evaluate(images, spectral, np.array([v]))[0]
    assert abs(got - inverse(name, v)) < TOL


@pytest.mark.parametrize("v", LADDER)
@pytest.mark.parametrize(
    "name,images,spectral,limit",
    [
        ("absorbed density", _images, _spectral, 0.0),
        ("error density excess", _error_density_images, _error_density_spectral, 1.0),
    ],
    ids=["absorbed-density", "error-density"],
)
def test_band_law_inverts_its_transform(name, images, spectral, limit, v):
    x = np.array(POINTS)
    got = evaluate(images, spectral, np.full(x.shape, v), x)
    want = np.array([limit * (1.0 - xi) + inverse(name, v, xi) for xi in POINTS])
    assert np.max(np.abs(got - want)) < TOL


@pytest.mark.parametrize("v", [v for v in LADDER if v <= 1.0])
def test_walk_ratios_invert_their_targets(v):
    # _stay_ratio(a, z) = p1(v, y) / phi_v(y) and _exit_ratio(q) = f1(v) / (2 g(v)),
    # with v = 1 / a^2 = 1 / q, y = z / a and g the Levy density of the nearer barrier
    a = 1.0 / math.sqrt(v)
    y = np.array(POINTS)
    phi = np.exp(-y * y / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)
    stay = _stay_ratio(np.full(y.shape, a), y * a)
    want = np.array([inverse("absorbed density", v, xi) for xi in POINTS]) / phi
    assert np.max(np.abs(stay - want)) < TOL
    levy = math.exp(-0.5 / v) / math.sqrt(2.0 * math.pi * v**3)
    exit_ = _exit_ratio(np.array([1.0 / v]))[0]
    assert abs(exit_ - inverse("exit density", v) / (2.0 * levy)) < TOL
