import time

import numpy as np
import pytest

from exitgrid import NoConvergenceError
from exitgrid.density import _images, _spectral
from exitgrid.first_passage import (
    _density_images,
    _density_spectral,
    _survival_images,
    _survival_spectral,
)
from exitgrid.params import MAX_TERMS, TERM_TOL, series_terms
from exitgrid.renewal import (
    _error_density_images,
    _error_density_spectral,
    _renewal_images,
    _renewal_spectral,
)


class TestSeriesTerms:
    def test_first_index_below_tol(self):
        values = [1.0, 0.5, TERM_TOL, 0.5 * TERM_TOL, 0.0]
        calls = []

        def bound(n):
            calls.append(n)
            return values[n]

        # TERM_TOL itself is not below TERM_TOL, so index 3 is the first; the
        # leading term (index 0) is always summed, so its bound is never asked
        assert series_terms(bound, "test series") == 3
        assert calls == [1, 2, 3]
        assert series_terms(lambda n: 0.0, "test series") == 1

    def test_cap_counts_terms(self):
        # MAX_TERMS terms are allowed, one more is not
        assert series_terms(lambda n: 0.0 if n >= MAX_TERMS else 1.0, "s") == MAX_TERMS
        with pytest.raises(NoConvergenceError):
            series_terms(lambda n: 0.0 if n > MAX_TERMS else 1.0, "s")

    def test_raises_past_cap_without_summing(self):
        calls = []

        def bound(n):
            calls.append(n)
            return 1.0

        with pytest.raises(NoConvergenceError, match="test series at v = 7"):
            series_terms(bound, "test series at v = 7")
        assert len(calls) <= MAX_TERMS + 2


N = 100_000
XI = np.linspace(0.0, 1.0, N)


@pytest.mark.parametrize(
    "kernel,args",
    [
        (_spectral, (np.full(N, 1e-6), XI)),
        (_images, (np.full(N, 1e7), XI)),
        (_survival_spectral, (np.full(N, 1e-6),)),
        (_survival_images, (np.full(N, 1e7),)),
        (_density_spectral, (np.full(N, 1e-6),)),
        (_density_images, (np.full(N, 1e7),)),
        (_renewal_spectral, (np.full(N, 1e-6),)),
        (_renewal_images, (np.full(N, 1e6),)),
        (_error_density_spectral, (np.full(N, 1e-6), XI)),
        (_error_density_images, (np.full(N, 1e6), XI)),
    ],
    ids=lambda a: getattr(a, "__name__", None),
)
def test_every_kernel_fails_fast_past_the_cap(kernel, args):
    # each v needs more than MAX_TERMS terms; the count comes from the tail
    # bound, so the kernel raises before it sums a term over the N points
    t0 = time.perf_counter()
    with pytest.raises(NoConvergenceError, match=f"series at v = .*more than {MAX_TERMS} terms"):
        kernel(*args)
    assert time.perf_counter() - t0 < 0.1
