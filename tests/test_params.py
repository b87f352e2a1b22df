import hashlib
import time

import numpy as np
import pytest

from exitgrid import (
    FirstPassageLaw,
    InvalidDomainError,
    ModelParams,
    NoConvergenceError,
    RenewalGrid,
    absorbed_density,
    convolution_term,
    triangular_quantile,
)
from exitgrid.density import _images, _spectral
from exitgrid.experiments import ExperimentConfig, run_density_table, run_tau_table
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

from conftest import simd_platform


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


NAN = float("nan")
UNIT = ModelParams(1.0, 1.0)
LAW = FirstPassageLaw(UNIT)
GRID = RenewalGrid(h=0.01, values=np.zeros(3), sigma=1.0)  # convolution_term reads only sigma


@pytest.mark.parametrize(
    "call",
    [
        lambda: absorbed_density(UNIT, 0.3, x=NAN),
        lambda: absorbed_density(UNIT, NAN, 0.2),
        lambda: absorbed_density(UNIT, [0.3, NAN], 0.2),
        lambda: convolution_term(UNIT, GRID, 0.5, [0.0, NAN]),
        lambda: LAW.survival(NAN),
        lambda: LAW.density([1.0, NAN]),
        lambda: LAW.quantile(NAN),
        lambda: triangular_quantile(NAN),
    ],
    ids=["density-x", "density-t", "density-t-array", "convolution-z", "survival", "exit-density",
         "quantile", "triangular-quantile"],
)
def test_nan_at_an_entry_point_is_refused(call):
    # a NaN fails every domain check, so it is refused before any series runs
    with pytest.raises(InvalidDomainError):
        call()


LOW = np.geomspace(0.01, 0.45, 9)  # below SWITCH_V
HIGH = np.geomspace(0.5, 20.0, 9)  # from SWITCH_V on
MIXED = np.array([3.0, 0.02, 0.5, 11.0, 0.3, 0.07, 1.2])  # one batch across the switch
BAND = np.linspace(0.0, 1.0, 9)  # xi or |z| of the kernels that take one
KERNELS = {
    kernel.__name__.lstrip("_"): (kernel, banded)
    for kernels, banded in (
        ((_images, _spectral, _error_density_images, _error_density_spectral), True),
        ((_survival_images, _survival_spectral, _density_images, _density_spectral,
          _renewal_images, _renewal_spectral), False),
    )
    for kernel in kernels
}


def kernel_digest(kernel, banded: bool, vs, batch: bool) -> str:
    """SHA-256 of ``kernel`` on the times ``vs``, in one call (``batch``) or one call per time.

    A banded kernel sees every time at each point of ``BAND``.
    """
    def call(v):
        if banded:
            return kernel(np.repeat(v, BAND.size), np.tile(BAND, v.size))
        return kernel(v)

    parts = [call(vs)] if batch else [call(np.array([v])) for v in vs]
    return hashlib.sha256(np.concatenate(parts).tobytes()).hexdigest()


def table_digests(sigma: float, eta: float, out) -> dict:
    """SHA-256 of the ``density`` and ``tau`` CSV bodies at ``(sigma, eta)``, by file name."""
    cfg = ExperimentConfig(sigma=sigma, eta=eta, out_dir=str(out))
    paths = run_density_table(cfg) + run_tau_table(cfg)
    return {
        path.name: hashlib.sha256(
            "".join(ln for ln in path.read_text().splitlines(True) if ln[0] != "#").encode()
        ).hexdigest()
        for path in paths
    }


class TestPinnedAnalyticBits:
    """SHA-256 of the unit-band kernels and of the analytic tables.

    A refactor of the series must keep these bits; a change that means to
    move them renews the pins.  ``np.exp``, ``np.sin`` and ``np.cos`` differ
    between SIMD dispatch levels, so the pins hold on the platform they were
    recorded on and the test skips elsewhere.
    """

    PLATFORM = ("2.4.6", "AVX512_SPR")
    KERNEL_PINS = {
        # LOW one time per call, HIGH one time per call, MIXED in one batch
        "density_images": (
            "c90bb73c52215e8ff6d5afca6043db4c0c095a8e44313401a1aafdf233c8351f",
            "05779052a8fda4dadd5ebc4864bc2b213fdba865726886346cb561c4d9113e47",
            "4233380f10d9c03adba5546d0c158c465e69257d50aa06e48a8a2784c3060aad",
        ),
        "density_spectral": (
            "9c8b7474aa8485404c4d893d4c569632d78a7dfbb08cd857cb6c2782c880a40f",
            "6a794a7042d607e24e6687fcccba48bfbe0dd57f210f4c4dd69ff30bff4dacbe",
            "dc7a390b2a7e570b008345531e0285885ca5702c19d4c323f6e3485b0bd451d2",
        ),
        "error_density_images": (
            "e7ca41ecb0333cd6f334ebcea88905e799779461cb6ae4de96ea554582bd94f9",
            "210f0eac80f8a8e5c2fda7bc180fb35a7cbf7d20be97ad619d74d7c751b0518f",
            "ef6717a5b29d11046fe594c58bf7e9a48e6933011178ac7743c60dd65f12310a",
        ),
        "error_density_spectral": (
            "cba1cb822c2c0a1665ce845479030873bf2a41437d3cba235ebc3c8c359db92b",
            "aa964d0afa564a731c7fca5920e4f4a9289a56b18cb86ac29702e8f7a267dfa6",
            "085a0b8522a7d5d1f190dc6e5bd96cbc75b2e24fe9b39944bb8fb6744f2f5dfa",
        ),
        "images": (
            "db3b967494fac5738da130c84df2da122a0f2ee1e332a5f210649cea11631ca8",
            "11a1bbf356d8cdcb20e082e48b4f810924ba7c4251267fb4dcebb0fcebf8fdf0",
            "595865911a828a361041ffc68fb13211d80fb4a13210c208f027bea4ad3f11cc",
        ),
        "renewal_images": (
            "3be70622f186beb805d5706894e4b88527fde536d96b3e098773e63e4be0fc60",
            "08ed2775804627b8afb89f74dd1d735e4c7e5e2ec88ddaa24f0630309ff6d6de",
            "6b2fe9015f3c208274cdb2ea1205a0901e3b35f5f365ed737927df1978b35ef2",
        ),
        "renewal_spectral": (
            "09a4349358b9f456b1d9d7d3de2d40341f77adbc9641ffb504b79b84ba8ecd87",
            "a2e5d0aad4c51c9f16c0bf76952204fb4d8bd9bb0c037f6281ed377ce921d9bb",
            "46e8c4b0109d2ae0b99b9624f874f62d98862580533802c01ea9f8b99c23f2fa",
        ),
        "spectral": (
            "1376ae5c539ee81b752478bd889e743fe593b9a48722ce69e162f0da37f2a9ab",
            "45f36746e8ce8d8661f691142ddf1b81f65ea226ca430edd6916e7887e93ff02",
            "a4e83ffcf83528859580d8ab581536b83f850c0130b7c7b3d7e1dd593836688c",
        ),
        "survival_images": (
            "3be5537e2a9b2aebce1ef13b0194df6296073c68f45c55da7beed5ed35d6e215",
            "68d6737cfadaad2e1bf5f148f8a03726e9c9278d5f275587aa4976c07d557155",
            "da9314698ae9c666f9346dfaae8836553b46fc15c8aa42d77301d09fd1d4f7ea",
        ),
        "survival_spectral": (
            "9de77ed1e38caaa5a60cfa7c0f2fd3916c6e4abd92d79d58194b38cfdf3dfda5",
            "7980b55e1deb289dcb59c7ce73eb7bb0308fbd6a78e33ef5d9fd563c7536ad9c",
            "1fe14cfd430115f5ea78a9d82b939c7c0d1689981a4cff7c3e610ae29ed42d90",
        ),
    }
    TABLE_PINS = {
        (1.0, 0.5): {
            "density_table.csv": "8d19dfe441581abf4982f4fdb80dc37af769ecae6f5d2fa488915395564cc9d0",
            "tau_table.csv": "9e23a6f06c21e1deec68c6d405fcd0addb91930b04ba84d13df16b11657d7f53",
            "tau_quantiles.csv": "551dce5d1c19bf188c5a9884a479311189e681520168600853bfcd3bd1ce2b48",
        },
        (1.7, 2.0): {
            "density_table.csv": "eadfbe7a5f99fef896f1eb556b597639b05243b6639103ea9009eaec4b8b8c97",
            "tau_table.csv": "ca326e649d8d497d3379efcbeddde5dd400e97bbce7a26772ff0d58250ae890e",
            "tau_quantiles.csv": "a76e5cc5e186c165ee17b58e607644bd6fae14f8d2d9eb8f4a8ba4481aa0cd0c",
        },
    }

    @pytest.fixture(autouse=True)
    def on_the_pinned_platform(self):
        here = simd_platform()
        if here != self.PLATFORM:
            pytest.skip(f"pins recorded on numpy {self.PLATFORM[0]} with {self.PLATFORM[1]}"
                        f" dispatch; this is numpy {here[0]} with {here[1]}")

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_kernel_bits_match_the_pins(self, name):
        kernel, banded = KERNELS[name]
        got = (
            kernel_digest(kernel, banded, LOW, batch=False),
            kernel_digest(kernel, banded, HIGH, batch=False),
            kernel_digest(kernel, banded, MIXED, batch=True),
        )
        assert got == self.KERNEL_PINS[name]

    @pytest.mark.parametrize("sigma,eta", sorted(TABLE_PINS))
    def test_table_bodies_match_the_pins(self, sigma, eta, tmp_path):
        assert table_digests(sigma, eta, tmp_path) == self.TABLE_PINS[sigma, eta]
