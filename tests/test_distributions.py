import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import wasserstein_distance

from exitgrid import (
    DegenerateSampleError,
    DensityGrid,
    EmpiricalSample,
    FirstPassageLaw,
    GridLaw,
    InvalidDomainError,
    ModelParams,
    ScaledNormalLaw,
    TriangularLaw,
    kde,
    scaled_normal_pdf,
    triangular_cdf,
    triangular_pdf,
    triangular_quantile,
    wasserstein1,
)
from exitgrid.renewal import solve_renewal_density, tracking_error_density

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def _quantile_range(law, tail=1e-14):
    lo, hi = law.support()
    return (
        lo if np.isfinite(lo) else float(law.ppf(tail)),
        hi if np.isfinite(hi) else float(law.ppf(1.0 - tail)),
    )


def brute_force_w1(f, g, kinks=(), cells=400_000):
    """Independent oracle for ``int |F - G|`` between two laws.

    16-point Gauss-Legendre of ``|F - G|`` on ``cells`` uniform cells over the
    union of both quantile ranges, plus the closed-form tails beyond it.  The
    CDFs' kinks are added as cell edges: across a kink the rule converges only
    as the square of the cell width.
    """
    (lo1, hi1), (lo2, hi2) = _quantile_range(f), _quantile_range(g)
    lo, hi = min(lo1, lo2), max(hi1, hi2)
    kinks = np.asarray(kinks, dtype=float)
    edges = np.union1d(np.linspace(lo, hi, cells + 1), kinks[(kinks > lo) & (kinks < hi)])
    total = 0.0
    for start in range(0, edges.size - 1, 50_000):  # bounded memory
        e = edges[start : start + 50_001]
        mid, half = 0.5 * (e[1:] + e[:-1]), 0.5 * np.diff(e)
        x = mid[:, None] + half[:, None] * _GL_X
        total += float(np.sum(half[:, None] * _GL_W * np.abs(f.cdf(x) - g.cdf(x))))
    total += abs(float(f.sf_integral_upper(hi)) - float(g.sf_integral_upper(hi)))
    total += abs(float(f.cdf_antideriv(lo)) - float(g.cdf_antideriv(lo)))
    return total


# law pairs for the oracle test: the analytic error density against the
# triangular limit and the wide-threshold normal, plus pairs of reference laws
_W1_SIGMAS = (1.0, 1.7)
_W1_TIMES = (0.05, 0.2, 1.0, 2.0, 5.0, 10.0, 50.0)
_W1_PAIRS = [
    f"error-density-s{sigma}-T{T}-vs-{ref}"
    for sigma in _W1_SIGMAS
    for T in _W1_TIMES
    for ref in ("triangular", "normal")
] + ["triangular-vs-triangular", "normal-vs-normal", "grid201-vs-triangular"]
_TRI_KINKS = (-1.0, 0.0, 1.0)


@pytest.fixture(scope="module")
def law_pairs():
    """Name -> (f, g, CDF kinks of f and g)."""
    tri = TriangularLaw()
    z = np.linspace(-1.0, 1.0, 1001)
    tri_kinks = np.union1d(z, _TRI_KINKS)
    pairs = {}
    for sigma in _W1_SIGMAS:
        p1 = ModelParams(sigma, 1.0)
        rg = solve_renewal_density(FirstPassageLaw(p1), horizon=52.5)
        for T in _W1_TIMES:
            law = tracking_error_density(p1, rg, T, z).law()
            pairs[f"error-density-s{sigma}-T{T}-vs-triangular"] = (law, tri, tri_kinks)
            pairs[f"error-density-s{sigma}-T{T}-vs-normal"] = (
                law, ScaledNormalLaw(sigma, T, 1.0), z
            )
    pairs["triangular-vs-triangular"] = (tri, tri, _TRI_KINKS)
    pairs["normal-vs-normal"] = (
        ScaledNormalLaw(1.0, 0.25, 1.0), ScaledNormalLaw(1.0, 1.0, 1.0), ()
    )
    zg = np.linspace(-1.0, 1.0, 201)
    pairs["grid201-vs-triangular"] = (
        GridLaw(DensityGrid(zg, triangular_pdf(zg))), tri, np.union1d(zg, _TRI_KINKS)
    )
    return pairs


class TestTriangular:
    def test_pdf_values(self):
        assert triangular_pdf(0.0) == 1.0
        assert triangular_pdf(1.0) == 0.0
        assert triangular_pdf(-1.0) == 0.0
        assert triangular_pdf(2.5) == 0.0

    def test_cdf_values(self):
        assert triangular_cdf(-1.0) == 0.0
        assert triangular_cdf(0.0) == 0.5
        assert triangular_cdf(1.0) == 1.0

    def test_quantile_roundtrip(self):
        ps = np.linspace(0.1, 0.9, 9)
        assert np.max(np.abs(triangular_cdf(triangular_quantile(ps)) - ps)) < 1e-12

    @given(st.floats(0.001, 0.999))
    @settings(max_examples=100, deadline=None)
    def test_quantile_roundtrip_property(self, p):
        assert triangular_cdf(triangular_quantile(p)) == pytest.approx(p, abs=1e-12)

    def test_variance(self):
        law = TriangularLaw()
        v, _ = quad(lambda z: z * z * law.pdf(z), -1.0, 1.0)
        assert v == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert law.variance == pytest.approx(1.0 / 6.0)


class TestScaledNormal:
    def test_sd_from_parameters(self):
        law = ScaledNormalLaw(1.0, 0.5, 4.0)
        assert law.sd == pytest.approx(np.sqrt(0.5) / 4.0)
        assert law.sd == pytest.approx(0.17678, abs=1e-5)

    def test_symmetry_and_mass(self):
        zs = np.linspace(0.0, 1.0, 11)
        assert np.allclose(
            scaled_normal_pdf(zs, 1.0, 0.5, 2.0), scaled_normal_pdf(-zs, 1.0, 0.5, 2.0)
        )
        mass, _ = quad(lambda z: scaled_normal_pdf(z, 1.0, 0.5, 2.0), -np.inf, np.inf)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidDomainError):
            scaled_normal_pdf(0.0, 0.0, 0.5, 1.0)


class TestKde:
    def test_two_point_symmetry(self):
        grid = np.linspace(-2.0, 2.0, 401)
        est = kde(EmpiricalSample(np.array([-0.7, 0.7])), grid)
        assert np.max(np.abs(est.grid.f - est.grid.f[::-1])) < 1e-12

    def test_recovers_triangular(self):
        rng = np.random.default_rng(314)
        n = 100000
        draws = rng.random(n) - rng.random(n)  # difference of uniforms
        est = kde(EmpiricalSample(draws), np.linspace(-1.3, 1.3, 521))
        assert np.all(est.grid.f >= 0.0)
        d = wasserstein1(GridLaw(est.grid), TriangularLaw())
        assert d < 0.01

    def test_wider_bandwidth_is_smoother(self):
        rng = np.random.default_rng(9)
        sample = EmpiricalSample(rng.normal(0.0, 1.0, 400))
        grid = np.linspace(-4.0, 4.0, 801)
        est = kde(sample, grid)
        # doubling the bandwidth must reduce the total variation
        wide = np.exp(
            -0.5 * ((grid[None, :] - sample.values[:, None]) / (2 * est.bandwidth)) ** 2
        ).sum(axis=0) / (sample.n * 2 * est.bandwidth * np.sqrt(2 * np.pi))
        tv_base = np.abs(np.diff(est.grid.f)).sum()
        tv_wide = np.abs(np.diff(wide)).sum()
        assert tv_wide < tv_base

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSampleError):
            kde(EmpiricalSample(np.zeros(10)), np.linspace(-1, 1, 11))
        with pytest.raises(InvalidDomainError):
            kde(EmpiricalSample(np.array([1.0])), np.linspace(-1, 1, 11))


class TestWasserstein:
    def test_identical_laws(self):
        assert wasserstein1(TriangularLaw(), TriangularLaw()) == pytest.approx(0.0, abs=1e-11)
        s = EmpiricalSample(np.array([0.1, 0.4, 0.4, 2.0]))
        assert wasserstein1(s, s) == 0.0

    def test_point_masses(self):
        a = EmpiricalSample(np.array([1.3]))
        b = EmpiricalSample(np.array([-0.2]))
        assert wasserstein1(a, b) == pytest.approx(1.5, abs=1e-15)

    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_point_mass_shift_property(self, a, b):
        d = wasserstein1(EmpiricalSample(np.array([a])), EmpiricalSample(np.array([b])))
        assert d == pytest.approx(abs(a - b), rel=1e-12, abs=1e-12)

    def test_uniform_vs_point_mass(self):
        uniform = GridLaw(DensityGrid(np.linspace(0.0, 1.0, 11), np.ones(11)))
        d = wasserstein1(EmpiricalSample(np.array([0.5])), uniform)
        assert d == pytest.approx(0.25, abs=1e-12)

    def test_two_point_sample_vs_triangular(self):
        # piecewise integration of |F - G| has the closed-form value 1/4 here
        d = wasserstein1(EmpiricalSample(np.array([-0.5, 0.5])), TriangularLaw())
        assert d == pytest.approx(0.25, abs=1e-12)

    def test_empirical_pair_matches_scipy(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            a = rng.normal(0, 1, rng.integers(3, 400))
            b = rng.normal(0.4, 1.3, rng.integers(3, 400))
            ours = wasserstein1(EmpiricalSample(a), EmpiricalSample(b))
            ref = wasserstein_distance(a, b)
            assert ours == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        s = EmpiricalSample(rng.normal(0, 0.4, 200))
        tri = TriangularLaw()
        assert wasserstein1(s, tri) == wasserstein1(tri, s)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(123)
        laws = [
            TriangularLaw(),
            ScaledNormalLaw(1.0, 0.5, 2.0),
            EmpiricalSample(rng.normal(0.0, 0.35, 500)),
        ]
        d01 = wasserstein1(laws[0], laws[1])
        d12 = wasserstein1(laws[1], laws[2])
        d02 = wasserstein1(laws[0], laws[2])
        assert d02 <= d01 + d12 + 1e-8
        assert d01 <= d02 + d12 + 1e-8
        assert d12 <= d01 + d02 + 1e-8

    def test_empirical_convergence_with_sample_size(self):
        # larger samples from the law must usually be closer to it
        tri = TriangularLaw()
        better = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            small = EmpiricalSample(rng.random(1000) - rng.random(1000))
            big = EmpiricalSample(rng.random(100000) - rng.random(100000))
            if wasserstein1(big, tri) < wasserstein1(small, tri):
                better += 1
        assert better >= 18

    @pytest.mark.parametrize("name", _W1_PAIRS)
    def test_law_pair_matches_brute_force(self, law_pairs, name):
        f, g, kinks = law_pairs[name]
        d = wasserstein1(f, g)
        assert d == pytest.approx(brute_force_w1(f, g, kinks), abs=1e-12)
        assert d == pytest.approx(wasserstein1(g, f), abs=1e-15)

    def test_law_pair_with_cdfs_equal_at_a_probe(self):
        # regression case for exact-zero probes: both CDFs are exactly 0.5 at
        # the probe x = 0, so no sign-change bracket contains that crossing
        tri, normal = TriangularLaw(), ScaledNormalLaw(1.0, 0.5, 2.0)
        assert tri.cdf(0.0) == normal.cdf(0.0) == 0.5
        d = wasserstein1(tri, normal)
        assert d == pytest.approx(brute_force_w1(tri, normal, _TRI_KINKS), abs=1e-12)
        assert d == pytest.approx(wasserstein1(normal, tri), abs=1e-15)
        assert d == pytest.approx(5.30e-2, abs=1e-4)

    def test_normal_pair_closed_form(self):
        # d_W between two centred normals is |s1 - s2| * sqrt(2/pi)
        a = ScaledNormalLaw(1.0, 0.25, 1.0)
        b = ScaledNormalLaw(1.0, 1.0, 1.0)
        expected = (1.0 - 0.5) * np.sqrt(2.0 / np.pi)
        assert wasserstein1(a, b) == pytest.approx(expected, abs=1e-14)


class TestContainers:
    def test_density_grid_validation(self):
        with pytest.raises(InvalidDomainError):
            DensityGrid(np.array([0.0, 1.0, 1.5]), np.ones(3))  # non-uniform
        with pytest.raises(InvalidDomainError):
            DensityGrid(np.array([0.0, 1.0]), np.array([1.0, -2.0]))

    def test_empirical_sorted(self):
        s = EmpiricalSample(np.array([3.0, -1.0, 2.0]))
        assert np.array_equal(s.values, np.array([-1.0, 2.0, 3.0]))
        assert s.n == 3

    def test_grid_law_cdf_properties(self):
        g = GridLaw(DensityGrid(np.linspace(-1, 1, 201), triangular_pdf(np.linspace(-1, 1, 201))))
        zs = np.linspace(-1.2, 1.2, 200)
        c = g.cdf(zs)
        assert np.all(np.diff(c) >= -1e-15)
        assert c[0] == 0.0 and c[-1] == 1.0
        assert np.max(np.abs(c - triangular_cdf(zs))) < 1e-4
