import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exitgrid import (
    InvalidDomainError,
    ModelParams,
    PathConfig,
    collect_errors,
    discretize,
    generate_path,
    simulate_batch,
)
from exitgrid.path_sim import _CHUNK, _GROUP, _run_chunk

CFG = PathConfig(t_end=0.5, n_steps=20000, n_paths=100, seed=99, etas=(0.5,))


# ---------------------------------------------------------------------------
# Reference engine: one path at a time, one Python iteration per crossing.
# It is the direct statement of the first-touch rule that the grouped,
# chunked engine must reproduce bit for bit.

_REF_BLOCK = 4096


def reference_scan(x, eta, snap):
    """Sequential first-touch scan; returns crossings, anchors and statistics."""
    n = x.size
    anchor = 0.0
    idx = 0
    crossings = []
    anchors = []
    ups = 0
    downs = 0
    max_overshoot = 0.0
    while True:
        j = idx + 1
        found = -1
        while j < n:
            hi = min(j + _REF_BLOCK, n)
            mask = np.abs(x[j:hi] - anchor) >= eta
            k = int(mask.argmax())
            if mask[k]:
                found = j + k
                break
            j = hi
        if found < 0:
            break
        move = float(x[found]) - anchor
        over = abs(move) - eta
        if over > max_overshoot:
            max_overshoot = over
        if move > 0.0:
            ups += 1
        else:
            downs += 1
        anchor = anchor + math.copysign(eta, move) if snap else float(x[found])
        crossings.append(found)
        anchors.append(anchor)
        idx = found
    return crossings, anchors, ups, downs, max_overshoot


def reference_chunk(cfg, sigma, t_idx, snap, start, stop):
    """Per-path batch loop over paths start..stop-1, in _run_chunk's output order."""
    n = stop - start
    n_t = len(t_idx)
    n_eta = len(cfg.etas)
    errors = np.empty((n, n_t, n_eta))
    counts = np.zeros((n, n_eta), dtype=np.int64)
    first = np.full((n, n_eta), np.nan)
    ups = np.zeros((n, n_eta), dtype=np.int64)
    downs = np.zeros((n, n_eta), dtype=np.int64)
    over = np.zeros((n, n_eta))
    t_idx_arr = np.asarray(t_idx, dtype=np.int64)
    for row, pidx in enumerate(range(start, stop)):
        x = generate_path(cfg, sigma, pidx)
        xt = x[t_idx_arr]
        xmax = float(np.max(np.abs(x)))
        for e, eta in enumerate(cfg.etas):
            if eta > xmax:  # the band is never left; skip the scan
                errors[row, :, e] = xt / eta
                continue
            crossings, anchors, u, d, mo = reference_scan(x, eta, snap)
            counts[row, e] = len(crossings)
            ups[row, e] = u
            downs[row, e] = d
            over[row, e] = mo
            if crossings:
                ci = np.asarray(crossings, dtype=np.int64)
                av = np.asarray(anchors)
                first[row, e] = crossings[0] * cfg.dt
                pos = np.searchsorted(ci, t_idx_arr, side="right") - 1
                anchor_at = np.where(pos >= 0, av[np.maximum(pos, 0)], 0.0)
                errors[row, :, e] = (xt - anchor_at) / eta
            else:
                errors[row, :, e] = xt / eta
    return errors, counts, first, ups, downs, over


def assert_same_bits(got, want):
    """Equal values (NaN equal to NaN) and equal bits, so signed zeros match too."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert got.tobytes() == want.tobytes()


class TestGeneratePath:
    def test_determinism(self):
        a = generate_path(CFG, 1.0, 17)
        b = generate_path(CFG, 1.0, 17)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, generate_path(CFG, 1.0, 18))
        other_seed = PathConfig(t_end=0.5, n_steps=20000, n_paths=100, seed=100, etas=(0.5,))
        assert not np.array_equal(a, generate_path(other_seed, 1.0, 17))

    def test_starts_at_zero_and_zero_sigma(self):
        x = generate_path(CFG, 1.0, 0)
        assert x[0] == 0.0
        assert x.size == CFG.n_steps + 1
        assert np.all(generate_path(CFG, 0.0, 5) == 0.0)

    def test_terminal_variance(self):
        # X(t_end) is exact regardless of the grid, so a coarse grid suffices
        cfg = PathConfig(t_end=0.5, n_steps=8, n_paths=20000, seed=5, etas=(1.0,))
        finals = np.array([generate_path(cfg, 1.0, i)[-1] for i in range(cfg.n_paths)])
        var = finals.var(ddof=1)
        se = 0.5 * np.sqrt(2.0 / (cfg.n_paths - 1))
        assert abs(var - 0.5) < 3.0 * se

    def test_config_validation(self):
        with pytest.raises(InvalidDomainError):
            PathConfig(t_end=0.0, n_steps=10, n_paths=1, seed=0)
        with pytest.raises(InvalidDomainError):
            PathConfig(t_end=1.0, n_steps=10, n_paths=1, seed=0, etas=(0.0,))
        with pytest.raises(InvalidDomainError):
            CFG.time_index(0.5 + 0.3 * CFG.dt)
        for t_end in (math.inf, math.nan):
            with pytest.raises(InvalidDomainError):
                PathConfig(t_end=t_end, n_steps=10, n_paths=1, seed=0)
        for etas in ((math.nan,), (math.inf,), (0.5, math.nan), (0.5, 0.5)):
            with pytest.raises(InvalidDomainError):
                PathConfig(t_end=1.0, n_steps=10, n_paths=1, seed=0, etas=etas)
        with pytest.raises(InvalidDomainError):
            CFG.time_index(math.nan)
        small = PathConfig(t_end=0.5, n_steps=10, n_paths=2, seed=0)
        with pytest.raises(InvalidDomainError):
            simulate_batch(small, 1.0, (0.25, 0.5, 0.25))
        for sigma in (-1.0, math.inf, math.nan):
            with pytest.raises(InvalidDomainError):
                simulate_batch(small, sigma, (0.5,))


class TestDiscretize:
    def test_no_crossing_when_band_too_wide(self):
        x = generate_path(CFG, 1.0, 3)
        tr = discretize(x, eta=100.0)
        assert tr.renewal_count == 0
        assert tr.crossing_indices.size == 0
        assert tr.terminal_error == x[-1]

    def test_crossing_invariants(self):
        x = generate_path(CFG, 1.0, 11)
        tr = discretize(x, eta=0.25)
        assert tr.renewal_count == tr.crossing_indices.size > 0
        anchor = 0.0
        prev = 0
        for ci, av in zip(tr.crossing_indices, tr.anchor_values):
            interior = x[prev + 1 : ci]
            assert np.all(np.abs(interior - anchor) < 0.25)
            assert abs(x[ci] - anchor) >= 0.25
            assert av == x[ci]
            anchor = av
            prev = ci
        assert np.all(np.diff(tr.crossing_indices) >= 1)
        assert tr.terminal_error == x[-1] - tr.anchor_values[-1]

    def test_snap_mode_anchors_on_lattice(self):
        x = generate_path(CFG, 1.0, 11)
        tr = discretize(x, eta=0.25, snap=True)
        lattice = tr.anchor_values / 0.25
        assert np.max(np.abs(lattice - np.round(lattice))) < 1e-12

    @pytest.mark.parametrize("snap", [False, True])
    def test_matches_reference_scan(self, snap):
        shifted = generate_path(CFG, 1.7, 4) + 0.3  # the anchor starts at 0, not at x[0]
        for x in (generate_path(CFG, 1.0, 11), shifted, np.array([0.0]), np.array([0.0, 1.0])):
            for eta in (0.001, 0.02, 0.25, 1.0, 100.0):
                tr = discretize(x, eta, snap=snap)
                crossings, anchors, _, _, _ = reference_scan(x, eta, snap)
                assert tr.crossing_indices.tolist() == crossings
                assert tr.anchor_values.tolist() == anchors
                assert tr.renewal_count == len(crossings)
                assert tr.terminal_error == x[-1] - (anchors[-1] if anchors else 0.0)

    def test_rejects_bad_paths(self):
        for bad in (np.array([]), np.array([0.0, np.nan, 1.0]), np.array([0.0, np.inf]),
                    np.zeros((2, 3))):
            with pytest.raises(InvalidDomainError):
                discretize(bad, 0.5)
        for eta in (0.0, math.nan, math.inf):
            with pytest.raises(InvalidDomainError):
                discretize(np.zeros(3), eta)

    def test_mean_renewal_count(self):
        # renewal theorem: E[N_t] ~ t sigma^2/eta^2 (within 5% at this scale)
        cfg = PathConfig(t_end=0.5, n_steps=200000, n_paths=1500, seed=31, etas=(0.1,))
        batch = simulate_batch(cfg, 1.0, (0.5,), workers=2)
        mean_n = batch.renewal_counts[:, 0].mean()
        assert abs(mean_n - 50.0) / 50.0 < 0.05


class TestBatch:
    def test_samples_inside_band(self, small_batch):
        for eta in small_batch.cfg.etas:
            for t in small_batch.t_eval:
                v = small_batch.sample(eta, t).values
                assert v.min() >= -1.0 and v.max() <= 1.0

    def test_worker_invariance(self):
        # 300 paths > _GROUP: the worker bound at path 150 falls inside a group
        cfg = PathConfig(t_end=0.5, n_steps=5000, n_paths=300, seed=12, etas=(0.5, 1.5))
        assert cfg.n_paths > 2 * _GROUP and (cfg.n_paths // 2) % _GROUP != 0
        a = simulate_batch(cfg, 1.0, (0.25, 0.5), workers=1)
        b = simulate_batch(cfg, 1.0, (0.25, 0.5), workers=2)
        for name in ("errors", "renewal_counts", "first_crossing", "up_counts",
                     "down_counts", "max_overshoot"):
            assert_same_bits(getattr(a, name), getattr(b, name))

    @settings(max_examples=25, deadline=None)
    @given(
        n_steps=st.one_of(
            st.integers(1, 600), st.just(_CHUNK), st.integers(_CHUNK + 1, _CHUNK + 600)
        ),
        n_paths=st.integers(1, _GROUP + 6),
        start=st.integers(0, 5),
        sigma=st.sampled_from([0.0, 1.0, 1.7]),
        log_etas=st.lists(st.floats(-3.0, 1.0), min_size=1, max_size=3, unique=True),
        snap=st.booleans(),
        extra_times=st.lists(st.floats(0.0, 1.0), max_size=4),
    )
    @example(n_steps=_CHUNK + 37, n_paths=_GROUP + 6, start=3, sigma=1.7,
             log_etas=[-3.0, -1.3, 1.0], snap=False, extra_times=[0.3, 0.01])
    @example(n_steps=_CHUNK, n_paths=_GROUP + 1, start=1, sigma=1.0,
             log_etas=[-2.0, -0.5], snap=True, extra_times=[0.999])
    def test_matches_reference_engine(self, n_steps, n_paths, start, sigma, log_etas, snap,
                                      extra_times):
        etas = tuple(dict.fromkeys(10.0**u for u in log_etas))
        cfg = PathConfig(t_end=0.5, n_steps=n_steps, n_paths=start + n_paths, seed=77,
                         etas=etas)
        # evaluation times on the grid, 0 and t_end included, in no particular order
        idx = dict.fromkeys([n_steps, *(round(f * n_steps) for f in extra_times), 0])
        t_idx = tuple(cfg.time_index(i * cfg.dt) for i in idx)
        args = (cfg, sigma, t_idx, snap, start, start + n_paths)
        for got, want in zip(_run_chunk(args), reference_chunk(*args)):
            assert_same_bits(got, want)

    def test_sign_balance(self, small_batch):
        # anchor moves are +eta or -eta with equal probability
        ups = small_batch.up_counts[:, 0].sum()
        downs = small_batch.down_counts[:, 0].sum()
        total = ups + downs
        assert abs(ups - total / 2.0) < 3.0 * np.sqrt(total) / 2.0

    def test_overshoot_bound(self, small_batch):
        dt = small_batch.cfg.dt
        assert small_batch.max_overshoot.max() < 5.0 * np.sqrt(dt)

    def test_anchor_increments_near_eta(self):
        x = generate_path(CFG, 1.0, 23)
        tr = discretize(x, eta=0.25)
        if tr.renewal_count >= 2:
            inc = np.abs(np.diff(np.concatenate(([0.0], tr.anchor_values))))
            overshoot = inc - 0.25
            assert np.all(overshoot >= -1e-15)
            assert overshoot.max() < 5.0 * np.sqrt(CFG.dt)

    def test_variance_plateau(self, small_batch):
        var = small_batch.variance(0.5, 0.5)
        n = small_batch.cfg.n_paths
        assert abs(var - 1.0 / 6.0) < 4.0 * (1.0 / 6.0) * np.sqrt(2.0 / n) + 0.003

    def test_small_time_variance_slope(self, small_batch):
        # before the first detections, Var(Z/eta) = sigma^2 t / eta^2 exactly
        var = small_batch.variance(2.0, 0.125)
        expected = 0.125 / 4.0
        assert abs(var - expected) / expected < 0.05


class TestCollectErrors:
    def test_map_shape_and_reproducibility(self):
        cfg = PathConfig(t_end=0.5, n_steps=2000, n_paths=200, seed=3, etas=(0.4,))
        params = ModelParams(1.0, 0.7)
        out1 = collect_errors(cfg, params, (0.25, 0.5))
        out2 = collect_errors(cfg, params, (0.25, 0.5))
        assert set(out1) == {0.25, 0.5}
        for t in out1:
            assert out1[t].n == 200
            assert np.array_equal(out1[t].values, out2[t].values)
            assert np.all(np.abs(out1[t].values) <= 1.0)

    def test_rejects_off_grid_times(self):
        cfg = PathConfig(t_end=0.5, n_steps=2000, n_paths=10, seed=3, etas=(0.4,))
        with pytest.raises(InvalidDomainError):
            collect_errors(cfg, ModelParams(1.0, 0.4), (0.1234567,))
