import concurrent.futures
import dataclasses
import hashlib
import itertools
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy import stats

from exitgrid import (
    EmpiricalSample,
    InvalidDomainError,
    ModelParams,
    PathConfig,
    generate_path,
    simulate_batch,
)
from exitgrid import path_sim
from exitgrid.density import _images
from exitgrid.experiments import FIG2_ETAS, FIG3_T_EVAL
from exitgrid.first_passage import _unit_density, _unit_survival
from exitgrid.path_sim import (
    _CHUNK,
    _GROUP,
    _ROWS,
    MAX_PATH_STEPS,
    MAX_RESULTS,
    _chunk_ends,
    _exit_fractions,
    _exit_ratio,
    _extend,
    _generators,
    _groups,
    _run_groups,
    _seed_words,
    _stay_ratio,
)

from conftest import DESK_T_EVAL, simd_platform

CFG = PathConfig(sigma=1.0, etas=(0.5,), t_eval=(0.5,), n_steps=20000, n_paths=100, seed=99)


# ---------------------------------------------------------------------------
# Reference engine: one path at a time, one Python iteration per crossing.
# It is the direct statement of the first-touch rule that the grouped,
# chunked engine must reproduce bit for bit.

_REF_BLOCK = 4096


def reference_scan(x, eta):
    """Sequential first-touch scan; returns the crossing indices and the anchors set there."""
    n = x.size
    anchor = 0.0
    idx = 0
    crossings = []
    anchors = []
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
        anchor = float(x[found])
        crossings.append(found)
        anchors.append(anchor)
        idx = found
    return crossings, anchors


def reference_resume(rng, row, n, scale, x, u):
    """Fill columns ``1..n`` of ``row`` forward from the value ``x`` at ``u < n`` steps in.

    The engine's former one-row fill, kept as the statement of a fill that
    starts inside a chunk: the first grid point after ``u``, column ``k``,
    gets variance ``(k - u) scale^2``, and columns ``1..k-1`` repeat its
    value.
    """
    k = int(u) + 1
    seg = row[k - 1 : n + 1]
    rng.standard_normal(out=seg[1:])
    seg[1:] *= scale
    seg[1] *= math.sqrt(k - u)
    seg[0] = x
    np.cumsum(seg, out=seg)
    row[1:k] = seg[1]


def anchor_moves(anchors):
    """Signed anchor increments, the first one from the start at 0."""
    return np.diff(np.concatenate(([0.0], anchors)))


def reference_chunk(cfg, start, stop):
    """Per-path batch loop over paths start..stop-1, in run_paths' output order."""
    n = stop - start
    n_t = len(cfg.t_idx)
    n_eta = len(cfg.etas)
    errors = np.empty((n, n_t, n_eta))
    counts = np.zeros((n, n_eta), dtype=np.int64)
    t_idx_arr = np.asarray(cfg.t_idx, dtype=np.int64)
    for row, pidx in enumerate(range(start, stop)):
        x = generate_path(cfg, pidx)
        xt = x[t_idx_arr]
        xmax = float(np.max(np.abs(x)))
        for e, eta in enumerate(cfg.etas):
            if eta > xmax:  # the band is never left; skip the scan
                errors[row, :, e] = xt / eta
                continue
            crossings, anchors = reference_scan(x, eta)
            counts[row, e] = len(crossings)
            if crossings:
                ci = np.asarray(crossings, dtype=np.int64)
                av = np.asarray(anchors)
                pos = np.searchsorted(ci, t_idx_arr, side="right") - 1
                anchor_at = np.where(pos >= 0, av[np.maximum(pos, 0)], 0.0)
                errors[row, :, e] = (xt - anchor_at) / eta
            else:
                errors[row, :, e] = xt / eta
    return errors, counts


def reference_first_touches(buf, win, n, tr, rows, slot) -> None:
    """The scan round as it was before it kept one hit mask per call: the oracle of the scan.

    Each round gathers the windows, compares them with every row's eta
    broadcast over its window, and allocates a new hit mask.
    """
    anchor, count = tr.anchor, tr.count
    width = win.shape[-1]
    start = np.ones(rows.size, dtype=np.int64)
    while rows.size:
        p, a, eta = slot[rows % tr.n], anchor[rows], tr.etas[rows // tr.n]
        dev = win[p, start]
        dev -= a[:, None]
        hit = np.abs(dev, out=dev) >= eta[:, None]
        del dev
        k = hit.argmax(axis=1)
        found = hit[np.arange(rows.size), k]
        last = start + np.where(found, k, width - 1)
        if found.any():
            r = rows[found]
            count[r] += 1
            anchor[r] = buf[p[found], last[found]]
        keep = last < n
        rows, start = rows[keep], last[keep] + 1


def run_paths(cfg, start, stop):
    """Errors and counts of paths start..stop-1, in the groups one process runs them in.

    The result arrays start as NaN and -1, so a row the engine leaves
    unwritten cannot match the reference engine.
    """
    errors = np.full((stop - start, len(cfg.t_idx), len(cfg.etas)), np.nan)
    counts = np.full((stop - start, len(cfg.etas)), -1, dtype=np.int64)
    _run_groups(cfg, start + _groups(stop - start), errors, counts)
    return errors, counts


def engine_bytes(cfg, paths):
    """The most the engine may hold besides its results, in groups of ``paths`` paths.

    One buffer, which holds a full block of a chunk and its window pad; one
    scan round, its gathered doubles and their hit mask; and one group's
    state at 2 KB a path (a generator alone takes about 1.1 KB), plus 256 KB.
    """
    width = min(path_sim._window(eta, cfg.sigma * math.sqrt(cfg.dt)) for eta in cfg.etas)
    rows = min(path_sim._ROWS, paths)
    gather = min(len(cfg.etas) * rows, path_sim._GATHER // width) * width
    return 8 * rows * (1 + _CHUNK + width) + 9 * gather + 2048 * paths + 2**18


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_same_law(got, want):
    """Errors by KS and counts by chi-square, column by column, at 1 %.

    ``got`` and ``want`` are (errors, counts) pairs of independent batches
    with the same thresholds and evaluation times.
    """
    (got_errors, got_counts), (want_errors, want_counts) = got, want
    for e in range(got_counts.shape[1]):
        for k in range(got_errors.shape[1]):
            assert stats.ks_2samp(got_errors[:, k, e], want_errors[:, k, e]).pvalue > 0.01
        # the counts from the largest c with 100 at or above it on share a bin
        tail = np.cumsum(np.bincount(np.concatenate([got_counts[:, e],
                                                     want_counts[:, e]]))[::-1])[::-1]
        top = int(np.flatnonzero(tail >= 100).max())
        table = [np.bincount(np.minimum(c[:, e], top), minlength=top + 1)
                 for c in (got_counts, want_counts)]
        assert stats.chi2_contingency(table).pvalue > 0.01


def assert_same_bits(got, want):
    """Equal values (NaN equal to NaN) and equal bits, so signed zeros match too."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert got.tobytes() == want.tobytes()


class TestGeneratePath:
    def test_determinism(self):
        a = generate_path(CFG, 17)
        b = generate_path(CFG, 17)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, generate_path(CFG, 18))
        assert not np.array_equal(a, generate_path(dataclasses.replace(CFG, seed=100), 17))

    def test_starts_at_zero_and_zero_sigma(self):
        x = generate_path(CFG, 0)
        assert x[0] == 0.0
        assert x.size == CFG.n_steps + 1
        assert np.all(generate_path(dataclasses.replace(CFG, sigma=0.0), 5) == 0.0)

    def test_terminal_variance(self):
        # X(t_end) is exact regardless of the grid, so a coarse grid suffices
        cfg = PathConfig(sigma=1.0, etas=(1.0,), t_eval=(0.5,), n_steps=8, n_paths=20000, seed=5)
        finals = np.array([generate_path(cfg, i)[-1] for i in range(cfg.n_paths)])
        var = finals.var(ddof=1)
        se = 0.5 * np.sqrt(2.0 / (cfg.n_paths - 1))
        assert abs(var - 0.5) < 3.0 * se

    def test_config_validation(self):
        # construction checks every field of a batch, and nothing else does
        bad = [
            dict(t_eval=(0.0,)), dict(t_eval=(math.inf,)), dict(t_eval=(math.nan,)),
            dict(t_eval=()), dict(etas=()), dict(etas=(0.0,)), dict(etas=(math.nan,)),
            dict(etas=(math.inf,)), dict(etas=(0.5, math.nan)), dict(etas=(0.5, 0.5)),
            dict(sigma=-1.0), dict(sigma=math.inf), dict(sigma=math.nan),
            dict(t_eval=(0.25, 0.5, 0.25)), dict(n_steps=0), dict(n_paths=0), dict(seed=-1),
        ]
        for fields in bad:
            with pytest.raises(InvalidDomainError):
                dataclasses.replace(CFG, **fields)
        with pytest.raises(InvalidDomainError, match="is not on the simulation grid"):
            dataclasses.replace(CFG, t_eval=(0.25 + 0.3 * CFG.dt, 0.5))
        # a subnormal step would put 2.5e-323 at index 5 of 4: t_end must be index n_steps
        for t_end, n_steps in ((5e-324, 2), (2.5e-323, 4)):
            with pytest.raises(InvalidDomainError, match="grid step .* smallest normal double"):
                dataclasses.replace(CFG, t_eval=(t_end,), n_steps=n_steps)
        with pytest.raises(TypeError):  # every field is required
            PathConfig(sigma=1.0, t_eval=(0.5,), n_steps=10, n_paths=1, seed=0)
        # a time past t_end = 0.5, 0.7 a multiple of dt among them, is off the grid
        for t in (0.5 + 0.3 * CFG.dt, math.nan, math.inf, 0.7, -1e308):
            with pytest.raises(InvalidDomainError, match="not on the simulation grid"):
                CFG.time_index(t)
        # the slack is a fraction of a step: 2e-7 of one is off the grid
        coarse = dataclasses.replace(CFG, n_steps=1000)
        for t in (1e-10, -1e-10, 0.25 + 1e-10, 0.5 + 1e-10):
            with pytest.raises(InvalidDomainError, match="not on the simulation grid"):
                coarse.time_index(t)
        assert (coarse.t_end, coarse.t_idx) == (0.5, (1000,))


class TestSeeding:
    """A group's generators, seeded in one pass, are ``default_rng([seed, p])`` path by path."""

    # one to six 32-bit words of seed: the entropy shorter than, as long as
    # and longer than numpy's pool of four words, with the path index
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**69 + 12345, 2**70 - 1, 2**150 + 3]
    PATHS = np.array([0, 1, 2**31, 2**32 - 1, 7, 999])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_words_are_the_seed_sequence_state(self, seed):
        want = [np.random.SeedSequence([seed, int(p)]).generate_state(4, np.uint64)
                for p in self.PATHS]
        got = _seed_words(seed, self.PATHS)
        assert got.dtype == np.uint64 and got.shape == (self.PATHS.size, 4)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("seed", [0, 2**32, 2**70 - 1])
    def test_generators_draw_the_default_rng_streams(self, seed):
        gens = _generators(seed, self.PATHS)
        assert gens.dtype == object and gens.shape == self.PATHS.shape
        for g, p in zip(gens, self.PATHS.tolist()):
            ref = np.random.default_rng([seed, p])
            assert g.standard_normal(5).tobytes() == ref.standard_normal(5).tobytes()
            assert g.random() == ref.random()
            assert g.standard_exponential() == ref.standard_exponential()

    def test_generate_path_is_its_default_rng_stream(self):
        last = CFG.n_paths - 1
        z = np.random.default_rng([CFG.seed, last]).standard_normal(CFG.n_steps)
        want = np.concatenate(([0.0], np.cumsum(z * (CFG.sigma * math.sqrt(CFG.dt)))))
        assert generate_path(CFG, last).tobytes() == want.tobytes()
        for index in (-1, CFG.n_paths, 2**32):  # paths of the batch only: indices below 2**32
            with pytest.raises(InvalidDomainError, match="path_index must be in"):
                generate_path(CFG, index)


@pytest.mark.parametrize("n_steps", [100000, 200000])
@pytest.mark.parametrize("times", [FIG3_T_EVAL, DESK_T_EVAL])
def test_figure_times_sit_on_the_grid(n_steps, times):
    cfg = PathConfig(sigma=1.0, etas=(0.5,), t_eval=times, n_steps=n_steps, n_paths=1, seed=0)
    assert cfg.t_idx == tuple(round(t * n_steps / cfg.t_end) for t in times)
    assert max(cfg.t_idx) == n_steps


class TestFirstTouchRule:
    """The rule as ``reference_scan`` states it; the engine matches that scan bit for bit."""

    def test_no_crossing_when_band_too_wide(self):
        x = generate_path(CFG, 3)
        crossings, anchors = reference_scan(x, eta=100.0)
        assert crossings == [] and anchors == []

    def test_crossing_invariants(self):
        x = generate_path(CFG, 11)
        crossings, anchors = reference_scan(x, eta=0.25)
        assert len(crossings) == len(anchors) > 0
        anchor = 0.0
        prev = 0
        for ci, av in zip(crossings, anchors):
            interior = x[prev + 1 : ci]
            assert np.all(np.abs(interior - anchor) < 0.25)
            assert abs(x[ci] - anchor) >= 0.25
            assert av == x[ci]
            anchor = av
            prev = ci
        assert np.all(np.diff(crossings) >= 1)
        assert np.all(np.abs(x[prev + 1 :] - anchor) < 0.25)

    def test_anchor_increments_near_eta(self):
        x = generate_path(CFG, 23)
        _, anchors = reference_scan(x, eta=0.25)
        assert len(anchors) >= 2
        overshoot = np.abs(anchor_moves(anchors)) - 0.25
        assert np.all(overshoot >= -1e-15)
        assert overshoot.max() < 5.0 * np.sqrt(CFG.dt)

    def test_sign_balance(self):
        # anchor moves are +eta or -eta with equal probability; about 50 per path
        moves = np.concatenate([anchor_moves(reference_scan(generate_path(CFG, i), 0.1)[1])
                                for i in range(CFG.n_paths)])
        ups, total = np.count_nonzero(moves > 0.0), moves.size
        assert abs(ups - total / 2.0) < 3.0 * np.sqrt(total) / 2.0

    def test_mean_renewal_count(self):
        # renewal theorem: E[N_t] ~ t sigma^2/eta^2 (within 5% at this scale)
        cfg = PathConfig(sigma=1.0, etas=(0.1,), t_eval=(0.5,), n_steps=200000, n_paths=1500,
                         seed=31)
        batch = simulate_batch(cfg, workers=2)
        mean_n = batch.renewal_counts[:, 0].mean()
        assert abs(mean_n - 50.0) / 50.0 < 0.05


class TestBatch:
    def test_samples_inside_band(self, small_batch):
        for eta in small_batch.cfg.etas:
            for t in small_batch.cfg.t_eval:
                v = small_batch.sample(eta, t).values
                assert v.min() >= -1.0 and v.max() <= 1.0

    def test_worker_invariance(self, monkeypatch):
        # at a cap of 512 paths, one process runs 1025 paths in the groups
        # 0-340, 341-682 and 683-1024, and two processes run the same groups
        # as three pool tasks; a pool has at least one task per process, so
        # two processes split 300 paths at path 150, inside the one group of
        # one process.  The cap only sets the groups, so a smaller one keeps
        # this batch small
        monkeypatch.setattr(path_sim, "_GROUP", 512)
        cfg = PathConfig(sigma=1.0, etas=(0.5, 1.5), t_eval=(0.25, 0.5), n_steps=5000,
                         n_paths=1025, seed=12)
        assert _groups(cfg.n_paths).tolist() == [0, 341, 683, 1025]
        assert _groups(cfg.n_paths, 2).tolist() == [0, 341, 683, 1025]
        assert _groups(300).tolist() == [0, 300] and _groups(300, 2).tolist() == [0, 150, 300]
        assert _groups(512).tolist() == [0, 512] and _groups(513).tolist() == [0, 256, 513]
        a = simulate_batch(cfg, workers=1)
        b = simulate_batch(cfg, workers=2)
        few = simulate_batch(dataclasses.replace(cfg, n_paths=300), workers=2)
        for name in ("errors", "renewal_counts"):
            assert_same_bits(getattr(a, name), getattr(b, name))
            assert_same_bits(getattr(few, name), getattr(a, name)[:300])

    def test_pool_is_capped_at_usable_cpus(self, monkeypatch):
        # an in-process stand-in for the executor: no process is started, and
        # it records how many the batch asked for and the paths of each task
        asked, tasks = [], []

        class InlinePool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                tasks.append([job[1:] for job in jobs])
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        cfg = PathConfig(sigma=1.0, etas=(0.3, 0.6), t_eval=(0.25, 0.5), n_steps=300,
                         n_paths=40, seed=4)
        wide = simulate_batch(cfg, workers=64)
        assert asked == [3]
        # a task is one group: 3 for 3 processes, or more when groups are small
        monkeypatch.setattr(path_sim, "_GROUP", 8)
        simulate_batch(dataclasses.replace(cfg, t_eval=(0.5,)), workers=2)
        assert asked == [3, 2]
        one = simulate_batch(cfg, workers=1)
        assert asked == [3, 2]
        assert tasks == [[(0, 13), (13, 26), (26, 40)], [(8 * k, 8 * k + 8) for k in range(5)]]
        for name in ("errors", "renewal_counts"):
            assert_same_bits(getattr(wide, name), getattr(one, name))

    def test_work_ceiling(self):
        dataclasses.replace(CFG, n_steps=MAX_PATH_STEPS, n_paths=1)
        with pytest.raises(InvalidDomainError, match="paths x steps"):
            dataclasses.replace(CFG, n_steps=MAX_PATH_STEPS // 2 + 1, n_paths=2)

    def test_extreme_scales(self):
        # sigma^2 and eta^2 overflow, but the step size sigma sqrt(dt) = 1e49
        # and the window ratio eta / step are doubles; ten steps of 3e306,
        # whose sum could pass the double range, are refused by the
        # configuration, before a batch or a path is drawn
        cfg = PathConfig(sigma=1e200, etas=(1e200,), t_eval=(1e-300,), n_steps=10, n_paths=2,
                         seed=0)
        batch = simulate_batch(cfg)
        assert np.all(np.isfinite(batch.errors)) and not batch.renewal_counts.any()
        # a band radius over the step size past the double range, and band
        # edges anchor +- eta past it: the walk treats both as infinite
        for sigma, etas in ((1e-10, (1e300,)), (1.0, (1.7e308, 0.5))):
            cfg = PathConfig(sigma=sigma, etas=etas, t_eval=(0.5, 1.0), n_steps=5000, n_paths=3,
                             seed=1)
            batch = simulate_batch(cfg)
            assert np.all(np.isfinite(batch.errors)) and not batch.renewal_counts[:, 0].any()
        with pytest.raises(InvalidDomainError, match="past half the double range"):
            PathConfig(sigma=1e307, etas=(0.5,), t_eval=(1.0,), n_steps=10, n_paths=1, seed=0)

    def test_result_ceiling(self):
        with pytest.raises(InvalidDomainError, match="result cells"):
            PathConfig(sigma=1.0, etas=(0.5, 1.0), t_eval=(0.5,), n_steps=2,
                       n_paths=MAX_RESULTS // 2 + 1, seed=0)

    def test_scan_gathers_at_most_the_cap(self, monkeypatch):
        # 60 thresholds x 20 paths are 1200 rows; with a cap of 100 doubles and
        # a 32-point window a scan call takes 3 rows, and nothing else changes
        cfg = PathConfig(sigma=1.0, etas=tuple(0.02 + 0.01 * k for k in range(60)),
                         t_eval=(0.25, 0.5), n_steps=1500, n_paths=20, seed=5)
        want = simulate_batch(cfg)
        gathered = []
        scan = path_sim._first_touches

        def recording(buf, win, n, tr, rows, slot):
            gathered.append(rows.size * win.shape[-1])
            scan(buf, win, n, tr, rows, slot)

        monkeypatch.setattr(path_sim, "_first_touches", recording)
        monkeypatch.setattr(path_sim, "_GATHER", 100)
        got = simulate_batch(cfg)
        assert max(gathered) == 3 * 32
        for name in ("errors", "renewal_counts"):
            assert_same_bits(getattr(got, name), getattr(want, name))

    # FIG3_T_EVAL's early times cut chunks of 40 steps or fewer here, whose
    # pad is most of the buffer
    SHORT_CHUNKS = PathConfig(sigma=1.0, etas=(0.05, 0.1, 0.2), t_eval=FIG3_T_EVAL,
                              n_steps=10000, n_paths=_ROWS, seed=3)

    def test_short_chunks_hold_one_buffer(self):
        cfg = self.SHORT_CHUNKS
        errors = np.empty((cfg.n_paths, len(cfg.t_idx), len(cfg.etas)))
        counts = np.empty((cfg.n_paths, len(cfg.etas)), dtype=np.int64)
        peak = traced_peak(lambda: _run_groups(cfg, _groups(cfg.n_paths), errors, counts))
        assert peak <= engine_bytes(cfg, cfg.n_paths)

    # fig2's fifteen thresholds at t = 0.5: sigma sqrt(_CHUNK dt) = 0.16 is
    # below eta 0.5, so every path starts on a sphere, and most scans are skipped
    FIG2_LIKE = PathConfig(sigma=1.0, etas=FIG2_ETAS, t_eval=(0.5,), n_steps=20000,
                           n_paths=600, seed=21)

    def test_full_walking_group_holds_at_most_engine_bytes(self):
        cfg = dataclasses.replace(self.FIG2_LIKE, n_paths=_GROUP)
        assert _groups(cfg.n_paths).tolist() == [0, _GROUP]
        errors = np.empty((cfg.n_paths, len(cfg.t_idx), len(cfg.etas)))
        counts = np.empty((cfg.n_paths, len(cfg.etas)), dtype=np.int64)
        peak = traced_peak(lambda: _run_groups(cfg, _groups(cfg.n_paths), errors, counts))
        assert peak <= engine_bytes(cfg, _GROUP)

    def test_batch_holds_its_results_once(self, monkeypatch):
        # smaller groups and buffer, so that the 1.7 MB of results are more
        # than the engine holds besides them
        monkeypatch.setattr(path_sim, "_ROWS", 32)
        monkeypatch.setattr(path_sim, "_GROUP", 128)
        cfg = dataclasses.replace(self.SHORT_CHUNKS, n_steps=2000, n_paths=2000,
                                  etas=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6))
        results = cfg.n_paths * len(cfg.etas) * 8 * (len(FIG3_T_EVAL) + 1)
        engine = engine_bytes(cfg, 128)
        assert results > engine
        peak = traced_peak(lambda: simulate_batch(cfg, workers=1))
        assert peak <= results + engine

    @pytest.mark.parametrize("n", [1, _GROUP - 1, _GROUP, _GROUP + 1, 3 * _GROUP + 1])
    def test_groups_hold_at_most_the_cap(self, n):
        # a worker holds the state of one group at a time, so this bounds its
        # memory whatever the number of paths
        bounds = _groups(n)
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == n
        assert sizes.size == -(-n // _GROUP)
        assert sizes.max() <= _GROUP and sizes.max() - sizes.min() <= 1

    # The law test's grid and thresholds, where every path starts on a sphere
    # and some walk again, and a forward configuration: eta 0.05 is below sigma sqrt(_CHUNK
    # dt) = 0.71, so no path walks and all 400 are awake in every chunk, more
    # than _ROWS.  This pins the blocks and the slot map bit for bit.
    @pytest.mark.parametrize("n_steps,t_idx,etas,walks", [
        (8192, (2048, 4096, 6144, 8192), (0.8, 1.5), True),
        (2 * _CHUNK + 5, (0, 1000, 2 * _CHUNK + 5), (0.05, 0.3), False),
    ])
    def test_batch_does_not_depend_on_rows_or_group(self, monkeypatch, n_steps, t_idx, etas,
                                                    walks):
        cfg = PathConfig(sigma=1.0, etas=etas, t_eval=tuple(i / n_steps for i in t_idx),
                         n_steps=n_steps, n_paths=400, seed=11)
        assert cfg.t_idx == t_idx
        buffers, fills = [], []
        scan, fill = path_sim._first_touches, path_sim._fill_chunk

        def recording_scan(buf, win, n, tr, rows, slot):
            buffers.append(buf.shape[0])
            scan(buf, win, n, tr, rows, slot)

        def recording_fill(rngs, xs, n, *rest):
            fills.append((xs.shape[0], n))
            return fill(rngs, xs, n, *rest)

        monkeypatch.setattr(path_sim, "_first_touches", recording_scan)
        monkeypatch.setattr(path_sim, "_fill_chunk", recording_fill)
        if not walks:
            monkeypatch.setattr(path_sim, "_walk", mock.Mock(side_effect=AssertionError("walked")))
        want = run_paths(cfg, 0, cfg.n_paths)
        # more than _ROWS paths are awake in some chunk in both configurations
        assert max(buffers) <= _ROWS and max(rows for rows, _ in fills) == _ROWS
        if not walks:
            # 400 awake paths fill blocks of 150, 150 and 100 in chunks of 1000,
            # 24, 1024 and 5 steps, each block its whole chunk
            assert fills == [(rows, n) for n in (1000, 24, _CHUNK, 5) for rows in (150, 150, 100)]
        buffers.clear()
        fills.clear()
        monkeypatch.setattr(path_sim, "_ROWS", 7)
        monkeypatch.setattr(path_sim, "_GROUP", 23)
        got = run_paths(cfg, 0, cfg.n_paths)
        assert max(buffers) <= 7 and max(rows for rows, _ in fills) == 7
        for g, w in zip(got, want):
            assert_same_bits(g, w)

    def test_blocks_mix_carried_rows_with_resumed_walkers(self, monkeypatch):
        # A walker that left its sphere inside a chunk is resumed there, beside
        # rows carried in at the chunk start.  Blocks of one row are each all
        # carried or all resumed; blocks of 7 rows and of all 60 mix the two,
        # and every split gives the same bits
        cfg = PathConfig(sigma=1.0, etas=(0.8, 1.5), t_eval=(0.25, 0.5, 0.75, 1.0),
                         n_steps=8192, n_paths=60, seed=11)
        starts = []
        fill = path_sim._fill_chunk

        def recording_fill(rngs, xs, n, width, scale, x, u, *rest):
            starts.append(u.copy())
            return fill(rngs, xs, n, width, scale, x, u, *rest)

        monkeypatch.setattr(path_sim, "_fill_chunk", recording_fill)
        runs = {}
        for rows in (1, 7, _ROWS):
            starts.clear()
            monkeypatch.setattr(path_sim, "_ROWS", rows)
            runs[rows] = run_paths(cfg, 0, cfg.n_paths)
            mixed = [u for u in starts if (u == 0.0).any() and (u > 0.0).any()]
            assert mixed if rows > 1 else not mixed
        for rows in (7, _ROWS):
            for g, w in zip(runs[rows], runs[1]):
                assert_same_bits(g, w)

    # A walking batch, pinned bit for bit: the engine reads sigma and dt only
    # through the step size sigma sqrt(dt), and the band only against r over
    # it.  Here sigma sqrt(_CHUNK dt) = 0.016 and eta 0.05 bounds every band
    # radius, so paths walk, wake up inside chunks and sleep past chunk ends.
    # (At sigma = 1 it would be 0.16, and no path would walk.)
    WALKING = PathConfig(sigma=0.1, etas=(0.05, 0.3, 0.6), t_eval=(0.25, 0.5), n_steps=20000,
                         n_paths=400, seed=11)

    @staticmethod
    def scaled(cfg, sigma=1.0, eta=1.0, t=1.0):
        return dataclasses.replace(cfg, sigma=cfg.sigma * sigma,
                                   etas=tuple(e * eta for e in cfg.etas),
                                   t_eval=tuple(u * t for u in cfg.t_eval))

    @pytest.fixture(scope="class")
    def walking(self):
        walk, calls = path_sim._walk, []

        def recording(rngs, x, t, lo, hi, end, *rest):
            x, t = walk(rngs, x, t, lo, hi, end, *rest)
            calls.append((x.size, np.count_nonzero(t > end), np.count_nonzero(t < end)))
            return x, t

        with mock.patch.object(path_sim, "_walk", recording):
            got = run_paths(self.WALKING, 0, self.WALKING.n_paths)
        steps, slept, woken = np.sum(calls, axis=0)
        assert steps > self.WALKING.n_paths and slept > 0 and woken > 0
        return got

    @pytest.mark.parametrize("factor", [
        dict(sigma=2.0, eta=2.0),  # the band and the steps doubled
        dict(sigma=0.5, t=4.0),  # dt four times as long, the steps the same
        dict(sigma=2.0**-10, t=4.0**10),  # the same, ten times over
    ])
    def test_walking_batch_is_invariant_under_exact_scalings(self, walking, factor):
        cfg = self.scaled(self.WALKING, **factor)
        errors, counts = run_paths(cfg, 0, cfg.n_paths)
        assert_same_bits(errors, walking[0])
        assert_same_bits(counts, walking[1])

    def test_walking_batch_scaled_by_three(self, walking):
        # sigma and eta times 3 round differently from the original: the
        # counts are the same, and the errors agree to rounding.  The exit
        # times, up to 2e4 steps, round to about 4e-12 of a step, and a walker
        # that leaves just before a grid point takes its first step with sd
        # scale sqrt(k - u), which turns that into errors of up to 6e-12
        cfg = self.scaled(self.WALKING, sigma=3.0, eta=3.0)
        errors, counts = run_paths(cfg, 0, cfg.n_paths)
        assert_same_bits(counts, walking[1])
        assert np.max(np.abs(errors - walking[0])) < 1e-10

    def test_walking_batch_does_not_depend_on_rows(self, monkeypatch, walking):
        monkeypatch.setattr(path_sim, "_ROWS", 9)
        monkeypatch.setattr(path_sim, "_GROUP", 150)
        errors, counts = run_paths(self.WALKING, 0, self.WALKING.n_paths)
        assert_same_bits(errors, walking[0])
        assert_same_bits(counts, walking[1])

    def test_walking_batch_does_not_depend_on_the_group_cap(self, monkeypatch):
        # 600 paths are one group at the cap, two of 300 at a cap of 512 and
        # four of 150 at a cap of 150; the first chunk walks every path of a group
        cfg = self.FIG2_LIKE
        walk, walked = path_sim._walk, []

        def recording(rngs, x, *rest):
            walked.append(x.size)
            return walk(rngs, x, *rest)

        monkeypatch.setattr(path_sim, "_walk", recording)
        want = run_paths(cfg, 0, cfg.n_paths)
        assert max(walked) == cfg.n_paths and want[1].any()
        for cap in (512, 150):
            walked.clear()
            monkeypatch.setattr(path_sim, "_GROUP", cap)
            got = run_paths(cfg, 0, cfg.n_paths)
            assert max(walked) == cfg.n_paths // -(-cfg.n_paths // cap)
            for g, w in zip(got, want):
                assert_same_bits(g, w)

    # a group cap below the engine's, which splits the paths of the examples
    # into more than one group without a batch of thousands of paths
    _SMALL_GROUP = 512

    # Forward configurations only: the smallest eta, which bounds every
    # path's band radius, is below sigma sqrt(_CHUNK dt) >= 0.56 sigma (at
    # most 1624 steps over t_end = 0.5), or sigma is 0, so no path walks on
    # spheres and the engine draws generate_path's stream.  The walk's law
    # is checked against this engine in TestWalkOnSpheres.
    @settings(max_examples=25, deadline=None)
    @given(
        n_steps=st.one_of(
            st.integers(1, 600), st.just(_CHUNK), st.integers(_CHUNK + 1, _CHUNK + 600)
        ),
        n_paths=st.integers(1, 2 * _ROWS + 10),
        start=st.integers(0, 5),
        sigma=st.sampled_from([0.0, 1.0, 1.7]),
        log_etas=st.tuples(st.floats(-3.0, -0.3), st.lists(st.floats(-3.0, 1.0), max_size=2))
        .map(lambda first_rest: [first_rest[0], *first_rest[1]]),
        extra_times=st.lists(st.floats(0.0, 1.0), max_size=4),
    )
    @example(n_steps=_CHUNK + 37, n_paths=70, start=3, sigma=1.7,
             log_etas=[-3.0, -1.3, 1.0], extra_times=[0.3, 0.01])
    @example(n_steps=_CHUNK, n_paths=65, start=1, sigma=1.0,
             log_etas=[-2.0, -0.5], extra_times=[0.999])
    # eta 0.02 and 2 in one batch: scan windows of 32 and 512 points; two and
    # three buffer blocks
    @example(n_steps=2 * _CHUNK + 1, n_paths=_ROWS + 1, start=2, sigma=1.0,
             log_etas=[math.log10(0.02), math.log10(2.0)], extra_times=[0.5])
    @example(n_steps=_CHUNK + 300, n_paths=2 * _ROWS + 1, start=0, sigma=1.0,
             log_etas=[math.log10(2.0), math.log10(0.02)], extra_times=[0.25])
    # at the cap of _SMALL_GROUP, two groups of 256 and 257 paths, each
    # filled in two blocks
    @example(n_steps=_CHUNK + 5, n_paths=_SMALL_GROUP + 1, start=4, sigma=1.0,
             log_etas=[-1.0, 0.0], extra_times=[0.3])
    # evaluation steps 512 and 513 make a 1-step chunk, shorter than the
    # 32-point window, and eta 0.5 rows cross and then scan on to a chunk end
    @example(n_steps=2 * _CHUNK + 1, n_paths=70, start=1, sigma=1.0,
             log_etas=[math.log10(0.02), math.log10(0.5)], extra_times=[0.25, 0.2505])
    def test_matches_reference_engine(self, n_steps, n_paths, start, sigma, log_etas,
                                      extra_times):
        etas = tuple(dict.fromkeys(10.0**u for u in log_etas))
        # evaluation times on the grid, 0 and t_end = 0.5 included, in no particular order
        idx = tuple(dict.fromkeys([n_steps, *(round(f * n_steps) for f in extra_times), 0]))
        cfg = PathConfig(sigma=sigma, etas=etas, t_eval=tuple(0.5 * i / n_steps for i in idx),
                         n_steps=n_steps, n_paths=start + n_paths, seed=77)
        assert cfg.t_idx == idx
        args = (cfg, start, start + n_paths)
        with mock.patch.object(path_sim, "_walk", side_effect=AssertionError("a path walked")), \
                mock.patch.object(path_sim, "_GROUP", self._SMALL_GROUP):
            got_all = run_paths(*args)
        for got, want in zip(got_all, reference_chunk(*args)):
            assert_same_bits(got, want)

    def test_chunk_ends_are_lazy(self):
        # 10**11 steps hold about 4.9e7 chunk ends; taking the first few must
        # not build the rest
        tracemalloc.start()
        try:
            first = list(itertools.islice(_chunk_ends((10**11, 5, 0)), 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == [5, _CHUNK, 2 * _CHUNK]
        assert peak < 1_000_000

    # the last evaluation index is n_steps
    @pytest.mark.parametrize("t_idx", [
        (1,), (0, 1), (3, _CHUNK), (_CHUNK, 0, 7, _CHUNK + 1),
        (2 * _CHUNK, 7, 7, 5000, 3 * _CHUNK), (9000, 4 * _CHUNK + 5, 4000, 1),
    ])
    def test_chunk_ends_match_sorted_set(self, t_idx):
        n_steps = max(t_idx)
        want = sorted({i for i in t_idx if i > 0} | {*range(_CHUNK, n_steps, _CHUNK), n_steps})
        assert list(_chunk_ends(t_idx)) == want

    def test_variance_plateau(self, small_batch):
        var = small_batch.variance(0.5, 0.5)
        n = small_batch.cfg.n_paths
        assert abs(var - 1.0 / 6.0) < 4.0 * (1.0 / 6.0) * np.sqrt(2.0 / n) + 0.003

    def test_small_time_variance_slope(self, small_batch):
        # before the first detections, Var(Z/eta) = sigma^2 t / eta^2 exactly
        var = small_batch.variance(2.0, 0.125)
        expected = 0.125 / 4.0
        assert abs(var - expected) / expected < 0.05


class TestPinnedBits:
    """SHA-256 of a batch's errors and counts: a change that moves a stream renews them.

    The walk draws through ``np.exp``, whose bits differ between SIMD
    dispatch levels (AVX2 against AVX-512 moves them), so the pins hold on
    the platform they were recorded on and the test skips elsewhere.
    """

    PLATFORM = ("2.4.6", "AVX512_SPR")
    PINS = {
        # forward only: eta 0.02 is below sigma sqrt(_CHUNK dt) = 0.32
        "forward": (
            PathConfig(sigma=1.0, etas=(0.02, 0.05), t_eval=(0.25, 0.5), n_steps=5000,
                       n_paths=200, seed=1),
            "be9704daa29021b48fe8aec02097df262b2f4490f9da0a8cec3651088a9d2cb5",
            "734af6c21ee8862c4996f1453c676f01934bae4a83b0b977d3caf91e09ce9b41",
        ),
        "walking": (
            TestBatch.WALKING,
            "8269235cf82d383e9432bad332c589b440fb08c702fcee249f5523601cf15361",
            "1af68955186242c6cb677f7854bd9db4f6fdc11dfe6cad5b6e1c564e7cce7c49",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_batch_bits_match_the_pins(self, name):
        here = simd_platform()
        if here != self.PLATFORM:
            pytest.skip(f"pins recorded on numpy {self.PLATFORM[0]} with {self.PLATFORM[1]}"
                        f" dispatch; this is numpy {here[0]} with {here[1]}")
        cfg, errors, counts = self.PINS[name]
        batch = simulate_batch(cfg)
        assert hashlib.sha256(batch.errors.tobytes()).hexdigest() == errors
        assert hashlib.sha256(batch.renewal_counts.tobytes()).hexdigest() == counts


class TestScanRound:
    """The scan against its oracle, on buffers and row sets made up for the scan alone."""

    N = 2000  # columns 1..N of the buffer are scanned
    SCALE = math.sqrt(0.5 / 100000)  # mc_fine's step: sigma = 1, dt = 5e-6

    def scan_both(self, etas, paths, seed, keep=0.8):
        """One scan call by the engine and by the oracle, from the same tracks.

        Buffer rows hold random walks of ``SCALE`` steps in a shuffled slot
        map, every row starts from an anchor within ``eta / 2`` of its path's start
        and a random count, and a random ``keep`` share of the rows is live,
        in increasing order.  Returns both tracks, the live rows, the
        oracle's crossings per row in the call, and the scan window.
        """
        rng = np.random.default_rng(seed)
        width = min(path_sim._window(eta, self.SCALE) for eta in etas)
        buf = np.empty((paths, 1 + self.N + width))
        buf[:, 0] = rng.normal(0.0, 0.1, paths)
        buf[:, 1 : self.N + 1] = rng.standard_normal((paths, self.N)) * self.SCALE
        np.cumsum(buf[:, : self.N + 1], axis=1, out=buf[:, : self.N + 1])
        buf[:, self.N + 1 :] = buf[:, self.N : self.N + 1].copy()
        win = sliding_window_view(buf, width, axis=1)
        slot = rng.permutation(paths)
        want = path_sim._Tracks(np.asarray(etas), paths)
        size = want.anchor.size  # rows e * paths + p
        path, eta = np.tile(np.arange(paths), len(etas)), np.repeat(etas, paths)
        want.anchor[:] = buf[slot[path], 0] + rng.uniform(-0.5, 0.5, size) * eta
        want.count[:] = before = rng.integers(0, 5, size)
        got = path_sim._Tracks(np.asarray(etas), paths)
        got.anchor[:], got.count[:] = want.anchor, want.count
        rows = np.flatnonzero(rng.random(size) < keep)
        reference_first_touches(buf, win, self.N, want, rows.copy(), slot)
        path_sim._first_touches(buf, win, self.N, got, rows, slot)
        return got, want, rows, want.count - before, width

    @pytest.mark.parametrize("etas,paths", [
        ((0.1, 0.02, 0.05), 60),  # thresholds in no order; the smallest sets the window
        ((0.05,), 150),
        (tuple(0.01 + 0.01 * k for k in range(15))[::-1], 20),  # fifteen, the widest first
    ])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_oracle(self, etas, paths, seed):
        got, want, rows, crossings, _ = self.scan_both(etas, paths, seed)
        assert rows.size < want.anchor.size and crossings.sum() > rows.size
        assert_same_bits(got.count, want.count)
        assert_same_bits(got.anchor, want.anchor)

    def test_widest_threshold_leaves_mid_call(self):
        # eta 3 never crosses, so its rows step one window a round and leave
        # after ceil(N / width) rounds; rows of eta 0.02 cross more often than
        # that, and a round finds at most one crossing a row, so they are
        # still scanned after the last eta-3 row has left
        got, want, rows, crossings, width = self.scan_both((0.02, 3.0), 100, 3, keep=1.0)
        narrow, wide = want.by_path(crossings).T
        assert rows.size == want.anchor.size and (wide == 0).all()
        assert narrow.max() > -(-self.N // width)
        assert_same_bits(got.count, want.count)
        assert_same_bits(got.anchor, want.anchor)

    @pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                        reason="minor page faults are counted as on Linux with glibc malloc")
    def test_scan_rounds_map_no_new_pages(self):
        # mc_fine's thresholds and early times on a shorter grid, in a new
        # interpreter that imports the engine alone.  The buffer, results and
        # generators take 1 200-1 800 minor page faults, as the interpreter
        # compiles the sources or reads their cached bytecode.  The round
        # that allocated a new hit mask after each gather took 19 900-25 800,
        # and 7 600 or more with per-threshold compares: glibc gave the
        # gathers' pages back to the system and mapped them again round after
        # round
        code = f"""if True:
            import resource
            from exitgrid.path_sim import PathConfig, simulate_batch
            cfg = PathConfig(sigma=1.0, etas=(0.02, 0.05, 0.1),
                             t_eval={[t for t in FIG3_T_EVAL if t <= 0.2]}, n_steps=40000,
                             n_paths=300, seed=7)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            simulate_batch(cfg)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
        src = os.path.dirname(os.path.dirname(path_sim.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert int(out.stdout.split()[-1]) < 3500


class TestWalkOnSpheres:
    """The walk-on-spheres rows keep the law of the forward grid engine."""

    @pytest.mark.parametrize("a", [1.0, 1.3, 2.0, 5.0, 20.0])
    def test_stay_ratio_is_the_killed_over_the_free_density(self, a):
        z = np.linspace(-0.999 * a, 0.999 * a, 201)
        v = np.full(z.shape, 1.0 / a**2)
        y = np.abs(z) / a
        free = np.exp(-y * y / (2.0 * v)) / np.sqrt(2.0 * math.pi * v)
        # the image form of p1 converges at every v <= 1 that the walk uses
        want = _images(v, y) / free
        got = _stay_ratio(np.full(z.shape, a), z)
        assert np.max(np.abs(got - want)) < 1e-13
        assert np.all((got >= 0.0) & (got <= 1.0 + 1e-15))

    def test_exit_ratio_is_the_density_over_twice_the_levy_term(self):
        q = np.linspace(1.0, 300.0, 400)
        t = 1.0 / q
        levy = np.exp(-0.5 * q) / np.sqrt(2.0 * math.pi * t**3)
        got = _exit_ratio(q)
        assert np.max(np.abs(got - _unit_density(t) / (2.0 * levy))) < 1e-13
        assert np.all((got > 0.0) & (got <= 1.0))

    def test_ratios_are_their_series_term_by_term(self):
        # the image tables are module constants; each ratio is the series as
        # written term by term, in the same order, bit for bit
        def stay(a, z):
            c = np.array([2.0, -2.0, 4.0, -4.0, 6.0, -6.0, 8.0, -8.0, 10.0, -10.0])[:, None]
            ca = c * a
            with np.errstate(over="ignore"):
                terms = (-1.0) ** (c / 2) * np.exp(-0.5 * ca * (ca - 2.0 * z))
            acc = np.ones(z.shape)
            for term in terms:
                acc += term
            return acc

        def exit_(q):
            k = np.arange(1.0, 5.0)[:, None]
            terms = (-1.0) ** k * (2 * k + 1) * np.exp(-2.0 * k * (k + 1) * q)
            acc = np.ones(q.shape)
            for term in terms:
                acc += term
            return acc

        rng = np.random.default_rng(8)
        a = np.concatenate((1.0 + rng.exponential(2.0, 20000), [1.0, 1e10, 1e200, np.inf]))
        z = a * rng.uniform(-1.0, 1.0, a.size)
        z[-1] = 0.3
        assert_same_bits(_stay_ratio(a, z), stay(a, z))
        q = np.concatenate((1.0 + rng.exponential(3.0, 20000), [1.0, 400.0, 1e300, np.inf]))
        assert_same_bits(_exit_ratio(q), exit_(q))

    @pytest.mark.parametrize("a", [1.0, 1.5, 3.0])
    def test_exit_fractions_follow_the_exit_law_before_the_chunk_end(self, a):
        # v * share is the unit exit time given an exit before v = 1/a^2
        n = 20000
        gens = np.full(n, np.random.default_rng(7), dtype=object)
        share = _exit_fractions(gens, np.arange(n), np.full(n, a))
        v = 1.0 / a**2
        exit_by = 1.0 - _unit_survival(np.array([v]))[0]
        cdf = lambda t: (1.0 - _unit_survival(np.atleast_1d(t))) / exit_by  # noqa: E731
        assert stats.kstest(v * share, cdf).pvalue > 0.01

    def test_resume_from_the_carry_is_the_forward_fill(self):
        # at u = 0 the fill is the carry plus the running sum of the scaled
        # draws, and the one-row reference fill gives the same bits
        got = np.empty((1, 300))
        _extend([np.random.default_rng(4)], got, 299, 0.01, np.array([0.3]), np.zeros(1))
        want = np.empty(300)
        want[0] = 0.3
        np.random.default_rng(4).standard_normal(out=want[1:])
        want[1:] *= 0.01
        np.cumsum(want, out=want)
        assert_same_bits(got[0], want)
        ref = np.empty(300)
        reference_resume(np.random.default_rng(4), ref, 299, 0.01, 0.3, 0.0)
        assert_same_bits(got[0, 1:], ref[1:])

    def test_block_fill_is_the_one_row_fill_at_every_start(self):
        # rows that start at the chunk start, inside its first step, on a
        # grid point and past it, in one block whose stale buffer values
        # would overflow if they were scaled; each row is the reference fill
        # of its own generator bit for bit over the chunk's columns
        n, scale = 300, 10.0
        u = np.array([0.0, 0.25, 0.999, 1.0, 1.5, 7.3, n - 0.5])
        x = np.array([0.3, -0.0, -1.2, 2.5, 0.0, 1e-3, -4.0])
        rows = np.full((u.size, n + 1), 1e308)
        with np.errstate(all="raise"):
            _extend([np.random.default_rng(j) for j in range(u.size)], rows, n, scale, x, u)
        for j in range(u.size):
            want = np.full(n + 1, np.nan)
            reference_resume(np.random.default_rng(j), want, n, scale, x[j], u[j])
            assert_same_bits(rows[j, 1:], want[1:])

    @staticmethod
    def compare_with_reference(monkeypatch, n_steps, t_idx, seeds):
        """Errors by KS and counts by chi-square against the reference engine, at 1 %.

        t_end is 1 and the etas (0.8, 1.5); ``t_idx`` ends at ``n_steps``.  The
        two engines run on the independent seeds ``seeds``.  Returns the rows
        passed to ``_walk`` over all its calls, and how many of them sleep past
        their chunk end.
        """
        steps, spans, ratios = [], [], []
        walk, stay_ratio = path_sim._walk, path_sim._stay_ratio

        def recording(rngs, x, t, lo, hi, end, *rest):
            x, t = walk(rngs, x, t, lo, hi, end, *rest)
            steps.append(x.size)
            spans.append(np.count_nonzero(t > end))
            return x, t

        def ratio(a, z):
            ratios.append(a.min())
            return stay_ratio(a, z)

        monkeypatch.setattr(path_sim, "_walk", recording)
        monkeypatch.setattr(path_sim, "_stay_ratio", ratio)
        n = 4000
        cfg = PathConfig(sigma=1.0, etas=(0.8, 1.5), t_eval=tuple(i / n_steps for i in t_idx),
                         n_steps=n_steps, n_paths=n, seed=seeds[0])
        got = run_paths(cfg, 0, n)
        want = reference_chunk(dataclasses.replace(cfg, seed=seeds[1]), 0, n)
        # every step's horizon is one its radius allows: r / (sigma sqrt(E - t)) >= 1
        assert min(ratios) >= 1.0 - 1e-12
        assert_same_law(got, want)
        return sum(steps), sum(spans)

    def test_law_matches_reference_engine(self, monkeypatch):
        # sigma sqrt(_CHUNK dt) = 0.35 < 0.8: every path starts on a sphere,
        # and one within 0.45 of its eta-0.8 anchor walks again; with an
        # evaluation time at every chunk end no horizon spans two chunks
        steps, spans = self.compare_with_reference(monkeypatch, 8 * _CHUNK,
                                                   tuple(k * _CHUNK for k in range(1, 9)),
                                                   (11, 12))
        assert steps > 4 * 4000  # more than half the (path, chunk) pairs walk
        assert spans == 0

    def test_threshold_has_one_law_alone_and_in_a_batch(self, monkeypatch):
        # sigma sqrt(_CHUNK dt) = 0.16: eta 0.6 alone starts on a sphere, while
        # beside eta 0.05 its band is at most 0.05 wide and no path walks.  So
        # the draws of its column depend on its batch, and its law does not
        cfg = PathConfig(sigma=1.0, etas=(0.6,), t_eval=(0.25, 0.5), n_steps=20000,
                         n_paths=400, seed=11)
        alone = run_paths(cfg, 0, cfg.n_paths)
        monkeypatch.setattr(path_sim, "_walk", mock.Mock(side_effect=AssertionError("walked")))
        errors, counts = run_paths(dataclasses.replace(cfg, etas=(0.05, 0.3, 0.6), seed=12), 0,
                                   cfg.n_paths)
        assert_same_law(alone, (errors[:, :, 2:], counts[:, 2:]))

    def test_law_with_horizons_past_the_chunk_end(self, monkeypatch):
        # sigma sqrt(_CHUNK dt) = 0.25: a path at its eta-0.8 anchor may sleep
        # ten chunks, but not past the evaluation time 3000, inside a chunk
        steps, spans = self.compare_with_reference(monkeypatch, 16384, (3000, 10240, 16384),
                                                   (13, 14))
        assert spans > 0.5 * steps  # most steps sleep through the next chunk at least

    def test_horizon_end_on_the_band_edge_is_scanned(self, monkeypatch):
        # the first walk puts every path on the edge of its eta-1.5 band, asleep
        # until the chunk end 4096; that end value detects, so each path
        # counts it and re-anchors there, with no row drawn for the chunk
        walk = path_sim._walk
        first = []

        def to_edge(rngs, x, t, lo, hi, end, *rest):
            if first:
                return walk(rngs, x, t, lo, hi, end, *rest)
            first.append(end)
            return hi.copy(), np.full(x.size, 2.0 * _CHUNK)

        monkeypatch.setattr(path_sim, "_walk", to_edge)
        cfg = PathConfig(sigma=1.0, etas=(1.5,), t_eval=(0.5, 1.0), n_steps=4 * _CHUNK,
                         n_paths=20, seed=3)
        errors, counts = run_paths(cfg, 0, 20)
        assert first == [_CHUNK]
        assert np.all(counts[:, 0] >= 1)
        assert np.all(errors[:, 0, 0] == 0.0)

    def test_wide_band_is_brownian(self):
        # with eta = 1e3 no path detects, and every chunk is one sphere step
        sigma, n = 1.3, 3000
        cfg = PathConfig(sigma=sigma, etas=(1e3,), t_eval=(0.25, 1.0), n_steps=4096, n_paths=n,
                         seed=5)
        batch = simulate_batch(cfg)
        assert not batch.renewal_counts.any()
        for k, t in enumerate(cfg.t_eval):
            x = batch.errors[:, k, 0] * 1e3
            assert stats.kstest(x, "norm", args=(0.0, sigma * math.sqrt(t))).pvalue > 0.01


def collect_errors(
    cfg: PathConfig,
    params: ModelParams,
    workers: int = 1,
) -> dict[float, EmpiricalSample]:
    """Normalized tracking-error samples for ``params`` at each evaluation time of ``cfg``."""
    run_cfg = dataclasses.replace(cfg, sigma=params.sigma, etas=(params.eta,))
    batch = simulate_batch(run_cfg, workers=workers)
    return {t: batch.sample(params.eta, t) for t in run_cfg.t_eval}


class TestCollectErrors:
    def test_map_shape_and_reproducibility(self):
        cfg = PathConfig(sigma=1.0, etas=(0.4,), t_eval=(0.25, 0.5), n_steps=2000, n_paths=200,
                         seed=3)
        params = ModelParams(1.0, 0.7)
        out1 = collect_errors(cfg, params)
        out2 = collect_errors(cfg, params)
        assert set(out1) == {0.25, 0.5}
        for t in out1:
            assert out1[t].n == 200
            assert np.array_equal(out1[t].values, out2[t].values)
            assert np.all(np.abs(out1[t].values) <= 1.0)

    def test_rejects_off_grid_times(self):
        cfg = PathConfig(sigma=1.0, etas=(0.4,), t_eval=(0.5,), n_steps=2000, n_paths=10, seed=3)
        with pytest.raises(InvalidDomainError, match="not on the simulation grid"):
            collect_errors(dataclasses.replace(cfg, t_eval=(0.1234567, 0.5)), ModelParams(1.0, 0.4))
