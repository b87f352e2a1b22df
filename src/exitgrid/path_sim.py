"""Monte Carlo engine for the first-exit discretization scheme.

Paths of ``X_t = sigma * W_t`` live on a fine uniform grid, one
deterministic random substream per path index, so results are bit-identical
for a given (seed, path index) regardless of how paths are distributed over
workers.

A worker splits its paths into equal groups of at most ``_GROUP`` (150)
paths, so 300 paths make two groups of 150, not 128 + 128 + 44; every group
costs a full set of scan rounds.  A group advances in lockstep, one time
chunk at a time.  A chunk ends every ``_CHUNK`` (2048) grid steps and at
every evaluation time, so the anchor in force at an evaluation time is the
anchor at the end of its chunk.  Each chunk is drawn into one reused
``(group, 1 + chunk + window)`` buffer whose column 0 carries the previous
chunk's last value; with the widest window (512) that bounds it at
``150 x 2561 x 8`` bytes (3.1 MB) per worker, and full path matrices are
never held.

The scan state is flat over (threshold, path) rows, so one loop of numpy
rounds serves every threshold of a group: a chunk costs the largest number
of rounds over its thresholds, not their sum.  A row enters a chunk's scan
only if the chunk's extrema for its path hold a point at least ``eta`` from
its anchor; that is the one skip rule.  Each round then finds at most one
crossing per live row in a window after its last crossing, or moves the row
on by one window; the window is the smallest over the batch's thresholds
(about twice the mean gap between crossings), so a round gathers
``rows x window`` doubles.  The live rows of a chunk are scanned in calls
of at most ``_GATHER / window`` rows, so a round never gathers more than the
buffer holds (3.1 MB), whatever the number of thresholds; the rows of five
thresholds at the widest window fit in one call.  A row leaves the loop at
the end of the chunk.

The crossing convention is grid-first-touch: a detection is recorded at the
first grid index where the path has moved at least ``eta`` from the current
anchor, and the new anchor is the path value at that index.  This keeps the
normalized error inside [-1, 1] at every grid time.
"""

from __future__ import annotations

import heapq
import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .distributions import EmpiricalSample
from .errors import InvalidDomainError

__all__ = ["MAX_PATH_STEPS", "MAX_RESULTS", "PathConfig", "SimulationBatch", "generate_path",
           "simulate_batch"]

_GROUP = 150  # most paths advanced in lockstep; a worker's paths split into equal groups
_CHUNK = 2048  # grid steps drawn per path between scans
_WINDOW = (32, 512)  # clip of the scan window, in grid points
_GATHER = _GROUP * (1 + _CHUNK + _WINDOW[1])  # most doubles a scan round gathers: one buffer

# resource ceilings, checked before anything is allocated: the grid steps
# drawn (paths x steps; the full protocol draws 50 000 x 200 000 = 1e10) and
# the cells of the result array (paths x evaluation times x thresholds, 8
# bytes each)
MAX_PATH_STEPS = 2 * 10**10
MAX_RESULTS = 10**7

# numpy's ziggurat normals are below 14 in magnitude (its tail draw is at
# most 3.66 + 36.8 / 3.66), so a path of n steps of size s stays in 14 n s
_NORMAL_MAX = 14.0


@dataclass(frozen=True)
class PathConfig:
    """Simulation protocol: horizon, grid resolution, batch size, seed, thresholds."""

    t_end: float
    n_steps: int
    n_paths: int
    seed: int
    etas: tuple[float, ...] = (0.5,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "etas", tuple(float(e) for e in np.atleast_1d(self.etas)))
        if not (0.0 < self.t_end < math.inf):
            raise InvalidDomainError("t_end must be finite and > 0")
        if self.n_steps < 1 or self.n_paths < 1:
            raise InvalidDomainError("n_steps and n_paths must be >= 1")
        if self.dt == 0.0:
            raise InvalidDomainError(f"grid step {self.t_end:g} / {self.n_steps} underflows to 0")
        if self.seed < 0:
            raise InvalidDomainError("seed must be a non-negative integer")
        if len(self.etas) == 0 or not all(0.0 < e < math.inf for e in self.etas):
            raise InvalidDomainError("etas must be non-empty, finite and positive")
        if len(set(self.etas)) != len(self.etas):
            raise InvalidDomainError(f"etas must be distinct, got {self.etas}")
        work = int(self.n_paths) * int(self.n_steps)
        if work > MAX_PATH_STEPS:
            raise InvalidDomainError(
                f"paths x steps = {work:.3g} is above the ceiling of {MAX_PATH_STEPS:.0e}"
                " grid steps"
            )

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    def time_index(self, t: float) -> int:
        """Grid index of an evaluation time; the time must sit on the grid, up to ``t_end``."""
        slack = 1e-9 * max(self.t_end, 1.0)
        if t - self.t_end > slack:
            raise InvalidDomainError(
                f"t={t} is past the simulation horizon t_end={self.t_end}"
            )
        # t / dt is finite above -t_end; a t at or below it, or nan, is off the grid
        idx = int(round(t / self.dt)) if t > -self.t_end else -1
        if idx < 0 or idx > self.n_steps or abs(idx * self.dt - t) > slack:
            raise InvalidDomainError(f"t={t} is not on the simulation grid (dt={self.dt})")
        return idx


def _check_path(cfg: PathConfig, sigma: float) -> None:
    """InvalidDomainError for a ``sigma`` that is not finite and >= 0, or a path that could
    pass half the double range."""
    if not (0.0 <= sigma < math.inf):
        raise InvalidDomainError(f"sigma must be finite and >= 0, got {sigma}")
    reach = _NORMAL_MAX * cfg.n_steps * (sigma * math.sqrt(cfg.dt))
    if not reach < 0.5 * np.finfo(float).max:  # x - anchor must stay a double too
        raise InvalidDomainError(
            f"sigma = {sigma:g} with t_end = {cfg.t_end:g} is too large: a path of {cfg.n_steps}"
            f" steps could reach {reach:.3g}, past half the double range"
        )


def _extend(rngs, rows: np.ndarray, n: int, scale: float) -> None:
    """Draw ``n`` steps per row and accumulate them onto the value in column 0.

    This is the one definition of the path stream: step ``k`` of a path is
    the ``k``-th standard normal of its substream times ``sigma sqrt(dt)``,
    and the path is their running sum.  Drawing in chunks with the carry in
    column 0 reproduces one long draw and cumsum bit for bit.
    """
    for rng, row in zip(rngs, rows):
        rng.standard_normal(out=row[1 : n + 1])
    rows[:, 1 : n + 1] *= scale
    np.cumsum(rows[:, : n + 1], axis=1, out=rows[:, : n + 1])


def generate_path(cfg: PathConfig, sigma: float, path_index: int) -> np.ndarray:
    """One Wiener path on the grid, from the substream keyed by (seed, path index).

    ``sigma = 0`` is allowed here (degenerate all-zero path) even though the
    analytic modules require a positive diffusion coefficient.
    """
    _check_path(cfg, sigma)
    if path_index < 0:
        raise InvalidDomainError("path_index must be >= 0")
    x = np.empty((1, cfg.n_steps + 1))
    x[0, 0] = -0.0  # -0.0 + s == s for every double s, so x[1] is the first step exactly
    rng = np.random.default_rng([cfg.seed, path_index])
    _extend([rng], x, cfg.n_steps, sigma * math.sqrt(cfg.dt))
    x[0, 0] = 0.0
    return x[0]


def _window(eta: float, scale: float) -> int:
    """Scan window: twice the mean gap between crossings, ``(eta/scale)^2``, clipped.

    ``scale`` is the step size ``sigma sqrt(dt)``.  Twice the mean lets most
    crossings be found in the first window while keeping the per-round work
    small.
    """
    ratio = eta / scale if scale > 0.0 else math.inf
    return int(min(max(2.0 * ratio * ratio, _WINDOW[0]), _WINDOW[1]))


def _groups(n: int) -> np.ndarray:
    """Bounds of the equal groups, of at most ``_GROUP`` paths each, of ``n`` paths."""
    k = -(-n // _GROUP)
    return np.arange(k + 1) * n // k


def _may_cross(hi, lo, anchor, eta):
    """Whether a set with extrema ``hi``/``lo`` holds a point with ``|x - anchor| >= eta``.

    Exact for the rounded predicate: ``x -> fl(x - anchor)`` is monotone, so
    ``fl(hi - anchor)`` is the largest rounded deviation and ``fl(lo -
    anchor)`` the smallest.
    """
    return (hi - anchor >= eta) | (lo - anchor <= -eta)


class _Tracks:
    """Scan state of a group: flat arrays over rows ``e * paths + p`` (threshold e, path p)."""

    def __init__(self, etas: np.ndarray, n: int) -> None:
        self.n = n
        self.eta = np.repeat(etas, n)
        self.path = np.tile(np.arange(n), etas.size)
        self.anchor = np.zeros(self.eta.size)
        self.count = np.zeros(self.eta.size, dtype=np.int64)

    def by_path(self, a: np.ndarray) -> np.ndarray:
        """A per-row array as a (path, threshold) view."""
        return a.reshape(-1, self.n).T


def _first_touches(buf, win, n, tr, rows) -> None:
    """First-touch scan of columns 1..n of ``buf`` for the rows ``rows`` of ``tr``.

    ``win`` is a sliding-window view of ``buf``; the columns after ``n``
    repeat the value at ``n``.  Each round tests every live row's window
    after its last crossing, counts a detection and moves the anchor of the
    rows that found one, and moves the others on by one window.
    """
    anchor, eta_of, path_of, count = tr.anchor, tr.eta, tr.path, tr.count
    width = win.shape[-1]
    start = np.ones(rows.size, dtype=np.int64)
    while rows.size:
        p, a, eta = path_of[rows], anchor[rows], eta_of[rows]
        dev = win[p, start]
        dev -= a[:, None]
        hit = np.abs(dev, out=dev) >= eta[:, None]
        k = hit.argmax(axis=1)
        found = hit[np.arange(rows.size), k]
        last = start + np.where(found, k, width - 1)
        if found.any():
            r = rows[found]
            count[r] += 1
            anchor[r] = buf[p[found], last[found]]
        keep = last < n
        rows, start = rows[keep], last[keep] + 1


@dataclass(frozen=True)
class SimulationBatch:
    """Normalized errors and detection counts of a batch, indexed (path, time, threshold)."""

    cfg: PathConfig
    t_eval: tuple[float, ...]
    errors: np.ndarray  # normalized tracking errors Z/eta, (n_paths, n_t, n_eta)
    renewal_counts: np.ndarray  # detections up to t_end, (n_paths, n_eta)

    def _column(self, eta: float, t: float) -> np.ndarray:
        if float(t) not in self.t_eval:
            raise InvalidDomainError(f"t={t} not in batch evaluation times {self.t_eval}")
        if float(eta) not in self.cfg.etas:
            raise InvalidDomainError(f"eta={eta} not in batch thresholds {self.cfg.etas}")
        return self.errors[:, self.t_eval.index(float(t)), self.cfg.etas.index(float(eta))]

    def sample(self, eta: float, t: float) -> EmpiricalSample:
        """Sorted normalized errors for one (threshold, time) pair."""
        return EmpiricalSample(self._column(eta, t))

    def variance(self, eta: float, t: float) -> float:
        """Sample variance (``ddof=1``) of the errors at one (threshold, time); 0 for one path."""
        col = self._column(eta, t)
        return float(np.var(col, ddof=1)) if col.size > 1 else 0.0


def _chunk_ends(t_idx, n_steps: int):
    """Chunk ends in increasing order, produced one at a time.

    They are the positive evaluation indices, the multiples of ``_CHUNK``
    below ``n_steps``, and ``n_steps``; producing them lazily keeps the
    memory they take independent of ``n_steps``.
    """
    last = 0
    for end in heapq.merge(sorted(i for i in t_idx if i > 0), range(_CHUNK, n_steps, _CHUNK),
                           (n_steps,)):
        if end > last:
            yield end
            last = end


def _run_chunk(args) -> tuple[np.ndarray, np.ndarray]:
    """Errors and detection counts of paths ``start..stop-1``, simulated group by group."""
    cfg, sigma, t_idx, start, stop = args
    n_paths = stop - start
    etas = np.asarray(cfg.etas)
    errors = np.empty((n_paths, len(t_idx), etas.size))
    counts = np.zeros((n_paths, etas.size), dtype=np.int64)
    t_idx_arr = np.asarray(t_idx, dtype=np.int64)
    errors[:, t_idx_arr == 0, :] = 0.0  # X_0 = 0 and the anchor starts at 0

    scale = sigma * math.sqrt(cfg.dt)
    width = min(_window(eta, scale) for eta in cfg.etas)
    per_call = _GATHER // width  # live rows scanned together
    bounds = _groups(n_paths)
    buf = np.empty((int(np.diff(bounds).max()), 1 + _CHUNK + width))  # carry, chunk, window pad
    win = sliding_window_view(buf, width, axis=1)
    for g0, g1 in zip(bounds[:-1], bounds[1:]):
        out = slice(g0, g1)
        rngs = [np.random.default_rng([cfg.seed, start + p]) for p in range(g0, g1)]
        xs = buf[: g1 - g0]
        tr = _Tracks(etas, g1 - g0)
        xs[:, 0] = -0.0  # see generate_path
        done = 0
        for end in _chunk_ends(t_idx, cfg.n_steps):
            n = end - done
            _extend(rngs, xs, n, scale)
            xs[:, n + 1 :] = xs[:, n : n + 1]  # a pad that adds no extremum and no crossing
            span = xs[:, 1 : n + 1]
            live = np.flatnonzero(_may_cross(span.max(axis=1)[tr.path],
                                             span.min(axis=1)[tr.path], tr.anchor, tr.eta))
            for i in range(0, live.size, per_call):
                _first_touches(xs, win, n, tr, live[i : i + per_call])
            x_end = xs[:, n]
            for k in np.flatnonzero(t_idx_arr == end):
                errors[out, k, :] = (x_end[:, None] - tr.by_path(tr.anchor)) / etas
            xs[:, 0] = x_end
            done = end
        counts[out] = tr.by_path(tr.count)
    return errors, counts


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def simulate_batch(
    cfg: PathConfig,
    sigma: float,
    t_eval,
    workers: int = 1,
) -> SimulationBatch:
    """Run the full batch and reduce it to per-(eta, t) error samples.

    Results are invariant to ``workers``: every path owns a substream keyed
    by its index and chunks are reassembled in path order.  At most
    ``min(workers, n_paths, usable CPUs)`` processes run.  Raises
    InvalidDomainError before any allocation when the result array would
    hold more than ``MAX_RESULTS`` cells, or when a path could leave half
    the double range.
    """
    _check_path(cfg, sigma)
    t_eval = tuple(float(t) for t in np.atleast_1d(t_eval))
    if len(set(t_eval)) != len(t_eval):
        raise InvalidDomainError(f"evaluation times must be distinct, got {t_eval}")
    t_idx = tuple(cfg.time_index(t) for t in t_eval)
    if workers < 1:
        raise InvalidDomainError("workers must be >= 1")
    cells = cfg.n_paths * len(t_eval) * len(cfg.etas)
    if cells > MAX_RESULTS:
        raise InvalidDomainError(
            f"paths x evaluation times x thresholds = {cells:.3g} is above the ceiling of"
            f" {MAX_RESULTS:.0e} result cells"
        )

    # one process per job at most, and no more jobs than usable CPUs
    n_jobs = min(workers, cfg.n_paths, _usable_cpus())
    bounds = np.linspace(0, cfg.n_paths, n_jobs + 1).astype(int)
    jobs = [
        (cfg, sigma, t_idx, int(a), int(b))
        for a, b in zip(bounds[:-1], bounds[1:])
        if b > a
    ]
    if len(jobs) == 1:
        parts = [_run_chunk(jobs[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only multi-worker runs pay for it

        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            parts = list(pool.map(_run_chunk, jobs))

    errors, counts = (np.concatenate(arrays) for arrays in zip(*parts))
    return SimulationBatch(cfg=cfg, t_eval=t_eval, errors=errors, renewal_counts=counts)

