"""Monte Carlo engine for the first-exit discretization scheme.

Paths of ``X_t = sigma * W_t`` live on a fine uniform grid, one
deterministic random substream per path index, so results are bit-identical
for a given (seed, path index) regardless of how paths are distributed over
workers.

The engine advances a group of ``_GROUP`` paths in lockstep, one time chunk
at a time.  A chunk ends every ``_CHUNK`` grid steps and at every evaluation
time, so the anchor in force at an evaluation time is the anchor at the end
of its chunk.  Each chunk is drawn into one reused ``(group, 1 + chunk +
pad)`` buffer whose column 0 carries the previous chunk's last value, which
bounds the working memory at about ``64 x 4609 x 8`` bytes (2.4 MB) per
worker; full path matrices are never held.  Within a chunk the scan finds
one crossing per live path per numpy round: every live path looks at a
short window after its last crossing.  Exact extrema over cells of
``_CELL`` grid points decide which paths can still cross, so most windows
that would find nothing are never read.

The crossing convention is grid-first-touch: a detection is recorded at the
first grid index where the path has moved at least ``eta`` from the current
anchor, and the new anchor is the path value at that index.  This keeps the
normalized error inside [-1, 1] at every grid time.  An optional ``snap``
mode instead moves the anchor by exactly ``+/- eta`` (for sensitivity runs);
there the error can exceed the band by the grid overshoot.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .distributions import EmpiricalSample
from .errors import InvalidDomainError
from .params import ModelParams

__all__ = [
    "DiscretizationTrace",
    "PathConfig",
    "SimulationBatch",
    "collect_errors",
    "discretize",
    "generate_path",
    "simulate_batch",
]

_GROUP = 64  # paths advanced in lockstep
_CHUNK = 4096  # grid steps drawn per path between scans
_CELL = 512  # width of the cells whose extrema decide which paths can cross
_WINDOW = (32, 512)  # clip of the scan window, in grid points


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
        if self.seed < 0:
            raise InvalidDomainError("seed must be a non-negative integer")
        if len(self.etas) == 0 or not all(0.0 < e < math.inf for e in self.etas):
            raise InvalidDomainError("etas must be non-empty, finite and positive")
        if len(set(self.etas)) != len(self.etas):
            raise InvalidDomainError(f"etas must be distinct, got {self.etas}")

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    def time_index(self, t: float) -> int:
        """Grid index of an evaluation time; the time must sit on the grid."""
        if not math.isfinite(t):
            raise InvalidDomainError(f"t={t} is not on the simulation grid (dt={self.dt})")
        idx = int(round(t / self.dt))
        if idx < 0 or idx > self.n_steps or abs(idx * self.dt - t) > 1e-9 * max(self.t_end, 1.0):
            raise InvalidDomainError(f"t={t} is not on the simulation grid (dt={self.dt})")
        return idx


@dataclass(frozen=True)
class DiscretizationTrace:
    """Detections of one path for one threshold."""

    crossing_indices: np.ndarray
    anchor_values: np.ndarray
    terminal_error: float
    renewal_count: int


def _check_sigma(sigma: float) -> None:
    if not (0.0 <= sigma < math.inf):
        raise InvalidDomainError(f"sigma must be finite and >= 0, got {sigma}")


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
    _check_sigma(sigma)
    if path_index < 0:
        raise InvalidDomainError("path_index must be >= 0")
    x = np.empty((1, cfg.n_steps + 1))
    x[0, 0] = -0.0  # -0.0 + s == s for every double s, so x[1] is the first step exactly
    rng = np.random.default_rng([cfg.seed, path_index])
    _extend([rng], x, cfg.n_steps, sigma * math.sqrt(cfg.dt))
    x[0, 0] = 0.0
    return x[0]


def _window(eta: float, sigma: float, dt: float) -> int:
    """Scan window: twice the mean gap between crossings, ``eta^2/(sigma^2 dt)``, clipped.

    Twice the mean lets most crossings be found in the first window while
    keeping the per-round work small.
    """
    var = sigma * sigma * dt
    gap = 2.0 * eta * eta / var if var > 0.0 else math.inf
    return int(min(max(gap, _WINDOW[0]), _WINDOW[1]))


def _buffer(rows: int, n: int) -> np.ndarray:
    """Room for a carry column, ``n`` steps rounded up to whole cells, and a window pad."""
    return np.empty((rows, 1 + -(-n // _CELL) * _CELL + _WINDOW[1]))


def _pad_and_extrema(buf: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Fill the columns after ``n`` with the value at ``n``; return per-cell extrema.

    ``hi[:, c]`` and ``lo[:, c]`` are the max and min of columns
    ``1 + c*_CELL .. (c+1)*_CELL``.  The padding repeats a value the chunk
    already has, so it changes no extremum and no first crossing.
    """
    buf[:, n + 1 :] = buf[:, n : n + 1]
    cells = buf[:, 1 : 1 + -(-n // _CELL) * _CELL].reshape(len(buf), -1, _CELL)
    return cells.max(axis=2), cells.min(axis=2)


def _may_cross(hi, lo, anchor, eta):
    """Whether a set with extrema ``hi``/``lo`` holds a point with ``|x - anchor| >= eta``.

    Exact for the rounded predicate: ``x -> fl(x - anchor)`` is monotone, so
    ``fl(hi - anchor)`` is the largest rounded deviation and ``fl(lo -
    anchor)`` the smallest.
    """
    return (hi - anchor >= eta) | (lo - anchor <= -eta)


class _Tracks:
    """Scan state of a group for every threshold; arrays are (n_eta, paths)."""

    def __init__(self, n_eta: int, n: int) -> None:
        self.anchor = np.zeros((n_eta, n))
        self.count = np.zeros((n_eta, n), dtype=np.int64)
        self.ups = np.zeros((n_eta, n), dtype=np.int64)
        self.over = np.zeros((n_eta, n))
        self.first = np.full((n_eta, n), -1, dtype=np.int64)


def _first_touches(buf, win, hi, lo, n, eta, snap, tr, e, rows, offset, log=None) -> None:
    """First-touch scan of columns 1..n of ``buf`` for threshold ``eta`` (index ``e``).

    ``rows`` are the paths to scan; ``win`` is a sliding-window view of
    ``buf``; column ``j`` is grid index ``offset + j``.  Each round moves
    every live path to the first cell that may hold a crossing, finds the
    first crossing in its window, and updates the anchors and counters in
    ``tr``.  ``log`` collects (grid indices, new anchors) per round.
    """
    anchor, count, ups, over, first = (tr.anchor[e], tr.count[e], tr.ups[e], tr.over[e],
                                       tr.first[e])
    pending = bool((count[rows] == 0).any())  # some path still lacks its first crossing
    width = win.shape[-1]
    cell_last = np.arange(1, hi.shape[1] + 1) * _CELL
    start = np.ones(rows.size, dtype=np.int64)
    while True:
        a = anchor[rows]
        cells = _may_cross(hi[rows], lo[rows], a[:, None], eta) & (cell_last >= start[:, None])
        c = cells.argmax(axis=1)
        live = cells[np.arange(rows.size), c]
        rows, a = rows[live], a[live]
        if not rows.size:
            return
        start = np.maximum(start[live], c[live] * _CELL + 1)
        dev = win[rows, start]
        dev -= a[:, None]
        hit = np.abs(dev, out=dev) >= eta
        k = hit.argmax(axis=1)
        found = hit[np.arange(rows.size), k]
        last = start + np.where(found, k, width - 1)
        if found.any():
            r, j, a_old = rows[found], last[found], a[found]
            x = buf[r, j]
            move = x - a_old
            over[r] = np.maximum(over[r], np.abs(move) - eta)
            ups[r] += move > 0.0
            count[r] += 1
            if pending:
                new = count[r] == 1
                first[r[new]] = offset + j[new]
                pending = bool((count[rows] == 0).any())
            anchor[r] = a_old + np.copysign(eta, move) if snap else x
            if log is not None:
                log.append((offset + j, anchor[r]))
        keep = last < n
        rows, start = rows[keep], last[keep] + 1


def discretize(path: np.ndarray, eta: float, snap: bool = False) -> DiscretizationTrace:
    """Apply the first-exit rule to a simulated path for one threshold."""
    if not (0.0 < eta < math.inf):
        raise InvalidDomainError("eta must be finite and > 0")
    path = np.asarray(path, dtype=float)
    if path.ndim != 1 or path.size == 0 or not np.all(np.isfinite(path)):
        raise InvalidDomainError("path must be a non-empty 1-D array of finite values")
    n = path.size - 1
    log: list = []
    if n > 0:
        buf = _buffer(1, n)
        buf[0, : n + 1] = path
        hi, lo = _pad_and_extrema(buf, n)
        win = sliding_window_view(buf, _WINDOW[1], axis=1)
        rows = np.zeros(1, dtype=np.int64)
        _first_touches(buf, win, hi, lo, n, eta, snap, _Tracks(1, 1), 0, rows, 0, log)
    crossings = np.array([j[0] for j, _ in log], dtype=np.int64)
    anchors = np.array([a[0] for _, a in log], dtype=float)
    last_anchor = float(anchors[-1]) if anchors.size else 0.0
    return DiscretizationTrace(
        crossing_indices=crossings,
        anchor_values=anchors,
        terminal_error=float(path[-1]) - last_anchor,
        renewal_count=int(crossings.size),
    )


@dataclass(frozen=True)
class SimulationBatch:
    """Reduced batch output; arrays are indexed (path, time, threshold)."""

    cfg: PathConfig
    sigma: float
    t_eval: tuple[float, ...]
    snap: bool
    errors: np.ndarray  # normalized tracking errors Z/eta, (n_paths, n_t, n_eta)
    renewal_counts: np.ndarray  # detections up to t_end, (n_paths, n_eta)
    first_crossing: np.ndarray  # time of first detection or nan, (n_paths, n_eta)
    up_counts: np.ndarray  # (n_paths, n_eta)
    down_counts: np.ndarray  # (n_paths, n_eta)
    max_overshoot: np.ndarray  # (n_paths, n_eta)

    def _eta_index(self, eta: float) -> int:
        try:
            return self.cfg.etas.index(float(eta))
        except ValueError:
            raise InvalidDomainError(f"eta={eta} not in batch thresholds {self.cfg.etas}")

    def _t_index(self, t: float) -> int:
        try:
            return self.t_eval.index(float(t))
        except ValueError:
            raise InvalidDomainError(f"t={t} not in batch evaluation times {self.t_eval}")

    def sample(self, eta: float, t: float) -> EmpiricalSample:
        """Sorted normalized errors for one (threshold, time) pair."""
        return EmpiricalSample(self.errors[:, self._t_index(t), self._eta_index(eta)])

    def variance(self, eta: float, t: float) -> float:
        col = self.errors[:, self._t_index(t), self._eta_index(eta)]
        return float(np.var(col, ddof=1))


def _run_chunk(args) -> tuple:
    """Simulate paths ``start..stop-1`` group by group and reduce them."""
    cfg, sigma, t_idx, snap, start, stop = args
    n_paths = stop - start
    etas = np.asarray(cfg.etas)
    errors = np.empty((n_paths, len(t_idx), etas.size))
    counts = np.zeros((n_paths, etas.size), dtype=np.int64)
    first = np.full((n_paths, etas.size), np.nan)
    ups = np.zeros((n_paths, etas.size), dtype=np.int64)
    downs = np.zeros((n_paths, etas.size), dtype=np.int64)
    over = np.zeros((n_paths, etas.size))
    t_idx_arr = np.asarray(t_idx, dtype=np.int64)
    errors[:, t_idx_arr == 0, :] = 0.0  # X_0 = 0 and the anchor starts at 0
    ends = sorted({i for i in t_idx if i > 0} | {*range(_CHUNK, cfg.n_steps, _CHUNK), cfg.n_steps})

    scale = sigma * math.sqrt(cfg.dt)
    widths = [_window(eta, sigma, cfg.dt) for eta in cfg.etas]
    buf = _buffer(min(_GROUP, n_paths), _CHUNK)
    wins = {w: sliding_window_view(buf, w, axis=1) for w in set(widths)}
    for g0 in range(0, n_paths, _GROUP):
        out = slice(g0, min(g0 + _GROUP, n_paths))
        rngs = [np.random.default_rng([cfg.seed, start + p]) for p in range(out.start, out.stop)]
        xs = buf[: len(rngs)]
        tr = _Tracks(etas.size, len(rngs))
        xs[:, 0] = -0.0  # see generate_path
        done = 0
        for end in ends:
            n = end - done
            _extend(rngs, xs, n, scale)
            hi, lo = _pad_and_extrema(xs, n)
            live = _may_cross(hi.max(axis=1), lo.min(axis=1), tr.anchor, etas[:, None])
            for e in np.flatnonzero(live.any(axis=1)):
                _first_touches(
                    xs, wins[widths[e]], hi, lo, n, etas[e], snap, tr, e,
                    np.flatnonzero(live[e]), done,
                )
            x_end = xs[:, n]
            for k in np.flatnonzero(t_idx_arr == end):
                errors[out, k, :] = (x_end[:, None] - tr.anchor.T) / etas
            xs[:, 0] = x_end
            done = end
        counts[out] = tr.count.T
        ups[out] = tr.ups.T
        downs[out] = (tr.count - tr.ups).T
        over[out] = tr.over.T
        first[out] = np.where(tr.first >= 0, tr.first * cfg.dt, np.nan).T
    return errors, counts, first, ups, downs, over


def simulate_batch(
    cfg: PathConfig,
    sigma: float,
    t_eval,
    workers: int = 1,
    snap: bool = False,
) -> SimulationBatch:
    """Run the full batch and reduce it to per-(eta, t) error samples.

    Results are invariant to ``workers``: every path owns a substream keyed
    by its index and chunks are reassembled in path order.
    """
    _check_sigma(sigma)
    t_eval = tuple(float(t) for t in np.atleast_1d(t_eval))
    if len(set(t_eval)) != len(t_eval):
        raise InvalidDomainError(f"evaluation times must be distinct, got {t_eval}")
    t_idx = tuple(cfg.time_index(t) for t in t_eval)
    if workers < 1:
        raise InvalidDomainError("workers must be >= 1")

    bounds = np.linspace(0, cfg.n_paths, min(workers, cfg.n_paths) + 1).astype(int)
    jobs = [
        (cfg, sigma, t_idx, snap, int(a), int(b))
        for a, b in zip(bounds[:-1], bounds[1:])
        if b > a
    ]
    if workers == 1 or len(jobs) == 1:
        parts = [_run_chunk(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            parts = list(pool.map(_run_chunk, jobs))

    errors, counts, first, ups, downs, over = (
        np.concatenate([p[i] for p in parts], axis=0) for i in range(6)
    )
    return SimulationBatch(
        cfg=cfg,
        sigma=sigma,
        t_eval=t_eval,
        snap=snap,
        errors=errors,
        renewal_counts=counts,
        first_crossing=first,
        up_counts=ups,
        down_counts=downs,
        max_overshoot=over,
    )


def collect_errors(
    cfg: PathConfig,
    params: ModelParams,
    t_eval,
    workers: int = 1,
    snap: bool = False,
) -> dict[float, EmpiricalSample]:
    """Normalized tracking-error samples for ``params.eta`` at each time."""
    run_cfg = PathConfig(
        t_end=cfg.t_end,
        n_steps=cfg.n_steps,
        n_paths=cfg.n_paths,
        seed=cfg.seed,
        etas=(params.eta,),
    )
    batch = simulate_batch(run_cfg, params.sigma, t_eval, workers=workers, snap=snap)
    return {t: batch.sample(params.eta, t) for t in batch.t_eval}
