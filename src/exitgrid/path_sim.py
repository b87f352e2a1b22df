"""Monte Carlo engine for the first-exit discretization scheme.

A :class:`PathConfig` is the whole description of a batch: ``sigma``, the
thresholds, the evaluation times, the grid steps, the paths and the seed.
Its grid spans ``[0, t_end]``, ``t_end`` the last evaluation time, and its
construction checks the batch once.  :func:`simulate_batch` runs it, and
:func:`generate_path` draws one of its paths.

Paths of ``X_t = sigma * W_t`` live on that uniform grid, one deterministic
random substream per path index, ``default_rng([seed, path index])``, so
results are bit-identical for a given (seed, path index) regardless of how
paths are distributed over workers.  A group's generators are seeded in one
vectorized pass of numpy's seed hash (:func:`_generators`).

The paths split into equal groups of at most ``_GROUP`` (2048) paths, so
2100 paths make two groups of 1050, not 2048 + 52.  A group advances in
lockstep, one time chunk at a time, and pays the Python cost of a chunk
(band, walk rounds, fill blocks, scan calls) once for all its paths, asleep
or not; one group's state takes up to about 2 KB a path.
A chunk ends every ``_CHUNK`` (1024) grid steps and at every evaluation
time, so the anchor in force at an evaluation time is the anchor at the end
of its chunk.  Only the paths that are filled forward in a chunk get buffer
rows: they are packed in blocks of at most ``_ROWS`` (150) paths into one
reused buffer of ``_ROWS x (1 + _CHUNK + window)`` doubles (1.8 MB at the
widest window, 512), and a slot map records each path's row.  A block fills
its whole chunk and then scans it.  Full path matrices are never held, and
neither groups nor blocks enter a path's stream.

:func:`simulate_batch` allocates the result arrays once.  One process runs
every group in turn with one buffer and writes each group's results into
them.  With several processes a pool runs one task per group, at least one
per process; a task holds one group's buffer, state and results, and the
parent copies each task's results into place as they arrive.  So the
parent holds the results once, plus those of the tasks in flight, and a
process one buffer and one group's state at a time.

Each path carries a state ``(x, t)``: its value ``x`` at grid time ``t``,
which may lie chunks ahead.  The path's band is where none of its
thresholds detects, ``(max_e(anchor_e - eta_e), min_e(anchor_e + eta_e))``,
and ``r`` is the distance from ``x`` to the band's nearer edge.  A path
with ``sigma > 0`` that is at the chunk start with ``r >= sigma
sqrt(_CHUNK dt)`` (the full chunk length, whatever the chunk's own length)
walks on spheres (Muller, *Ann. Math. Stat.* 27, 1956).  A step runs to a
horizon: the largest chunk end ``E`` with ``sigma sqrt((E - t) dt) <= r``,
but no later than the next evaluation time.  It draws whether the
continuous path leaves the interval of radius ``r`` around ``x`` before
``E`` and, if not, where it is at ``E``, from the exact exit law; if it
leaves, it draws the exit time and side.  No grid point inside that
interval can detect, so the path sleeps until the chunk that holds its new
``t``: a sleeping path gets no buffer row, no extremum pass and no scan.  A
path whose horizon is the chunk end gets no row either: its end value is
both its extrema, so the first-touch rule still applies to that point:
only rounding lets it cross, and then the path detects there and
re-anchors at it, with no scan.  A path that left its sphere inside the
chunk steps again while its new radius is at least ``sigma sqrt(h)``,
``h`` the time left in the chunk.
Every other path is filled forward: one normal per grid step, from the
exit point and time for a walker, with the columns before its first grid
point repeating that point's value, which leaves every first-touch outcome
as it is.  So the engine keeps the law of the grid first-touch process
while a quiet path costs a few draws per horizon instead of one per grid
step.  A block is one :func:`_extend` call over its rows, each row started
at its own value and time: the previous chunk's last value in column 0 for
a path at the chunk start, its exit point for a walker woken inside it.

The scan state of a group is flat over (threshold, path) rows, so one loop
of numpy rounds serves every threshold of a block: a block costs the
largest number of rounds over its thresholds, not their sum.  A row enters
a chunk's scan only if the chunk's extrema for its path hold a point at
least ``eta`` from its anchor; that is the one skip rule.  Each round then
finds at most one crossing per live row in a window after its last
crossing, read from its path's buffer row through the slot map, or moves
the row on by one window; the window is the smallest over the batch's
thresholds (about the mean gap between crossings), so a round gathers
``rows x window`` doubles.  The live rows of a block are scanned in calls
of at most ``_GATHER / window`` rows, so a round never gathers more than
``150 x 1537`` doubles (1.8 MB), whatever the number of thresholds; the
rows of three thresholds at the widest window fit in one call.  A call
allocates one hit mask, ``rows x window`` booleans, whose first rows each
round overwrites; the rows of one threshold are one run, compared with
that threshold's scalar ``eta``.  A row leaves the loop at the end of the
chunk; the next chunk's scan starts at its first column.

The crossing convention is grid-first-touch: a detection is recorded at the
first grid index where the path has moved at least ``eta`` from the current
anchor, and the new anchor is the path value at that index.  This keeps the
normalized error inside [-1, 1] at every grid time.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .distributions import EmpiricalSample
from .errors import InvalidDomainError

__all__ = ["MAX_PATH_STEPS", "MAX_RESULTS", "PathConfig", "SimulationBatch", "generate_path",
           "simulate_batch"]

# most paths advanced in lockstep, and held at once: a batch's paths split into equal groups
_GROUP = 2048
_ROWS = 150  # rows of the chunk buffer: a chunk's forward-filled paths fill it in blocks
_CHUNK = 1024  # grid steps drawn per path between scans
_WINDOW = (32, 512)  # clip of the scan window, in grid points
_GATHER = _ROWS * (1 + _CHUNK + _WINDOW[1])  # most doubles a scan round gathers

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
    """One batch: ``n_paths`` paths of ``sigma W`` from ``seed``, scanned at every threshold
    of ``etas`` and read at the evaluation times ``t_eval``.

    The grid has ``n_steps`` steps over ``[0, t_end]``, ``t_end`` the last
    evaluation time.  Construction is the one place where a batch is
    checked, resource ceilings included, and it records the grid index of
    each evaluation time in ``t_idx``.
    """

    sigma: float
    etas: tuple[float, ...]
    t_eval: tuple[float, ...]
    n_steps: int
    n_paths: int
    seed: int
    t_idx: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("etas", "t_eval"):
            values = np.atleast_1d(getattr(self, name))
            object.__setattr__(self, name, tuple(float(v) for v in values))
        if not self.t_eval or not (0.0 < self.t_end < math.inf):
            raise InvalidDomainError("the last evaluation time (--t / --t-eval) must be finite"
                                     f" and > 0, got t_eval={self.t_eval}")
        if self.n_steps < 1 or self.n_paths < 1:
            raise InvalidDomainError("n_steps and n_paths must be >= 1")
        if self.dt < np.finfo(float).tiny:  # a subnormal step could put t_end off index n_steps
            raise InvalidDomainError(f"grid step {self.t_end:g} / {self.n_steps} is below the"
                                     " smallest normal double")
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
        if not (0.0 <= self.sigma < math.inf):
            raise InvalidDomainError(f"sigma must be finite and >= 0, got {self.sigma}")
        reach = _NORMAL_MAX * self.n_steps * (self.sigma * math.sqrt(self.dt))
        if not reach < 0.5 * np.finfo(float).max:  # x - anchor must stay a double too
            raise InvalidDomainError(
                f"sigma = {self.sigma:g} with the last evaluation time {self.t_end:g} is too"
                f" large: a path of {self.n_steps} steps could reach {reach:.3g}, past half the"
                " double range"
            )
        if len(set(self.t_eval)) != len(self.t_eval):
            raise InvalidDomainError(f"evaluation times must be distinct, got {self.t_eval}")
        object.__setattr__(self, "t_idx", tuple(self.time_index(t) for t in self.t_eval))
        cells = self.n_paths * len(self.t_eval) * len(self.etas)
        if cells > MAX_RESULTS:
            raise InvalidDomainError(
                f"paths x evaluation times x thresholds = {cells:.3g} is above the ceiling of"
                f" {MAX_RESULTS:.0e} result cells"
            )

    @property
    def t_end(self) -> float:
        return max(self.t_eval)

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    def time_index(self, t: float) -> int:
        """Grid index of a time in ``[0, t_end]`` that sits on the grid.

        On the grid means within ``1e-9`` of a step of a grid point, plus the
        rounding of ``t / dt`` (``1e-15`` of it, a few times the double
        precision).
        """
        # t / dt is at most about n_steps for |t| <= t_end; a t past it, or nan, is off the grid
        steps = t / self.dt if abs(t) <= self.t_end else -1.0
        idx = round(steps)
        if idx < 0 or abs(steps - idx) > 1e-9 + 1e-15 * abs(steps):
            raise InvalidDomainError(f"t={t} is not on the simulation grid (dt={self.dt})")
        return idx


# numpy's SeedSequence hash: the (start, multiplier) of its two chains of hash constants,
# the entropy mix's and the output's, the multipliers of a mix, and the pool size in words
_CHAIN_MIX, _CHAIN_OUT = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _chain(init: int, mult: int):
    """Hash ``k`` xors ``init mult^k`` and multiplies by ``init mult^(k+1)``, mod 2^32."""
    powers = itertools.accumulate(itertools.repeat(mult), lambda h, m: h * m & 0xFFFFFFFF,
                                  initial=init)
    return itertools.pairwise(powers)


def _hashmix(v: np.ndarray, chain) -> np.ndarray:
    xor, mul = next(chain)
    v = (v ^ xor) * mul
    return v ^ v >> 16


def _seed_words(seed: int, paths: np.ndarray) -> np.ndarray:
    """Row ``i`` is ``SeedSequence([seed, paths[i]]).generate_state(4, np.uint64)``.

    numpy's entropy mix and state hash, run over one uint32 column per pool
    word, for ``paths < 2**32``.  The entropy is ``seed``'s 32-bit words, low first, then the path
    index; a hash constant depends only on the hashes before it, so it is one
    scalar for all rows.
    """
    words = [int(seed) >> s & 0xFFFFFFFF for s in range(0, max(int(seed).bit_length(), 1), 32)]
    entropy = [*(np.full(paths.size, w, np.uint32) for w in words), paths.astype(np.uint32)]
    entropy += [np.zeros(paths.size, np.uint32)] * (_POOL - len(entropy))
    chain = _chain(*_CHAIN_MIX)
    pool = [_hashmix(w, chain) for w in entropy[:_POOL]]
    # every pool word into every other, then each entropy word past the pool into all
    for src in range(len(entropy)):
        for dst in range(_POOL):
            if src != dst:
                y = _hashmix(pool[src] if src < _POOL else entropy[src], chain)
                v = pool[dst] * _MIX_L - y * _MIX_R
                pool[dst] = v ^ v >> 16
    chain = _chain(*_CHAIN_OUT)
    state = [_hashmix(pool[i % _POOL], chain) for i in range(2 * _POOL)]
    return np.stack([lo | hi.astype(np.uint64) << 32 for lo, hi in zip(state[::2], state[1::2])],
                    axis=1)


def _generators(seed: int, paths: np.ndarray) -> np.ndarray:
    """``np.random.default_rng([seed, p])`` for each path ``p < 2**32``, as an object array.

    Each ``PCG64`` takes its row of :func:`_seed_words` from a seed sequence
    that only hands it over, so the streams are the same bit for bit.  The
    class is made here: importing this module does not import numpy.random.
    """
    class Words(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):  # PCG64 asks for (4, uint64)
            return self.words

    pcg, gen = np.random.PCG64, np.random.Generator
    return np.fromiter((gen(pcg(Words(w))) for w in _seed_words(seed, paths)), object, paths.size)


def _extend(rngs, rows: np.ndarray, n: int, scale: float, x: np.ndarray, u: np.ndarray) -> None:
    """Fill columns ``1..n`` of each row forward from the value ``x[j]`` at ``u[j] < n`` steps in.

    This is the one definition of the forward path stream: step ``k`` of a
    path is the ``k``-th standard normal of its substream times
    ``sigma sqrt(dt)``, and the path is their running sum.  Row ``j``'s
    first grid point, column ``k = floor(u[j]) + 1``, gets variance ``(k -
    u[j]) scale^2``, and columns ``1..k-1`` repeat its value.  At ``u = 0``
    the factor ``sqrt(k - u)`` is exactly 1 and ``x`` is the carry in column
    0, so drawing in chunks reproduces one long draw and cumsum bit for bit,
    and a batch whose chunks are all forward is :func:`generate_path` path
    by path.  A path that walks on spheres (see the module notes) draws its
    substream differently from then on; its law is the same.
    """
    k = np.floor(u).astype(np.int64) + 1
    for rng, row, j in zip(rngs, rows, k.tolist()):
        rng.standard_normal(out=row[j : n + 1])
    head = np.arange(k.max()) < k[:, None]  # each row's columns before its first grid point
    # a zero prefix: the cumsum reaches x exactly, and no stale value is scaled
    np.copyto(rows[:, : head.shape[1]], 0.0, where=head)
    rows[:, 1 : n + 1] *= scale
    every = np.arange(k.size)
    rows[every, k] *= np.sqrt(k - u)
    rows[every, k - 1] = x
    np.cumsum(rows[:, : n + 1], axis=1, out=rows[:, : n + 1])
    head[:, 0] = False
    np.copyto(rows[:, : head.shape[1]], rows[every, k][:, None], where=head)


# the image table of _stay_ratio, c and (-1)^(c/2), and the terms k = 1..4 of _exit_ratio
_STAY_C = np.array([2.0, -2.0, 4.0, -4.0, 6.0, -6.0, 8.0, -8.0, 10.0, -10.0])[:, None]
_STAY_SIGN = (-1.0) ** (_STAY_C / 2)
_EXIT_K = np.arange(1.0, 5.0)[:, None]
_EXIT_WEIGHT = (-1.0) ** _EXIT_K * (2 * _EXIT_K + 1)
_EXIT_RATE = -2.0 * _EXIT_K * (_EXIT_K + 1)


def _stay_ratio(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``p1(v, y) / phi_v(y)`` at ``v = 1/a^2``, ``y = z/a``, for ``a >= 1`` and ``|z| < a``.

    The chance that a Brownian bridge from 0 to ``y`` over unit time ``v``
    stays inside ``(-1, 1)``: the image series of
    :func:`~exitgrid.density._images` over its leading image, whose image
    at ``c`` is ``(-1)^(c/2) exp(-(c a)(c a - 2 z) / 2)``.  The images with
    ``|c| <= 10`` are summed; the rest are below ``exp(-60 a^2)``.  The sum
    is elementwise, so a row's value does not depend on the other rows; the
    images form one table, whose rows are added in the order of ``c``.
    """
    ca = _STAY_C * a
    with np.errstate(over="ignore"):  # an exponent past the double range is -inf: exp 0
        terms = _STAY_SIGN * np.exp(-0.5 * ca * (ca - 2.0 * z))
    acc = np.ones(z.shape)
    for term in terms:
        acc += term
    return acc


def _exit_ratio(q: np.ndarray) -> np.ndarray:
    """The unit exit-time density at ``v = 1/q`` over twice its Levy term, for ``q >= 1``.

    ``f1(v) / (2 g(v))`` with ``g(v) = exp(-1 / (2 v)) / sqrt(2 pi v^3)``:
    ``sum_k (-1)^k (2k + 1) exp(-2 k (k + 1) q)``, the image series of
    :func:`~exitgrid.first_passage._density_images` over its leading term,
    summed to ``k = 4``; the next term is below ``1e-25``.  It lies in
    ``(0, 1]``.
    """
    terms = _EXIT_WEIGHT * np.exp(_EXIT_RATE * q)
    acc = np.ones(q.shape)
    for term in terms:
        acc += term
    return acc


def _draw_pairs(gens, draw):
    """One ``draw(g)`` and then one uniform from each generator ``g``, as two arrays."""
    first = np.fromiter(map(draw, gens), float, len(gens))
    return first, np.fromiter(map(np.random.Generator.random, gens), float, len(gens))


def _exit_fractions(rngs, rows: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``tau / h`` for each row: the exit time as a share of the time left, given an exit.

    In unit time the exit time, conditioned on ``tau < v = 1/a^2``, is
    ``1/q``; the proposal ``q = a^2 + 2E``, ``E`` standard exponential, has
    density ``exp(-(1/t - 1/v) / 2) / (2 t^2)`` in ``t = 1/q``, and is
    accepted with ``sqrt(t / v) f1(t) / (2 g(t)) <= 1``, at least 0.65 of the
    time for ``a >= 1``.  Each row draws from its own generator.
    """
    share = np.empty(rows.size)
    todo = np.arange(rows.size)
    while todo.size:
        e, w = _draw_pairs(rngs[rows[todo]], np.random.Generator.standard_exponential)
        a2 = a[todo] * a[todo]
        q = a2 + 2.0 * e
        ok = w * np.sqrt(q / a2) < _exit_ratio(q)
        share[todo[ok]] = a2[ok] / q[ok]
        todo = todo[~ok]
    return share


def _walk(rngs, x, t, lo, hi, end: int, scale: float, stops: np.ndarray):
    """Walk-on-spheres steps from the states ``(x, t)`` in a chunk that ends at ``end``.

    Row ``i`` is at ``x[i]`` at grid time ``t[i] < end``, inside its band
    ``(lo[i], hi[i])``, and draws from ``rngs[i]``.  A step with radius
    ``r`` (to the nearer edge) runs to the horizon ``E``: the largest chunk
    end with ``scale sqrt(E - t) <= r``, and no later than the first of
    ``stops`` (the positive evaluation indices, sorted; the last is ``n_steps``)
    after ``t``, so a horizon may lie chunks past ``end`` but never past an
    evaluation time.  The step proposes the end displacement
    ``root z = scale sqrt(E - t) z``, ``z`` standard normal, and keeps it
    with the chance :func:`_stay_ratio` that the bridge to it stays inside
    the sphere: a kept row survives to ``(x + root z, E)`` with the exact
    killed density.  A row that does not stay left the sphere before ``E``,
    with chance ``1 - S(v)``; it draws when (:func:`_exit_fractions`) and
    moves by ``r`` to the side of ``z``, whose sign is a fair coin
    independent of the exit, as the ratio is even in ``z``.  A row that
    leaves before ``end`` steps again while ``r >= scale sqrt(end - t)``.

    Returns ``(x, t)``: a row with ``t > end`` sleeps until the chunk that
    holds ``t``, one with ``t == end`` is at ``x`` at the chunk end, and any
    other is filled forward from ``x`` at ``t``.
    """
    x, t = x.copy(), t.copy()
    rows = np.arange(x.size)
    while rows.size:
        rows = rows[t[rows] < end]
        r = np.minimum(x[rows] - lo[rows], hi[rows] - x[rows])
        step = r >= scale * np.sqrt(end - t[rows])
        rows, r = rows[step], r[step]
        if not rows.size:
            break
        t0 = t[rows]
        with np.errstate(over="ignore"):  # r / scale past the double range: no reach limit
            reach = np.floor((t0 + (r / scale) ** 2) / _CHUNK) * _CHUNK
        horizon = np.maximum(np.minimum(reach, stops[np.searchsorted(stops, t0, "right")]), end)
        root = scale * np.sqrt(horizon - t0)  # sd of the displacement to the horizon
        with np.errstate(over="ignore"):  # a = inf: the row stays, as for any huge a
            a = r / root
        z, w = _draw_pairs(rngs[rows], np.random.Generator.standard_normal)
        kept = (np.abs(z) < a) & (w < _stay_ratio(a, z))
        x[rows[kept]] += root[kept] * z[kept]
        t[rows[kept]] = horizon[kept]
        left = ~kept
        rows, r, a, z, t0, horizon = (v[left] for v in (rows, r, a, z, t0, horizon))
        t[rows] = np.minimum(t0 + (horizon - t0) * _exit_fractions(rngs, rows, a), horizon)
        x[rows] += np.copysign(r, z)
    return x, t


def generate_path(cfg: PathConfig, path_index: int) -> np.ndarray:
    """One Wiener path on the grid, from the substream keyed by (seed, path index).

    Its generator is built as a batch's (:func:`_generators`).  ``sigma =
    0`` is allowed here (degenerate all-zero path) even though the analytic
    modules require a positive diffusion coefficient.
    """
    if not 0 <= path_index < cfg.n_paths:
        raise InvalidDomainError(f"path_index must be in [0, {cfg.n_paths}), got {path_index}")
    x = np.empty((1, cfg.n_steps + 1))
    rng = _generators(cfg.seed, np.array([path_index]))
    # -0.0 + s == s for every double s, so x[1] is the first step exactly
    _extend(rng, x, cfg.n_steps, cfg.sigma * math.sqrt(cfg.dt), np.array([-0.0]), np.zeros(1))
    x[0, 0] = 0.0
    return x[0]


def _window(eta: float, scale: float) -> int:
    """Scan window: the mean gap between crossings, ``(eta/scale)^2``, clipped.

    ``scale`` is the step size ``sigma sqrt(dt)``.  The first touch is exact
    at any window; the mean gap keeps a round's gather, its hit mask and the
    window pad of a buffer row small.
    """
    ratio = eta / scale if scale > 0.0 else math.inf
    return int(min(max(ratio * ratio, _WINDOW[0]), _WINDOW[1]))


def _groups(n: int, least: int = 1) -> np.ndarray:
    """Bounds of ``max(ceil(n / _GROUP), least)`` equal groups of ``n`` paths, at most 2048 each."""
    k = max(-(-n // _GROUP), least)
    return np.arange(k + 1) * n // k


def _may_cross(hi, lo, anchor, eta):
    """Whether a set with extrema ``hi``/``lo`` holds a point with ``|x - anchor| >= eta``.

    Exact for the rounded predicate: ``x -> fl(x - anchor)`` is monotone, so
    ``fl(hi - anchor)`` is the largest rounded deviation and ``fl(lo -
    anchor)`` the smallest.
    """
    return (hi - anchor >= eta) | (lo - anchor <= -eta)


class _Tracks:
    """Scan state of a group, flat over rows ``e * n + p``: threshold ``etas[e]``, path ``p``."""

    def __init__(self, etas: np.ndarray, n: int) -> None:
        self.n = n
        self.etas = etas
        self.anchor = np.zeros(etas.size * n)
        self.count = np.zeros(etas.size * n, dtype=np.int64)

    def by_path(self, a: np.ndarray) -> np.ndarray:
        """A per-row array as a (path, threshold) view."""
        return a.reshape(-1, self.n).T

    def live(self, paths: np.ndarray, top: np.ndarray, bottom: np.ndarray):
        """The rows of ``paths``, (threshold, path), and whether their chunk extrema can cross.

        ``top`` and ``bottom`` hold each path's extrema in the chunk.
        """
        rows = np.arange(0, self.anchor.size, self.n)[:, None] + paths
        return rows, _may_cross(top[paths], bottom[paths], self.anchor[rows], self.etas[:, None])


def _first_touches(buf, win, n, tr, rows, slot) -> None:
    """First-touch scan of columns 1..n of ``buf`` for the rows ``rows`` of ``tr``.

    Path ``p`` is in buffer row ``slot[p]``.  ``win`` is a sliding-window
    view of ``buf``; the columns after ``n`` repeat the value at ``n``.  Each
    round tests every live row's window after its last crossing, counts a
    detection and moves the anchor of the rows that found one, and moves the
    others on by one window.  ``rows`` is increasing, so a threshold's live
    rows are one run, compared with its scalar ``eta``.  The call allocates
    one hit mask, and each round writes its first rows.
    """
    anchor, count = tr.anchor, tr.count
    width = win.shape[-1]
    firsts = np.arange(tr.n, anchor.size, tr.n)  # the first row of each threshold but the first
    line = slot[rows % tr.n]  # each row's buffer row
    start = np.ones(rows.size, dtype=np.int64)
    mask = np.empty((rows.size, width), dtype=bool)
    flat = np.arange(0, mask.size, width)  # where each mask row starts in mask.ravel()
    while rows.size:
        m = rows.size
        dev = win[line, start]
        dev -= anchor[rows][:, None]
        np.abs(dev, out=dev)
        hit = mask[:m]
        cuts = [0, *np.searchsorted(rows, firsts).tolist(), m]
        for a, b in zip(cuts[:-1], cuts[1:]):
            if a < b:  # rows a..b-1 share one threshold
                np.greater_equal(dev[a:b], tr.etas[rows[a] // tr.n], out=hit[a:b])
        del dev  # so the next round's gather is the only one held
        k = hit.argmax(axis=1)
        found = hit.ravel()[flat[:m] + k]
        r = rows[found]
        count[r] += 1
        k[~found] = width - 1
        start += k
        anchor[r] = buf[line[found], start[found]]
        keep = start < n
        rows, line, start = rows[keep], line[keep], start[keep] + 1


@dataclass(frozen=True)
class SimulationBatch:
    """Normalized errors and detection counts of a batch, indexed (path, time, threshold)."""

    cfg: PathConfig
    errors: np.ndarray  # normalized tracking errors Z/eta, (n_paths, n_t, n_eta)
    renewal_counts: np.ndarray  # detections up to t_end, (n_paths, n_eta)

    def _column(self, eta: float, t: float) -> np.ndarray:
        t_eval, etas = self.cfg.t_eval, self.cfg.etas
        if float(t) not in t_eval:
            raise InvalidDomainError(f"t={t} not in batch evaluation times {t_eval}")
        if float(eta) not in etas:
            raise InvalidDomainError(f"eta={eta} not in batch thresholds {etas}")
        return self.errors[:, t_eval.index(float(t)), etas.index(float(eta))]

    def sample(self, eta: float, t: float) -> EmpiricalSample:
        """Sorted normalized errors for one (threshold, time) pair."""
        return EmpiricalSample(self._column(eta, t))

    def variance(self, eta: float, t: float) -> float:
        """Sample variance (``ddof=1``) of the errors at one (threshold, time); 0 for one path."""
        col = self._column(eta, t)
        return float(np.var(col, ddof=1)) if col.size > 1 else 0.0


def _chunk_ends(t_idx):
    """Chunk ends in increasing order, produced one at a time.

    They are the positive evaluation indices and the multiples of ``_CHUNK``
    below the last one, ``n_steps``; producing them lazily keeps the memory
    they take independent of ``n_steps``.
    """
    last = 0
    for end in heapq.merge(sorted(i for i in t_idx if i > 0), range(_CHUNK, max(t_idx), _CHUNK)):
        if end > last:
            yield end
            last = end


def _fill_chunk(rngs, xs, n: int, width: int, scale: float, x, u, paths, top, bottom) -> None:
    """Fill the rows ``xs`` forward over a chunk of ``n`` steps, row ``j`` for ``paths[j]``.

    Path ``paths[j]`` is at ``x`` ``u[j] < n`` steps after the chunk start;
    one :func:`_extend` call fills the block, whatever its rows' starts.
    Each path's end value and extrema over columns ``1..n`` go to ``x``,
    ``top`` and ``bottom``, and the ``width - 1`` columns after ``n`` that a
    scan window can reach repeat the end value: a pad that adds no extremum
    and no crossing.  The pad is written from ``x``, not from column ``n``,
    since numpy copies the destination of an assignment whose source
    overlaps it.
    """
    _extend(rngs[paths], xs, n, scale, x[paths], u)
    top[paths], bottom[paths] = xs[:, 1 : n + 1].max(axis=1), xs[:, 1 : n + 1].min(axis=1)
    x[paths] = xs[:, n]
    xs[:, n + 1 : n + width] = x[paths, None]


def _run_groups(cfg: PathConfig, bounds, errors, counts) -> None:
    """Simulate the groups of paths ``bounds[k]..bounds[k+1]-1`` into ``errors`` and ``counts``.

    Row ``i`` of the result arrays is path ``bounds[0] + i``; every row is
    written.  Memory besides the result arrays is bounded whatever the
    number of paths: one buffer of at most ``_ROWS`` rows of a chunk and its
    window pad, reused by every block of every chunk of every group, and the
    state of one group (value, time, extrema, generator and scan rows of at
    most ``_GROUP`` paths) at a time.
    """
    etas = np.asarray(cfg.etas)
    t_idx_arr = np.asarray(cfg.t_idx, dtype=np.int64)
    errors[:, t_idx_arr == 0, :] = 0.0  # X_0 = 0 and the anchor starts at 0
    stops = np.array(sorted({i for i in cfg.t_idx if i > 0}), dtype=float)

    scale = cfg.sigma * math.sqrt(cfg.dt)
    full = scale * math.sqrt(_CHUNK)  # the sd of a full chunk's displacement
    width = min(_window(eta, scale) for eta in cfg.etas)
    per_call = _GATHER // width  # live rows scanned together
    per_block = min(_ROWS, int(np.diff(bounds).max()))  # paths filled together
    buf = np.empty((per_block, 1 + _CHUNK + width))  # a block row: its carry, chunk and pad
    win = sliding_window_view(buf, width, axis=1)  # each row's scan windows
    for g0, g1 in zip(bounds[:-1], bounds[1:]):
        out = slice(g0 - bounds[0], g1 - bounds[0])
        rngs = _generators(cfg.seed, np.arange(g0, g1))
        tr = _Tracks(etas, g1 - g0)
        x = np.full(g1 - g0, -0.0)  # each path is at x at grid time t; see generate_path
        t = np.zeros(g1 - g0)
        top, bottom = np.zeros(g1 - g0), np.zeros(g1 - g0)  # each path's extrema in the chunk
        slot = np.zeros(g1 - g0, dtype=np.int64)  # each path's buffer row in its block
        done = 0
        for end in _chunk_ends(cfg.t_idx):
            n = end - done
            if scale > 0.0:
                anchors = tr.by_path(tr.anchor)
                with np.errstate(over="ignore"):  # an infinite edge is a band without it
                    lo, hi = (anchors - etas).max(axis=1), (anchors + etas).min(axis=1)
                r = np.minimum(x - lo, hi - x)
                # at the chunk start with room for a full chunk, or woken inside it by an exit
                walkers = np.flatnonzero((t < end) & ((t > done) | (r >= full)))
                if walkers.size:
                    x[walkers], t[walkers] = _walk(rngs[walkers], x[walkers], t[walkers],
                                                   lo[walkers], hi[walkers], end, scale, stops)
            # a horizon that ends here leaves x as both extrema; only rounding lets it cross,
            # and then it detects at its first grid point and re-anchors there, once
            edge, cross = tr.live(np.flatnonzero(t == end), x, x)
            edge = edge[cross]
            tr.count[edge] += 1
            tr.anchor[edge] = x[edge % tr.n]
            fill = np.flatnonzero(t < end)  # a path with t > end sleeps: no row, no scan
            for b in range(0, fill.size, per_block):
                paths = fill[b : b + per_block]
                slot[paths] = np.arange(paths.size)
                _fill_chunk(rngs, buf[: paths.size], n, width, scale, x, t[paths] - done, paths,
                            top, bottom)
                live, cross = tr.live(paths, top, bottom)
                live = live[cross]
                for i in range(0, live.size, per_call):
                    _first_touches(buf, win, n, tr, live[i : i + per_call], slot)
            t[fill] = end
            for k in np.flatnonzero(t_idx_arr == end):
                errors[out, k, :] = (x[:, None] - tr.by_path(tr.anchor)) / etas
            done = end
        counts[out] = tr.by_path(tr.count)


def _run_group(args) -> tuple[np.ndarray, np.ndarray]:
    """Errors and detection counts of the one group of paths ``start..stop-1``: a pool task.

    A task holds one group's buffer, state and results; the process that
    runs it frees them when it returns.
    """
    cfg, start, stop = args
    errors = np.empty((stop - start, len(cfg.t_idx), len(cfg.etas)))
    counts = np.empty((stop - start, len(cfg.etas)), dtype=np.int64)
    _run_groups(cfg, (start, stop), errors, counts)
    return errors, counts


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def simulate_batch(cfg: PathConfig, workers: int = 1) -> SimulationBatch:
    """Run the full batch and reduce it to per-(eta, t) error samples.

    Results are invariant to ``workers``: every path owns a substream keyed
    by its index, and each group's results are written at its paths' rows
    of the result arrays, which are allocated once.  At most
    ``min(workers, n_paths, usable CPUs)`` processes run, with one pool task
    per group.  ``cfg`` has checked the batch, the ceilings on its work and
    results included, so only ``workers`` is checked here.
    """
    if workers < 1:
        raise InvalidDomainError("workers must be >= 1")
    errors = np.empty((cfg.n_paths, len(cfg.t_idx), len(cfg.etas)))
    counts = np.empty((cfg.n_paths, len(cfg.etas)), dtype=np.int64)
    processes = min(workers, cfg.n_paths, _usable_cpus())
    if processes == 1:
        _run_groups(cfg, _groups(cfg.n_paths), errors, counts)
    else:
        from concurrent.futures import ProcessPoolExecutor  # only multi-worker runs pay for it

        bounds = _groups(cfg.n_paths, processes)
        jobs = [(cfg, int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]
        with ProcessPoolExecutor(max_workers=processes) as pool:
            for (_, a, b), (e, c) in zip(jobs, pool.map(_run_group, jobs)):
                errors[a:b], counts[a:b] = e, c
    return SimulationBatch(cfg=cfg, errors=errors, renewal_counts=counts)
