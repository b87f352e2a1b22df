"""Experiment orchestration: simulation studies with CSV and SVG emission.

Each ``run_*`` function executes one study from an :class:`ExperimentConfig`
and writes CSV files whose data rows are byte-reproducible for a fixed seed
and configuration, independent of the worker count.  Every runner returns
through :func:`_emit`, the one writer of the package's output files.  Every
CSV starts with a commented metadata block (tool version, configuration
echo, seed, hash of the configuration); SVG plots are regenerated purely
from CSV content, never from in-memory state.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .density import absorbed_density
from .distributions import (
    ScaledNormalLaw,
    TriangularLaw,
    kde,
    triangular_pdf,
    wasserstein1,
)
from .errors import ConfigError, InvalidDomainError, ToleranceNotMetError
from .first_passage import FirstPassageLaw
from .params import TERM_TOL, ModelParams
from .path_sim import PathConfig, simulate_batch
from .renewal import solve_renewal_density, tracking_error_density

__all__ = [
    "ExperimentConfig",
    "FIG1_ETAS",
    "FIG2_ETAS",
    "FIG3_ETAS",
    "FIG3_T_EVAL",
    "LIMIT_LADDER",
    "run_density_table",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_limit_check",
    "run_simulate",
    "run_tau_table",
    "svg_from_csv",
    "write_csv",
]

FIG1_ETAS = (4.0, 3.25, 2.5, 2.0, 0.5)
FIG2_ETAS = tuple(round(0.5 + 0.25 * i, 2) for i in range(15))  # 0.5 .. 4.0
FIG3_ETAS = (0.5, 0.75, 1.0, 1.5, 2.25)
FIG3_T_EVAL = (
    0.002, 0.004, 0.006, 0.008, 0.01,
    0.025, 0.05, 0.075, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5,
)
LIMIT_LADDER = (1.0, 2.0, 5.0, 10.0, 50.0)

_MC_CROSSCHECK_TOL = 0.01  # analytic-vs-empirical Wasserstein gate in `limit`
_CSV_BATCH = 1024  # CSV body rows formatted and written together
_RUNTIME_FIELDS = ("out_dir", "emit_svg", "workers")  # ExperimentConfig fields outside the echo


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: model, protocol and output options.

    The field defaults are the command line's defaults as well.  A
    simulation's grid spans ``[0, last evaluation time]``.
    """

    experiment: str = "fig1"
    sigma: float = 1.0
    eta: float = 0.5
    etas: tuple[float, ...] = ()
    t: float = 0.5
    t_eval: tuple[float, ...] = ()
    paths: int = 20000
    steps: int = 100000
    seed: int = 987654321
    sample_cap: int = 50000
    out_dir: str = "."
    emit_svg: bool = False
    workers: int = 1

    def __post_init__(self) -> None:
        if self.sample_cap < 1:
            raise ConfigError(f"sample_cap must be >= 1, got {self.sample_cap}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")

    def canonical(self) -> str:
        """Configuration echo that determines the CSV bodies.

        Runtime details (workers, output directory, SVG switch) are excluded:
        they must not change any emitted number.
        """
        parts = []
        for k in (f.name for f in fields(self) if f.name not in _RUNTIME_FIELDS):
            v = getattr(self, k)
            if isinstance(v, tuple):
                parts.append(f"{k}=[{','.join(format(x, '.17g') for x in v)}]")
            elif isinstance(v, float):
                parts.append(f"{k}={format(v, '.17g')}")
            else:
                parts.append(f"{k}={v}")
        return ";".join(parts)


def _config_hash(payload: str) -> str:
    blob = f"blob {len(payload)}\0".encode() + payload.encode()
    return hashlib.sha1(blob).hexdigest()


@functools.lru_cache(maxsize=64)
def _row_format(types: tuple[type, ...]) -> str:
    """The ``%``-format of a CSV line whose values have these types.

    ``%.17g`` for a float (numpy floats included), ``%d`` for an integer
    (numpy integers and ``bool`` included), ``%s`` for anything else.  The
    key is the type of each value, never the value, so ``-0.0`` and ``0``
    cannot share a line.
    """
    return ",".join([
        "%.17g" if issubclass(t, (float, np.floating))
        else "%d" if issubclass(t, (int, np.integer))
        else "%s"
        for t in types
    ]) + "\n"


def write_csv(path: Path, cfg: ExperimentConfig, columns, rows) -> Path:
    """Write a CSV with the standard metadata block; returns the path.

    The body goes to the open file ``_CSV_BATCH`` rows at a time, so the
    text held at once does not grow with the number of rows.  A batch
    whose rows have one length and whose columns each hold one type is
    formatted by one ``%`` operation; otherwise each run of consecutive rows
    whose values have the same types is.
    """
    payload = cfg.canonical()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(f"# exitgrid-version = {__version__}\n")
        fh.write(f"# seed = {cfg.seed}\n")
        fh.write(f"# config = {payload}\n")
        fh.write(f"# config-hash = {_config_hash(payload)}\n")
        fh.write(",".join(columns) + "\n")
        it = iter(rows)
        while batch := list(itertools.islice(it, _CSV_BATCH)):
            kinds = [set(map(type, column)) for column in zip(*batch)]  # each column's types
            if len(set(map(len, batch))) == 1 and all(len(k) == 1 for k in kinds):
                runs = [(tuple(k.pop() for k in kinds), batch)]
            else:
                runs = itertools.groupby(batch, lambda row: tuple(map(type, row)))
            text = []
            for types, run in runs:
                run = list(run)
                text.append((_row_format(types) * len(run)) % tuple(itertools.chain(*run)))
            fh.write("".join(text))
    return path


def read_csv(path: Path) -> tuple[dict, list[str], np.ndarray]:
    """Read back a CSV written by :func:`write_csv` (meta, columns, numeric rows)."""
    meta: dict[str, str] = {}
    lines = Path(path).read_text().splitlines()
    body_start = 0
    for i, line in enumerate(lines):
        if line.startswith("#"):
            if "=" in line:
                k, v = line[1:].split("=", 1)
                meta[k.strip()] = v.strip()
            body_start = i + 1
        else:
            break
    rows = list(csv.reader(lines[body_start:]))
    columns = rows[0]
    data = np.array([[float(v) for v in r] for r in rows[1:]]) if len(rows) > 1 else np.empty((0, len(columns)))
    return meta, columns, data


# ---------------------------------------------------------------------------
# SVG (kept minimal: axes, polylines, legend; a pure function of CSV content)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def _render_svg(series, x_label: str, y_label: str, title: str) -> str:
    w, h = 720, 480
    ml, mr, mt, mb = 70, 20, 40, 50
    xs_all = np.concatenate([s[1] for s in series])
    ys_all = np.concatenate([s[2] for s in series])
    x0, x1 = float(np.min(xs_all)), float(np.max(xs_all))
    y0, y1 = float(np.min(ys_all)), float(np.max(ys_all))
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    y0 = min(y0, 0.0)

    def px(x):
        return ml + (x - x0) / (x1 - x0) * (w - ml - mr)

    def py(y):
        return h - mb - (y - y0) / (y1 - y0) * (h - mt - mb)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w/2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{ml}" y1="{h-mb}" x2="{w-mr}" y2="{h-mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{h-mb}" stroke="black"/>',
        f'<text x="{w/2:.1f}" y="{h-12}" text-anchor="middle" font-size="12">{x_label}</text>',
        f'<text x="16" y="{h/2:.1f}" font-size="12" transform="rotate(-90 16 {h/2:.1f})" text-anchor="middle">{y_label}</text>',
    ]
    for i in range(5):
        xv = x0 + (x1 - x0) * i / 4
        yv = y0 + (y1 - y0) * i / 4
        out.append(
            f'<text x="{px(xv):.1f}" y="{h-mb+16}" text-anchor="middle" font-size="10">{xv:.4g}</text>'
        )
        out.append(
            f'<text x="{ml-6}" y="{py(yv)+3:.1f}" text-anchor="end" font-size="10">{yv:.4g}</text>'
        )
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        out.append(
            f'<text x="{w-mr-6}" y="{mt + 14*i + 10}" text-anchor="end" font-size="11" fill="{color}">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out)


def svg_from_csv(csv_path: Path, svg_path: Path | None = None) -> Path:
    """Regenerate the plot for a CSV written by this module.

    Only the CSV content is consulted, so plots can be rebuilt offline and
    rebuilding the same CSV yields byte-identical SVG.
    """
    csv_path = Path(csv_path)
    meta, columns, data = read_csv(csv_path)
    cfgstr = meta.get("config", "")
    kind = "unknown"
    for part in cfgstr.split(";"):
        if part.startswith("experiment="):
            kind = part.split("=", 1)[1]
    series = []
    if columns[0] == "eta" and "z" in columns and "kde" in columns:
        etas = sorted(set(data[:, 0]))
        zcol = columns.index("z")
        for e in etas:
            sel = data[:, 0] == e
            for name in columns[2:]:
                c = columns.index(name)
                label = f"{name} eta={e:g}" if name != "triangular" else name
                if name == "triangular" and e != etas[0]:
                    continue
                series.append((label, data[sel, zcol], data[sel, c]))
        xl = "z"
    elif columns[0] == "eta" and "t" in columns:
        tcol = columns.index("t")
        etas = sorted(set(data[:, 0]))
        for e in etas:
            sel = data[:, 0] == e
            series.append((f"{columns[2]} eta={e:g}", data[sel, tcol], data[sel, 2]))
        if "reference_printed" in columns:
            sel = data[:, 0] == etas[0]
            series.append(
                ("min(t/0.25, 1/6)", data[sel, tcol], data[sel, columns.index("reference_printed")])
            )
        xl = "t"
    else:
        xl = columns[0]
        for name in columns[1:]:
            series.append((name, data[:, 0], data[:, columns.index(name)]))
    svg = _render_svg(series, xl, "value", f"{kind}: {csv_path.name}")
    svg_path = Path(svg_path) if svg_path else csv_path.with_suffix(".svg")
    svg_path.write_text(svg)
    return svg_path


def _emit(cfg: ExperimentConfig, tables, svg: bool = False) -> list[Path]:
    """Write each ``(file name, columns, rows)`` table into ``cfg.out_dir``.

    With ``svg`` and ``cfg.emit_svg`` both set, the first table's plot is
    then rebuilt from its CSV.  Returns the paths in the order written.
    """
    files = [write_csv(Path(cfg.out_dir) / name, cfg, columns, rows)
             for name, columns, rows in tables]
    if svg and cfg.emit_svg:
        files.append(svg_from_csv(files[0]))
    return files


# ---------------------------------------------------------------------------
# tabulation subcommands


def _table_end(params: ModelParams, multiple: float) -> float:
    """``multiple * eta^2/sigma^2``, the last time of a table; InvalidDomainError past the double range."""
    end = multiple * params.timescale
    if end == math.inf:
        raise InvalidDomainError(
            f"time scale eta^2/sigma^2 = {params.timescale:.4g} is too large: the table"
            f" would end at {multiple:g} times it, past the double range"
        )
    return end


def run_density_table(cfg: ExperimentConfig) -> list[Path]:
    """Tabulate the absorbed density on a (t, x) grid."""
    params = ModelParams(cfg.sigma, cfg.eta)
    ts = np.geomspace(1e-3 * params.timescale, _table_end(params, 1e2), 40)
    xs = np.linspace(-params.eta, params.eta, 41)
    vals = absorbed_density(params, t=ts[:, None], x=xs[None, :])
    rows = [(t, x, v) for t, row in zip(ts.tolist(), vals.tolist())
            for x, v in zip(xs.tolist(), row)]
    return _emit(cfg, [("density_table.csv", ("t", "x", "p"), rows)])


def run_tau_table(cfg: ExperimentConfig) -> list[Path]:
    """Tabulate survival, density and quantiles of the exit time."""
    params = ModelParams(cfg.sigma, cfg.eta)
    law = FirstPassageLaw(params)
    ts = np.linspace(0.0, _table_end(params, 8.0), 321)
    surv = law.survival(ts)
    dens = np.concatenate(([0.0], law.density(ts[1:])))
    ps = np.linspace(0.01, 0.99, 99)
    qs = law.quantile(ps)
    return _emit(cfg, [
        ("tau_table.csv", ("t", "survival", "density"),
         list(zip(ts.tolist(), surv.tolist(), dens.tolist()))),
        ("tau_quantiles.csv", ("p", "quantile"), list(zip(ps.tolist(), qs.tolist()))),
    ])


# ---------------------------------------------------------------------------
# simulation studies


class _SampleRows:
    """The sized iterable of sample rows ``(eta, t, z)``: ``parts`` holds one
    array of ``z`` per (eta, t) pair, and a row's tuple is made when it is read."""

    def __init__(self) -> None:
        self.parts = []

    def __len__(self) -> int:
        return sum(z.size for *_, z in self.parts)

    def __iter__(self):
        for e, t, z in self.parts:
            for i in range(0, z.size, _CSV_BATCH):
                yield from zip(itertools.repeat(e), itertools.repeat(t),
                               z[i : i + _CSV_BATCH].tolist())


def _batch_config(cfg: ExperimentConfig, etas, t_eval) -> PathConfig:
    """The batch of ``cfg`` at these thresholds and times; its grid ends at the last time."""
    return PathConfig(sigma=cfg.sigma, etas=etas, t_eval=t_eval, n_steps=cfg.steps,
                      n_paths=cfg.paths, seed=cfg.seed)


def run_simulate(cfg: ExperimentConfig) -> list[Path]:
    """Raw error samples, moment summaries and renewal-count histograms."""
    pc = _batch_config(cfg, cfg.etas or (cfg.eta,), cfg.t_eval or (cfg.t,))
    batch = simulate_batch(pc, cfg.workers)

    stride = max(1, math.ceil(pc.n_paths * len(pc.etas) * len(pc.t_eval) / cfg.sample_cap))
    sample_rows = _SampleRows()
    moment_rows = []
    hist_rows = []
    for j, e in enumerate(pc.etas):
        for t in pc.t_eval:
            s = batch.sample(e, t)
            sample_rows.parts.append((e, t, s.values[::stride].copy()))
            moment_rows.append(
                (e, t, s.n, s.mean(), s.variance(), float(s.values[0]), float(s.values[-1]))
            )
        counts = np.bincount(batch.renewal_counts[:, j])
        for c in np.flatnonzero(counts):
            hist_rows.append((e, int(c), float(counts[c] / cfg.paths)))
    return _emit(cfg, [
        ("simulate_samples.csv", ("eta", "t", "z"), sample_rows),
        ("simulate_moments.csv", ("eta", "t", "n", "mean", "variance", "min", "max"), moment_rows),
        ("simulate_renewals.csv", ("eta", "count", "frequency"), hist_rows),
    ])


def run_fig1(cfg: ExperimentConfig) -> list[Path]:
    """Kernel estimates of the error density against the two reference laws."""
    pc = _batch_config(cfg, cfg.etas or FIG1_ETAS, (cfg.t,))
    batch = simulate_batch(pc, cfg.workers)
    z = np.linspace(-1.1, 1.1, 441)
    rows = []
    for e in pc.etas:
        est = kde(batch.sample(e, cfg.t), z)
        tri = triangular_pdf(z)
        fn = ScaledNormalLaw(cfg.sigma, cfg.t, e).pdf(z)
        for i in range(z.size):
            rows.append((e, z[i], est.grid.f[i], tri[i], fn[i]))
    return _emit(cfg, [("fig1.csv", ("eta", "z", "kde", "triangular", "fnorm"), rows)], svg=True)


def run_fig2(cfg: ExperimentConfig) -> list[Path]:
    """Wasserstein distances to the two reference laws across thresholds.

    Both distance curves are computed from the same sample batch.
    """
    pc = _batch_config(cfg, cfg.etas or FIG2_ETAS, (cfg.t,))
    batch = simulate_batch(pc, cfg.workers)
    tri = TriangularLaw()
    rows = []
    for e in pc.etas:
        s = batch.sample(e, cfg.t)
        d_tri = wasserstein1(s, tri)
        d_norm = wasserstein1(s, ScaledNormalLaw(cfg.sigma, cfg.t, e))
        rows.append((e, d_tri, d_norm))
    return _emit(cfg, [("fig2.csv", ("eta", "d_w_triangular", "d_w_fnorm"), rows)], svg=True)


def run_fig3(cfg: ExperimentConfig) -> list[Path]:
    """Variance of the normalized error as a function of time.

    Emits the per-threshold reference line ``min(t/eta^2, 1/6)`` and the
    fixed printed line ``min(t/0.25, 1/6)``, which matches only eta = 0.5.
    """
    pc = _batch_config(cfg, cfg.etas or FIG3_ETAS, cfg.t_eval or FIG3_T_EVAL)
    if not all(0.0 < e * e < math.inf for e in pc.etas):  # the reference line divides by eta^2
        raise InvalidDomainError(f"every eta^2 must be finite and > 0, got etas={pc.etas}")
    batch = simulate_batch(pc, cfg.workers)
    rows = []
    for e in pc.etas:
        for t in pc.t_eval:
            rows.append(
                (
                    e,
                    t,
                    batch.variance(e, t),
                    min(t / e**2, 1.0 / 6.0),
                    min(t / 0.25, 1.0 / 6.0),
                )
            )
    return _emit(
        cfg, [("fig3.csv", ("eta", "t", "variance", "reference_eta", "reference_printed"), rows)],
        svg=True,
    )


def _convergence_ladder(sigma: float, rg, z: np.ndarray) -> list[tuple]:
    """Report rows of the ladder toward the triangular law, with its gate.

    The sup gap must shrink along the ladder while it is above the series
    truncation floor ``100 * TERM_TOL``; below the floor the gaps are
    rounding noise, so they need only stay below it.  The last gap must be
    under 1e-3.  Raises ToleranceNotMetError otherwise.  ``z`` must hold 0,
    where the ``atom`` column is read off each rung's density.
    """
    floor = 100.0 * TERM_TOL
    tri_vals = triangular_pdf(z)
    tri = TriangularLaw()
    p1 = ModelParams(sigma, 1.0)
    (zero,) = np.flatnonzero(z == 0.0)
    rows = []
    for T in LIMIT_LADDER:
        ed = tracking_error_density(p1, rg, T, z)
        gap = float(np.max(np.abs(ed.convolution - tri_vals)))
        d_w = wasserstein1(ed.law(), tri)
        atom = float(ed.atom[zero])
        rows.append((T, gap, d_w, atom, 4.0 / (3.0 * sigma**2 * T), ed.mass))
    gaps = [row[1] for row in rows]
    if any(b >= max(a, floor) for a, b in zip(gaps, gaps[1:])):
        raise ToleranceNotMetError(f"convergence ladder is not decreasing: {gaps}")
    if gaps[-1] >= 1e-3:
        raise ToleranceNotMetError(f"final ladder gap {gaps[-1]:.3e} >= 1e-3")
    return rows


def run_limit_check(cfg: ExperimentConfig) -> list[Path]:
    """Convergence ladder toward the triangular law plus a Monte Carlo cross-check.

    Raises ToleranceNotMetError (CLI exit code 3) if the ladder gap fails to
    decrease above the series truncation floor, the final gap exceeds 1e-3,
    or the analytic and empirical densities at the operating point disagree
    by more than 0.01 in d_W.
    """
    pc = _batch_config(cfg, (cfg.eta,), (cfg.t,))
    sigma = cfg.sigma
    law1 = FirstPassageLaw(ModelParams(sigma, 1.0))
    horizon = max(LIMIT_LADDER) * 1.05
    rg = solve_renewal_density(law1, horizon=horizon)
    z = np.linspace(-1.0, 1.0, 1001)
    tri_vals = triangular_pdf(z)
    tri = TriangularLaw()
    ladder_rows = _convergence_ladder(sigma, rg, z)

    # Monte Carlo cross-check at the small-threshold operating point
    params = ModelParams(sigma, cfg.eta)
    sample = simulate_batch(pc, cfg.workers).sample(cfg.eta, cfg.t)
    ed = tracking_error_density(params, rg, cfg.t, z)
    d_mc = wasserstein1(sample, ed.law())
    d_mc_tri = wasserstein1(sample, tri)

    # every file is written before the gate below, so a failing run leaves its evidence
    files = _emit(cfg, [
        ("limit_density.csv", ("z", "f_analytic", "triangular"),
         [(z[i], ed.grid.f[i], tri_vals[i]) for i in range(z.size)]),
        ("limit_report.csv",
         ("t_rescaled", "sup_gap_convolution", "d_w_triangular", "atom", "atom_bound", "mass"),
         ladder_rows),
        ("limit_crosscheck.csv", ("eta", "t", "paths", "d_w_analytic_mc", "d_w_mc_triangular"),
         [(cfg.eta, cfg.t, cfg.paths, d_mc, d_mc_tri)]),
    ], svg=True)
    if d_mc >= _MC_CROSSCHECK_TOL:
        raise ToleranceNotMetError(
            f"analytic vs Monte Carlo Wasserstein distance {d_mc:.4f} >= {_MC_CROSSCHECK_TOL}"
        )
    return files
