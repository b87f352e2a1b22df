"""Experiment orchestration: simulation studies with CSV and SVG emission.

Each ``run_*`` function executes one study from an :class:`ExperimentConfig`
and writes CSV files whose data rows are byte-reproducible for a fixed seed
and configuration, independent of the worker count.  Every CSV starts with a
commented metadata block (tool version, configuration echo, seed, content
hash of the configuration); SVG plots are regenerated purely from CSV
content, never from in-memory state.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .density import absorbed_density
from .distributions import (
    ScaledNormalLaw,
    TriangularLaw,
    kde,
    scaled_normal_pdf,
    triangular_pdf,
    wasserstein1,
)
from .errors import ConfigError, ToleranceNotMetError
from .first_passage import FirstPassageLaw
from .params import DEFAULT_SERIES, ModelParams
from .path_sim import PathConfig, SimulationBatch, simulate_batch
from .renewal import (
    convolution_term,
    solve_renewal_density,
    tracking_error_density,
)

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


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: model, protocol and output options."""

    experiment: str = "fig1"
    sigma: float = 1.0
    eta: float = 0.5
    etas: tuple[float, ...] = ()
    t: float = 0.5
    t_eval: tuple[float, ...] = ()
    t_end: float = 0.5
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

    def path_config(self, etas) -> PathConfig:
        return PathConfig(
            t_end=self.t_end,
            n_steps=self.steps,
            n_paths=self.paths,
            seed=self.seed,
            etas=tuple(etas),
        )

    def canonical(self) -> str:
        """Configuration echo that determines the CSV bodies.

        Runtime details (workers, output directory, SVG switch) are excluded:
        they must not change any emitted number.
        """
        keys = (
            "experiment", "sigma", "eta", "etas", "t", "t_eval", "t_end",
            "paths", "steps", "seed", "sample_cap",
        )
        parts = []
        for k in keys:
            v = getattr(self, k)
            if isinstance(v, tuple):
                parts.append(f"{k}=[{','.join(format(x, '.17g') for x in v)}]")
            elif isinstance(v, float):
                parts.append(f"{k}={format(v, '.17g')}")
            else:
                parts.append(f"{k}={v}")
        return ";".join(parts)


def _content_hash(payload: str) -> str:
    blob = f"blob {len(payload)}\0".encode() + payload.encode()
    return hashlib.sha1(blob).hexdigest()


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def write_csv(path: Path, cfg: ExperimentConfig, columns, rows) -> Path:
    """Write a CSV with the standard metadata block; returns the path."""
    payload = cfg.canonical()
    buf = io.StringIO()
    buf.write(f"# exitgrid-version = {__version__}\n")
    buf.write(f"# seed = {cfg.seed}\n")
    buf.write(f"# config = {payload}\n")
    buf.write(f"# content-hash = {_content_hash(payload)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(buf.getvalue())
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
    elif columns[0] == "eta":
        for name in columns[1:]:
            c = columns.index(name)
            series.append((name, data[:, 0], data[:, c]))
        xl = "eta"
    else:
        xl = columns[0]
        for name in columns[1:]:
            series.append((name, data[:, 0], data[:, columns.index(name)]))
    svg = _render_svg(series, xl, "value", f"{kind}: {csv_path.name}")
    svg_path = Path(svg_path) if svg_path else csv_path.with_suffix(".svg")
    svg_path.write_text(svg)
    return svg_path


# ---------------------------------------------------------------------------
# tabulation subcommands


def run_density_table(cfg: ExperimentConfig) -> list[Path]:
    """Tabulate the absorbed density on a (t, x) grid."""
    params = ModelParams(cfg.sigma, cfg.eta)
    ts = np.geomspace(1e-3 * params.timescale, 1e2 * params.timescale, 40)
    xs = np.linspace(-params.eta, params.eta, 41)
    rows = []
    for t in ts:
        vals = absorbed_density(params, t=np.full(xs.shape, t), x=xs)
        for x, v in zip(xs, np.atleast_1d(vals)):
            rows.append((t, x, v))
    out = write_csv(Path(cfg.out_dir) / "density_table.csv", cfg, ("t", "x", "p"), rows)
    return [out]


def run_tau_table(cfg: ExperimentConfig) -> list[Path]:
    """Tabulate survival, density and quantiles of the exit time."""
    params = ModelParams(cfg.sigma, cfg.eta)
    law = FirstPassageLaw(params)
    ts = np.linspace(0.0, 8.0 * params.timescale, 321)
    surv = law.survival(ts)
    dens = np.concatenate(([0.0], law.density(ts[1:])))
    rows = [(t, s, d) for t, s, d in zip(ts, surv, dens)]
    p1 = write_csv(Path(cfg.out_dir) / "tau_table.csv", cfg, ("t", "survival", "density"), rows)
    ps = np.linspace(0.01, 0.99, 99)
    qs = law.quantile(ps)
    p2 = write_csv(
        Path(cfg.out_dir) / "tau_quantiles.csv", cfg, ("p", "quantile"), list(zip(ps, qs))
    )
    return [p1, p2]


# ---------------------------------------------------------------------------
# simulation studies


def _fig_batch(cfg: ExperimentConfig, etas, t_eval) -> SimulationBatch:
    return simulate_batch(
        cfg.path_config(etas), cfg.sigma, t_eval, workers=cfg.workers
    )


def run_simulate(cfg: ExperimentConfig) -> list[Path]:
    """Raw error samples, moment summaries and renewal-count histograms."""
    etas = cfg.etas or (cfg.eta,)
    t_eval = cfg.t_eval or (cfg.t_end,)
    batch = _fig_batch(cfg, etas, t_eval)

    stride = max(1, math.ceil(cfg.paths * len(etas) * len(t_eval) / cfg.sample_cap))
    sample_rows = []
    moment_rows = []
    hist_rows = []
    for e in etas:
        for t in t_eval:
            s = batch.sample(e, t)
            for v in s.values[::stride]:
                sample_rows.append((e, t, v))
            moment_rows.append(
                (e, t, s.n, s.mean(), s.variance(), float(s.values[0]), float(s.values[-1]))
            )
        counts = batch.renewal_counts[:, list(etas).index(e)]
        for c in np.unique(counts):
            hist_rows.append((e, int(c), float(np.mean(counts == c))))
    p1 = write_csv(
        Path(cfg.out_dir) / "simulate_samples.csv", cfg, ("eta", "t", "z"), sample_rows
    )
    p2 = write_csv(
        Path(cfg.out_dir) / "simulate_moments.csv",
        cfg,
        ("eta", "t", "n", "mean", "variance", "min", "max"),
        moment_rows,
    )
    p3 = write_csv(
        Path(cfg.out_dir) / "simulate_renewals.csv",
        cfg,
        ("eta", "count", "frequency"),
        hist_rows,
    )
    return [p1, p2, p3]


def run_fig1(cfg: ExperimentConfig) -> list[Path]:
    """Kernel estimates of the error density against the two reference laws."""
    etas = cfg.etas or FIG1_ETAS
    batch = _fig_batch(cfg, etas, (cfg.t,))
    z = np.linspace(-1.1, 1.1, 441)
    rows = []
    for e in etas:
        est = kde(batch.sample(e, cfg.t), z)
        tri = triangular_pdf(z)
        fn = scaled_normal_pdf(z, cfg.sigma, cfg.t, e)
        for i in range(z.size):
            rows.append((e, z[i], est.grid.f[i], tri[i], fn[i]))
    out = [
        write_csv(
            Path(cfg.out_dir) / "fig1.csv",
            cfg,
            ("eta", "z", "kde", "triangular", "fnorm"),
            rows,
        )
    ]
    if cfg.emit_svg:
        out.append(svg_from_csv(out[0]))
    return out


def run_fig2(cfg: ExperimentConfig) -> list[Path]:
    """Wasserstein distances to the two reference laws across thresholds.

    Both distance curves are computed from the same sample batch.
    """
    etas = cfg.etas or FIG2_ETAS
    batch = _fig_batch(cfg, etas, (cfg.t,))
    tri = TriangularLaw()
    rows = []
    for e in etas:
        s = batch.sample(e, cfg.t)
        d_tri = wasserstein1(s, tri)
        d_norm = wasserstein1(s, ScaledNormalLaw(cfg.sigma, cfg.t, e))
        rows.append((e, d_tri, d_norm))
    out = [
        write_csv(
            Path(cfg.out_dir) / "fig2.csv",
            cfg,
            ("eta", "d_w_triangular", "d_w_fnorm"),
            rows,
        )
    ]
    if cfg.emit_svg:
        out.append(svg_from_csv(out[0]))
    return out


def run_fig3(cfg: ExperimentConfig) -> list[Path]:
    """Variance of the normalized error as a function of time.

    Emits the per-threshold reference line ``min(t/eta^2, 1/6)`` and the
    fixed printed line ``min(t/0.25, 1/6)``, which matches only eta = 0.5.
    """
    etas = cfg.etas or FIG3_ETAS
    t_eval = cfg.t_eval or FIG3_T_EVAL
    batch = _fig_batch(cfg, etas, t_eval)
    rows = []
    for e in etas:
        for t in t_eval:
            rows.append(
                (
                    e,
                    t,
                    batch.variance(e, t),
                    min(t / e**2, 1.0 / 6.0),
                    min(t / 0.25, 1.0 / 6.0),
                )
            )
    out = [
        write_csv(
            Path(cfg.out_dir) / "fig3.csv",
            cfg,
            ("eta", "t", "variance", "reference_eta", "reference_printed"),
            rows,
        )
    ]
    if cfg.emit_svg:
        out.append(svg_from_csv(out[0]))
    return out


def _convergence_ladder(sigma: float, rg, z: np.ndarray) -> list[tuple]:
    """Report rows of the ladder toward the triangular law, with its gate.

    The sup gap must shrink along the ladder while it is above the series
    truncation floor ``100 * term_tol``; below the floor the gaps are
    rounding noise, so they need only stay below it.  The last gap must be
    under 1e-3.  Raises ToleranceNotMetError otherwise.
    """
    floor = 100.0 * DEFAULT_SERIES.term_tol
    tri_vals = triangular_pdf(z)
    tri = TriangularLaw()
    p1 = ModelParams(sigma, 1.0)
    rows = []
    for T in LIMIT_LADDER:
        conv = convolution_term(p1, rg, T, z)
        gap = float(np.max(np.abs(conv - tri_vals)))
        ed = tracking_error_density(p1, rg, T, z)
        d_w = wasserstein1(ed.law(), tri)
        atom = absorbed_density(p1, t=T, x=0.0)
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
    batch = _fig_batch(cfg, (cfg.eta,), (cfg.t,))
    sample = batch.sample(cfg.eta, cfg.t)
    ed = tracking_error_density(params, rg, cfg.t, z)
    d_mc = wasserstein1(sample, ed.law())
    d_mc_tri = wasserstein1(sample, tri)

    files = []
    files.append(
        write_csv(
            Path(cfg.out_dir) / "limit_density.csv",
            cfg,
            ("z", "f_analytic", "triangular"),
            [(z[i], ed.grid.f[i], tri_vals[i]) for i in range(z.size)],
        )
    )
    files.append(
        write_csv(
            Path(cfg.out_dir) / "limit_report.csv",
            cfg,
            ("t_rescaled", "sup_gap_convolution", "d_w_triangular", "atom", "atom_bound", "mass"),
            ladder_rows,
        )
    )
    files.append(
        write_csv(
            Path(cfg.out_dir) / "limit_crosscheck.csv",
            cfg,
            ("eta", "t", "paths", "d_w_analytic_mc", "d_w_mc_triangular"),
            [(cfg.eta, cfg.t, cfg.paths, d_mc, d_mc_tri)],
        )
    )
    if cfg.emit_svg:
        files.append(svg_from_csv(files[0]))
    if d_mc >= _MC_CROSSCHECK_TOL:
        raise ToleranceNotMetError(
            f"analytic vs Monte Carlo Wasserstein distance {d_mc:.4f} >= {_MC_CROSSCHECK_TOL}"
        )
    return files
