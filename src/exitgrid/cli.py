"""Command-line front end.

Usage::

    exitgrid <subcommand> [--config FILE] [--seed N] [--paths N] [--eta LIST]
             [--out DIR] [--paper-scale] [--svg] [...]

Subcommands: density, tau, limit, simulate, fig1, fig2, fig3.

Options may also come from a plain-text configuration file of ``key = value``
lines (``#`` comments allowed); command-line flags override file values.
Exit codes: 0 success, 2 configuration error, 3 numerical failure (a
tolerance not met, a renewal grid too short for the requested time, or a
series past its term cap).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import (
    ConfigError,
    HorizonTooShortError,
    InvalidDomainError,
    NoConvergenceError,
    ToleranceNotMetError,
)
from .experiments import (
    ExperimentConfig,
    run_density_table,
    run_fig1,
    run_fig2,
    run_fig3,
    run_limit_check,
    run_simulate,
    run_tau_table,
)

_RUNNERS = {
    "density": run_density_table,
    "tau": run_tau_table,
    "limit": run_limit_check,
    "simulate": run_simulate,
    "fig1": run_fig1,
    "fig2": run_fig2,
    "fig3": run_fig3,
}

_PAPER_PATHS = 50000
_PAPER_STEPS = 200000  # 200001 grid points
_DESK_PATHS = 20000
_DESK_STEPS = 100000  # 100001 grid points


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.replace(" ", "").split(",") if v)
    except ValueError as exc:
        raise ConfigError(f"bad list value: {text!r}") from exc


_FILE_KEYS = {
    "seed": int,
    "paths": int,
    "steps": int,
    "workers": int,
    "sigma": float,
    "eta": float,
    "etas": _parse_float_list,
    "t": float,
    "t-end": float,
    "t-eval": _parse_float_list,
    "sample-cap": int,
    "out": str,
    "svg": lambda v: v.strip().lower() in ("1", "true", "yes", "on"),
    "paper-scale": lambda v: v.strip().lower() in ("1", "true", "yes", "on"),
}


def _read_config_file(path: str) -> dict:
    """Parse ``key = value`` lines; keys match the long CLI option names."""
    values: dict = {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    for ln, raw in enumerate(p.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value', got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        key = key.replace("_", "-")
        if key not in _FILE_KEYS:
            raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
        try:
            values[key] = _FILE_KEYS[key](val)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}:{ln}: bad value for {key}: {val!r}") from exc
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exitgrid",
        description="First-exit discretization of the Wiener process: "
        "tables, simulations and verification figures.",
        epilog="exit codes: 0 success, 2 configuration error, 3 numerical failure "
        "(a tolerance not met, a renewal grid too short for the requested time, "
        "or a series past its term cap)",
    )
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="subcommand")
    for name, helptext in (
        ("density", "tabulate the absorbed transition density to CSV"),
        ("tau", "tabulate exit-time survival/density/quantiles to CSV"),
        ("limit", "closed-form triangular-limit ladder + Monte Carlo cross-check"),
        ("simulate", "raw tracking-error samples, moments and renewal histograms"),
        ("fig1", "kernel density estimates vs the two reference laws"),
        ("fig2", "Wasserstein distances to both laws across thresholds"),
        ("fig3", "error variance as a function of time"),
    ):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", metavar="FILE", help="key = value configuration file")
        sp.add_argument("--seed", type=int, help="reproducibility seed (default 987654321)")
        sp.add_argument("--paths", type=int, help=f"number of trajectories (default {_DESK_PATHS})")
        sp.add_argument("--steps", type=int, help=f"grid intervals (default {_DESK_STEPS})")
        sp.add_argument("--workers", type=int, help="parallel workers (default 1)")
        sp.add_argument("--sigma", type=float, help="diffusion coefficient (default 1.0)")
        sp.add_argument("--eta", type=float, help="single threshold (default 0.5)")
        sp.add_argument("--etas", type=str, help="comma list of thresholds (figures)")
        sp.add_argument("--t", type=float, help="observation time (default 0.5)")
        sp.add_argument("--t-end", dest="t_end", type=float, help="simulation horizon (default 0.5)")
        sp.add_argument("--t-eval", dest="t_eval", type=str, help="comma list of evaluation times")
        sp.add_argument("--sample-cap", dest="sample_cap", type=int, help="max emitted sample rows, >= 1 (default 50000)")
        sp.add_argument("--out", type=str, help="output directory (default .)")
        sp.add_argument("--svg", action="store_true", default=None, help="also emit SVG plots")
        sp.add_argument(
            "--paper-scale",
            dest="paper_scale",
            action="store_true",
            default=None,
            help=f"full-scale protocol: {_PAPER_PATHS} paths, {_PAPER_STEPS + 1} grid points",
        )
    return parser


def _merge_config(args: argparse.Namespace) -> ExperimentConfig:
    file_vals = _read_config_file(args.config) if args.config else {}

    def pick(cli_val, file_key, default):
        if cli_val is not None:
            return cli_val
        if file_key in file_vals:
            return file_vals[file_key]
        return default

    paper = bool(pick(args.paper_scale, "paper-scale", False))
    default_paths = _PAPER_PATHS if paper else _DESK_PATHS
    default_steps = _PAPER_STEPS if paper else _DESK_STEPS

    etas = pick(args.etas, "etas", ())
    if isinstance(etas, str):
        etas = _parse_float_list(etas)
    t_eval = pick(args.t_eval, "t-eval", ())
    if isinstance(t_eval, str):
        t_eval = _parse_float_list(t_eval)

    try:
        return ExperimentConfig(
            experiment=args.experiment,
            sigma=float(pick(args.sigma, "sigma", 1.0)),
            eta=float(pick(args.eta, "eta", 0.5)),
            etas=tuple(etas),
            t=float(pick(args.t, "t", 0.5)),
            t_eval=tuple(t_eval),
            t_end=float(pick(args.t_end, "t-end", 0.5)),
            paths=int(pick(args.paths, "paths", default_paths)),
            steps=int(pick(args.steps, "steps", default_steps)),
            seed=int(pick(args.seed, "seed", 987654321)),
            sample_cap=int(pick(args.sample_cap, "sample-cap", 50000)),
            out_dir=str(pick(args.out, "out", ".")),
            emit_svg=bool(pick(args.svg, "svg", False)),
            workers=int(pick(args.workers, "workers", 1)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = _merge_config(args)
        files = _RUNNERS[cfg.experiment](cfg)
    except (ConfigError, InvalidDomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        ToleranceNotMetError,
        NoConvergenceError,
        HorizonTooShortError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
