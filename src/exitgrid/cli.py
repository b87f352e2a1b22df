"""Command-line front end.

Usage::

    exitgrid <subcommand> [--config FILE] [--seed N] [--sigma X] [--eta X]
             [--etas LIST] [--t X] [--t-eval LIST] [--out DIR] [...]

Subcommands: density, tau, limit, simulate, fig1, fig2, fig3.  Each takes
only the options its runner reads (see :data:`_SUBCOMMANDS`); any other flag
is a usage error.

Options may also come from a plain-text configuration file of ``key = value``
lines (``#`` comments allowed); command-line flags override file values.
Exit codes: 0 success, 2 configuration error, 3 numerical failure (a
tolerance not met, or a series past its term cap).  Every default is a
field default of :class:`ExperimentConfig`; ``--paper-scale`` raises the
path and step defaults to the full protocol.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .errors import (
    ConfigError,
    DegenerateSampleError,
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

_PAPER_PATHS = 50000
_PAPER_STEPS = 200000  # 200001 grid points


def _parse_float_list(text: str) -> tuple[float, ...]:
    values = tuple(float(v) for v in text.replace(" ", "").split(",") if v)
    if not values:
        raise ValueError("empty list")
    return values


def _parse_bool(text: str) -> bool:
    return text.strip().lower() in ("1", "true", "yes", "on")


# option -> (ExperimentConfig field, parser of its text value, help); the
# command line and the config file both go through the parser, and the
# defaults are the dataclass's own.  paper_scale is no field: it only raises
# the paths and steps defaults.
_OPTIONS = {
    "seed": ("seed", int, "reproducibility seed"),
    "paths": ("paths", int, "number of trajectories"),
    "steps": ("steps", int, "grid intervals over [0, last evaluation time]"),
    "workers": ("workers", int, "parallel workers"),
    "sigma": ("sigma", float, "diffusion coefficient"),
    "eta": ("eta", float, "single threshold"),
    "etas": ("etas", _parse_float_list, "comma list of thresholds"),
    "t": ("t", float, "observation time"),
    "t-eval": ("t_eval", _parse_float_list, "comma list of evaluation times"),
    "sample-cap": ("sample_cap", int, "max emitted sample rows, >= 1"),
    "out": ("out_dir", str, "output directory"),
    "svg": ("emit_svg", _parse_bool, "also emit SVG plots"),
    "paper-scale": ("paper_scale", _parse_bool,
                    f"full-scale protocol: {_PAPER_PATHS} paths, {_PAPER_STEPS + 1} grid points"),
}
_DEFAULTS = ExperimentConfig()

_TABLE = ("seed", "sigma", "eta", "out")
_MONTE_CARLO = ("seed", "sigma", "out", "paths", "steps", "workers", "paper-scale")

# subcommand -> (runner, help, the options the runner reads); --config is on every one
_SUBCOMMANDS = {
    "density": (run_density_table, "tabulate the absorbed transition density to CSV", _TABLE),
    "tau": (run_tau_table, "tabulate exit-time survival/density/quantiles to CSV", _TABLE),
    "limit": (run_limit_check, "closed-form triangular-limit ladder + Monte Carlo cross-check",
              _MONTE_CARLO + ("eta", "t", "svg")),
    "simulate": (run_simulate, "raw tracking-error samples, moments and renewal histograms",
                 _MONTE_CARLO + ("eta", "etas", "t", "t-eval", "sample-cap")),
    "fig1": (run_fig1, "kernel density estimates vs the two reference laws",
             _MONTE_CARLO + ("etas", "t", "svg")),
    "fig2": (run_fig2, "Wasserstein distances to both laws across thresholds",
             _MONTE_CARLO + ("etas", "t", "svg")),
    "fig3": (run_fig3, "error variance as a function of time",
             _MONTE_CARLO + ("etas", "t-eval", "svg")),
}


def _parse(option: str, text: str):
    """The typed value of ``--option text``; ConfigError when it does not parse."""
    try:
        return _OPTIONS[option][1](text)
    except ValueError as exc:  # ConfigError included
        raise ConfigError(f"bad value for {option}: {text!r}") from exc


def _read_config_file(path: str, name: str) -> dict:
    """Parse ``key = value`` lines; keys are the long options of subcommand ``name``."""
    options = _SUBCOMMANDS[name][2]
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
        if key not in options:
            raise ConfigError(f"{path}:{ln}: key {key!r} is not an option of {name}")
        try:
            values[_OPTIONS[key][0]] = _parse(key, val)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{ln}: {exc}") from exc
    return values


@functools.cache  # built once per process; it reads only constants
def _build_parser() -> argparse.ArgumentParser:
    codes = ("exit codes: 0 success, 2 configuration error, 3 numerical failure "
             "(a tolerance not met, or a series past its term cap).")
    parser = argparse.ArgumentParser(
        prog="exitgrid",
        description="First-exit discretization of the Wiener process: "
        "tables, simulations and verification figures.",
        epilog=codes,
    )
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="subcommand")
    for name, (_, helptext, options) in _SUBCOMMANDS.items():
        integers = ", ".join(f"--{o}" for o in options if _OPTIONS[o][1] is int)
        sp = sub.add_parser(name, help=helptext, allow_abbrev=False, epilog=(
            f"{codes} Integer options ({integers}) take integer literals: 1000, not 1e3."))
        sp.add_argument("--config", metavar="FILE", help="key = value configuration file")
        for option in options:
            field, parse, text = _OPTIONS[option]
            if parse is _parse_bool:
                sp.add_argument(f"--{option}", dest=field, action="store_true", default=None,
                                help=text)
                continue
            default = getattr(_DEFAULTS, field)
            if not isinstance(default, tuple):
                text = f"{text} (default {default})"
            sp.add_argument(f"--{option}", dest=field, help=text)
    return parser


def _merge_config(args: argparse.Namespace) -> ExperimentConfig:
    """Command-line values over config-file values over the dataclass defaults."""
    name = args.experiment
    values = _read_config_file(args.config, name) if args.config else {}
    for option in _SUBCOMMANDS[name][2]:
        field, parse, _ = _OPTIONS[option]
        given = getattr(args, field)
        if given is not None:
            values[field] = given if parse is _parse_bool else _parse(option, given)
    for one, many in (("eta", "etas"), ("t", "t-eval")):  # the list would silently win
        if _OPTIONS[one][0] in values and _OPTIONS[many][0] in values:
            raise ConfigError(f"--{one} and --{many} are exclusive: give one of them")
    if values.pop("paper_scale", False):
        values.setdefault("paths", _PAPER_PATHS)
        values.setdefault("steps", _PAPER_STEPS)
    return ExperimentConfig(experiment=name, **values)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = _merge_config(args)
        files = _SUBCOMMANDS[cfg.experiment][0](cfg)
    except (ConfigError, DegenerateSampleError, InvalidDomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ToleranceNotMetError, NoConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
