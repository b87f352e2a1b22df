"""The three benchmark workloads and the checks on their outputs.

Each workload has a body, which is timed, and a check, which runs after the
timed region and reads back what the body produced.  Every CLI invocation,
every analytic library call and every check counts as one operation in
:class:`Ops`; a call that raises or a check that does not hold is a failed
operation.  The workload seed reaches exitgrid only as the CLI ``--seed``.

* ``mc_wide``  -- ``fig2`` over its 15 default thresholds: generation-bound,
  most (path, eta) scans are skipped by the ``eta > max|x|`` shortcut.
* ``mc_fine``  -- ``simulate`` at eta = 0.02, 0.05, 0.1 on the 17 figure-3
  times: hundreds of detections per path, so the Python scan loop dominates
  and the sample CSV is the heaviest output.
* ``analytic`` -- ``density`` and ``tau`` tables at two parameter sets, then
  the convergence ladder of ``limit`` without its Monte Carlo gate: the
  renewal solve, convolution quadrature and law-pair W1 dominate.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

import oracle

STEPS = 100000
MC_WIDE_PATHS = 1000
MC_FINE_PATHS = 300
MC_FINE_ETAS = (0.02, 0.05, 0.1)
FIG3_T_EVAL = (
    0.002, 0.004, 0.006, 0.008, 0.01,
    0.025, 0.05, 0.075, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5,
)
SAMPLE_CAP = 50000  # the CLI's default cap on emitted sample rows
TABLE_PARAMS = ((1.0, 0.5), (1.7, 2.0))  # (sigma, eta) for density and tau
LADDER = (1.0, 2.0, 5.0, 10.0, 50.0)  # rescaled times of the `limit` ladder
RENEWAL_H = 0.0025
OPERATING_POINT = (1.0, 0.5, 0.5)  # (sigma, eta, t) of the `limit` cross-check


class Ops:
    """Attempted and failed operations of one sample."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, label: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing library call is a failed operation
            self.failures.append(f"{label}: {exc!r}")
            return None

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label} {detail}".strip())
        return ok


def read_csv(path: Path) -> tuple[list[str], np.ndarray, str]:
    """Columns, numeric rows and the SHA-256 of the body (metadata excluded)."""
    body = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    digest = hashlib.sha256("\n".join(body).encode()).hexdigest()
    columns = body[0].split(",")
    rows = np.array([ln.split(",") for ln in body[1:]], dtype=float).reshape(-1, len(columns))
    return columns, rows, digest


def _cli(eg, ops: Ops, argv: list[str]) -> None:
    rc = ops.call(f"cli {argv[0]}", eg.cli.main, argv)
    ops.check(f"cli {argv[0]} exit code", rc == 0, f"rc={rc}")


def _read(ops: Ops, digests: dict, path: Path):
    data = ops.call(f"read {path.name}", read_csv, path)
    if data is not None:
        digests[str(path.relative_to(path.parents[1]))] = data[2]
    return data


# ---------------------------------------------------------------------------
# mc_wide


def mc_wide_body(eg, seed: int, out: Path, ops: Ops) -> dict:
    _cli(eg, ops, ["fig2", "--paths", str(MC_WIDE_PATHS), "--steps", str(STEPS), "--t", "0.5",
                   "--seed", str(seed), "--workers", "1", "--out", str(out / "fig2")])
    return {}


def mc_wide_check(eg, state: dict, out: Path, ops: Ops) -> dict:
    digests: dict = {}
    data = _read(ops, digests, out / "fig2" / "fig2.csv")
    if data is not None:
        _, rows, _ = data
        ops.check("fig2 rows", rows.shape[0] == 15, f"got {rows.shape[0]}")
        by_eta = {row[0]: row for row in rows}
        lo, hi = by_eta.get(0.5), by_eta.get(4.0)
        ops.check("fig2 eta=0.5 nearer triangular", lo is not None and lo[1] < lo[2], f"{lo}")
        ops.check("fig2 eta=4 nearer scaled normal", hi is not None and hi[1] > hi[2], f"{hi}")
    return {"digests": digests}


# ---------------------------------------------------------------------------
# mc_fine


def mc_fine_body(eg, seed: int, out: Path, ops: Ops) -> dict:
    _cli(eg, ops, ["simulate", "--etas", ",".join(map(str, MC_FINE_ETAS)),
                   "--t-eval", ",".join(map(str, FIG3_T_EVAL)), "--paths", str(MC_FINE_PATHS),
                   "--steps", str(STEPS), "--seed", str(seed), "--workers", "1",
                   "--out", str(out / "simulate")])
    return {}


def mc_fine_check(eg, state: dict, out: Path, ops: Ops) -> dict:
    digests: dict = {}
    n_eta, n_t = len(MC_FINE_ETAS), len(FIG3_T_EVAL)
    stride = max(1, math.ceil(MC_FINE_PATHS * n_eta * n_t / SAMPLE_CAP))
    per_pair = len(range(0, MC_FINE_PATHS, stride))
    samples = _read(ops, digests, out / "simulate" / "simulate_samples.csv")
    if samples is not None:
        z = samples[1][:, 2]
        ops.check("samples rows", z.size == n_eta * n_t * per_pair, f"got {z.size}")
        ops.check("samples |z| <= 1", bool(np.all(np.abs(z) <= 1.0)), f"max {np.max(np.abs(z))}")
    moments = _read(ops, digests, out / "simulate" / "simulate_moments.csv")
    if moments is not None:
        rows = moments[1]
        ops.check("moments rows", rows.shape[0] == n_eta * n_t, f"got {rows.shape[0]}")
        ops.check("moments n", bool(np.all(rows[:, 2] == MC_FINE_PATHS)))
    renewals = _read(ops, digests, out / "simulate" / "simulate_renewals.csv")
    if renewals is not None:
        rows = renewals[1]
        for eta in MC_FINE_ETAS:
            freq = rows[rows[:, 0] == eta, 2]
            ops.check(f"renewal histogram eta={eta} sums to 1", freq.size > 0
                      and abs(float(freq.sum()) - 1.0) < 1e-9, f"{freq.sum()}")
    return {"digests": digests}


# ---------------------------------------------------------------------------
# analytic


def analytic_body(eg, seed: int, out: Path, ops: Ops) -> dict:
    for sigma, eta in TABLE_PARAMS:
        for sub in ("density", "tau"):
            _cli(eg, ops, [sub, "--sigma", str(sigma), "--eta", str(eta), "--seed", str(seed),
                           "--out", str(out / f"{sub}_{sigma}_{eta}")])

    # the ladder exactly as `limit` runs it, minus the Monte Carlo batch
    ModelParams = eg.params.ModelParams
    law1 = eg.first_passage.FirstPassageLaw(ModelParams(1.0, 1.0))
    rg = ops.call("solve_renewal_density", eg.renewal.solve_renewal_density,
                  law1, h=RENEWAL_H, horizon=max(LADDER) * 1.05)
    if rg is None:
        return {}
    z = np.linspace(-1.0, 1.0, 1001)
    tri = eg.distributions.TriangularLaw()
    p1 = ModelParams(1.0, 1.0)
    ladder = []
    for T in LADDER:
        conv = ops.call(f"convolution_term T={T}", eg.renewal.convolution_term, p1, rg, T, z)
        ed = ops.call(f"tracking_error_density T={T}", eg.renewal.tracking_error_density,
                      p1, rg, T, z)
        d_w = None if ed is None else ops.call(
            f"wasserstein1 T={T}", eg.distributions.wasserstein1, ed.law(), tri)
        ops.call(f"absorbed_density T={T}", eg.density.absorbed_density, p1, t=T, x=0.0)
        ladder.append((T, conv, ed, d_w))
    sigma, eta, t = OPERATING_POINT
    ed_op = ops.call("tracking_error_density operating point", eg.renewal.tracking_error_density,
                     ModelParams(sigma, eta), rg, t, z)
    return {"z": z, "ladder": ladder, "operating": ed_op}


def analytic_check(eg, state: dict, out: Path, ops: Ops) -> dict:
    digests: dict = {}
    expected_rows = {"density_table.csv": 40 * 41, "tau_table.csv": 321, "tau_quantiles.csv": 99}
    for sigma, eta in TABLE_PARAMS:
        for sub, names in (("density", ("density_table.csv",)),
                           ("tau", ("tau_table.csv", "tau_quantiles.csv"))):
            for name in names:
                data = _read(ops, digests, out / f"{sub}_{sigma}_{eta}" / name)
                if data is not None:
                    ops.check(f"{name} rows sigma={sigma}", data[1].shape[0] == expected_rows[name],
                              f"got {data[1].shape[0]}")
    if not state:
        return {"digests": digests}

    z = state["z"]
    oracle_gaps = []
    gaps = []
    h = hashlib.sha256()
    for T, conv, ed, d_w in state["ladder"]:
        if conv is not None:
            gaps.append(float(np.max(np.abs(conv - eg.distributions.triangular_pdf(z)))))
            h.update(conv.tobytes())
        if ed is not None:
            gap = oracle.max_gap(ed.grid.f, 1.0, T, z)
            oracle_gaps.append(gap)
            ops.check(f"f_Z matches oracle T={T}", gap <= oracle.ORACLE_TOL, f"gap {gap:.3e}")
            h.update(ed.grid.f.tobytes())
        h.update(repr(d_w).encode())
    ops.check("ladder gaps strictly decrease", len(gaps) == len(LADDER)
              and all(b < a for a, b in zip(gaps, gaps[1:])), f"{gaps}")
    ops.check("last ladder gap < 1e-3", bool(gaps) and gaps[-1] < 1e-3, f"{gaps[-1:]}")
    ed_op = state["operating"]
    if ed_op is not None:
        sigma, eta, t = OPERATING_POINT
        gap = oracle.max_gap(ed_op.grid.f, sigma, t / eta**2, z)
        oracle_gaps.append(gap)
        ops.check("f_Z matches oracle at the operating point", gap <= oracle.ORACLE_TOL,
                  f"gap {gap:.3e}")
        h.update(ed_op.grid.f.tobytes())
    digests["ladder"] = h.hexdigest()
    return {"digests": digests, "analytic_max_err": max(oracle_gaps) if oracle_gaps else None}


def operating_point_gap(eg, ops: Ops) -> float | None:
    """Oracle gap of f_Z at the `limit` operating point, for the Monte Carlo workloads."""
    sigma, eta, t = OPERATING_POINT
    T = t / eta**2
    ModelParams = eg.params.ModelParams
    law1 = eg.first_passage.FirstPassageLaw(ModelParams(sigma, 1.0))
    rg = ops.call("solve_renewal_density operating point", eg.renewal.solve_renewal_density,
                  law1, h=RENEWAL_H, horizon=1.05 * T)
    z = np.linspace(-1.0, 1.0, 1001)
    ed = None if rg is None else ops.call(
        "tracking_error_density operating point", eg.renewal.tracking_error_density,
        ModelParams(sigma, eta), rg, t, z)
    if ed is None:
        return None
    gap = oracle.max_gap(ed.grid.f, sigma, T, z)
    ops.check("f_Z matches oracle at the operating point", gap <= oracle.ORACLE_TOL, f"gap {gap:.3e}")
    return gap


WORKLOADS = {
    "mc_wide": (mc_wide_body, mc_wide_check),
    "mc_fine": (mc_fine_body, mc_fine_check),
    "analytic": (analytic_body, analytic_check),
}
