"""The benchmark in ``perfbench/`` resolves exitgrid functions by name.

A renamed or re-signatured function, or a changed field of a result it
reads, would show up there only as failed benchmark operations, so this
runs the benchmark's own tracer with its ``analytic`` workload and small
``mc_fine`` and ``mc_wide`` workloads against the package, so every
command-line flag the benchmark passes meets the parser.  Nothing under ``perfbench/`` is
written: its modules are imported without bytecode caching.
"""

import importlib
import sys
from pathlib import Path

import pytest

import exitgrid
import exitgrid.cli  # noqa: F401  (the tracer wraps cli.main)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("oracle", "spans", "workloads")
    for name in names:  # fresh imports, dropped again when the test ends
        monkeypatch.delitem(sys.modules, name, raising=False)
    return {name: importlib.import_module(name) for name in names}


def test_analytic_workload_runs_traced(perfbench, tmp_path):
    spans, workloads, oracle = perfbench["spans"], perfbench["workloads"], perfbench["oracle"]
    tracer = spans.Tracer()
    tracer.install()  # raises if a TARGETS name no longer resolves
    try:
        ops = workloads.Ops()
        state = workloads.analytic_body(exitgrid, 11, tmp_path, ops)
    finally:
        tracer.uninstall()
    # the tracer times the atom where renewal calls it, and put it back
    assert exitgrid.renewal.absorbed_density is exitgrid.density.absorbed_density
    result = workloads.analytic_check(exitgrid, state, tmp_path, ops)

    assert ops.failures == []
    assert ops.attempted > 0
    assert result["analytic_max_err"] <= oracle.ORACLE_TOL
    names = {s["name"] for s in tracer.spans}
    assert {"cli.main", "renewal.solve", "renewal.convolution", "density.absorbed"} <= names


def test_mc_fine_workload_runs_traced(perfbench, monkeypatch, tmp_path):
    # the workload at 30 paths, patched in memory; its check reads the same constant
    spans, workloads = perfbench["spans"], perfbench["workloads"]
    monkeypatch.setattr(workloads, "MC_FINE_PATHS", 30)
    tracer = spans.Tracer()
    tracer.install()
    try:
        ops = workloads.Ops()
        state = workloads.mc_fine_body(exitgrid, 11, tmp_path, ops)
    finally:
        tracer.uninstall()
    workloads.mc_fine_check(exitgrid, state, tmp_path, ops)

    assert ops.failures == []
    assert ops.attempted > 0
    scans = [s for s in tracer.spans if s["name"] == "path_sim.scan"]
    assert scans and all(s["counts"]["crossings"] > 0 for s in scans)


def test_mc_wide_workload_runs_traced(perfbench, monkeypatch, tmp_path):
    # fig2 with every flag the workload passes, at 100 paths (1e7 normals),
    # patched in memory; its check reads the 15 rows and both distance orders
    spans, workloads = perfbench["spans"], perfbench["workloads"]
    monkeypatch.setattr(workloads, "MC_WIDE_PATHS", 100)
    tracer = spans.Tracer()
    tracer.install()
    try:
        ops = workloads.Ops()
        state = workloads.mc_wide_body(exitgrid, 11, tmp_path, ops)
    finally:
        tracer.uninstall()
    workloads.mc_wide_check(exitgrid, state, tmp_path, ops)

    assert ops.failures == []
    assert ops.attempted > 0
    assert any(s["name"] == "path_sim.scan" for s in tracer.spans)
