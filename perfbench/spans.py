"""Spans around exitgrid's public functions, kept in memory, and their reduction.

A :class:`Tracer` rebinds each public function listed in ``TARGETS`` to a
wrapper that records one span (name, start, end, parent) per call plus the
work counts visible at that boundary (normals drawn, crossings found, grid
points, CSV rows and bytes).  Nothing inside exitgrid changes: the wrappers
sit at the call boundary, in every exitgrid module that binds the function,
so calls between exitgrid modules are traced as well.

``layer_metrics`` turns the spans of one traced sample into per-layer self
times (span duration minus the time its child spans cover) and counts.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _generate_counts(args, kwargs, out):
    return {"normals": int(np.size(out)) - 1}


def _batch_counts(args, kwargs, out):
    counts = np.asarray(out.renewal_counts)
    return {
        "crossings": int(counts.sum()),
        "pairs": int(counts.size),
        "zero_pairs": int(np.count_nonzero(counts == 0)),
    }


def _points(args, kwargs, out):
    return {"points": int(np.size(out))}


def _csv_counts(args, kwargs, out):
    rows = args[3] if len(args) > 3 else kwargs["rows"]
    return {"csv_rows": len(rows), "csv_bytes": os.path.getsize(out)}


# (module, attribute, span name, counter); "Class.method" names a method
TARGETS = (
    ("exitgrid.path_sim", "generate_path", "path_sim.generate", _generate_counts),
    ("exitgrid.path_sim", "simulate_batch", "path_sim.scan", _batch_counts),
    ("exitgrid.renewal", "solve_renewal_density", "renewal.solve",
     lambda a, k, out: {"grid_points": int(out.values.size)}),
    ("exitgrid.renewal", "convolution_term", "renewal.convolution",
     lambda a, k, out: {"convolution_z": int(np.size(out))}),
    ("exitgrid.renewal", "tracking_error_density", "renewal.error_density", None),
    ("exitgrid.density", "absorbed_density", "density.absorbed", _points),
    ("exitgrid.first_passage", "FirstPassageLaw.survival", "first_passage.survival", _points),
    ("exitgrid.first_passage", "FirstPassageLaw.density", "first_passage.density", _points),
    ("exitgrid.first_passage", "FirstPassageLaw.quantile", "first_passage.quantile", _points),
    ("exitgrid.distributions", "wasserstein1", "distributions.w1", None),
    ("exitgrid.experiments", "write_csv", "experiments.write_csv", _csv_counts),
    ("exitgrid.cli", "main", "cli.main", None),
)


class Tracer:
    """Records spans while installed; single-threaded, like ``workers=1``."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(spans),
                "parent": stack[-1] if stack else None,
                "name": name,
                "start": time.perf_counter(),
                "end": None,
            }
            spans.append(span)
            stack.append(span["id"])
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span["counts"] = counter(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "exitgrid" or n.startswith("exitgrid.")]
        for module_name, attr, name, counter in TARGETS:
            owner = sys.modules[module_name]
            owners = modules
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                owners = [owner]
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            for holder in owners:
                if vars(holder).get(attr) is original:
                    self._undo.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for a, b in sorted(children[s["id"]]):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer self times, call counts and work counts of one traced sample."""
    self_t = self_times(spans)
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    for s in spans:
        busy[s["name"]] += self_t[s["id"]]
        calls[s["name"]] += 1
        layer = s["name"].split(".")[0]
        for key, value in s.get("counts", {}).items():
            counts[f"{layer}.{key}"] += value
    normals = counts["path_sim.normals"]
    crossings = counts["path_sim.crossings"]
    pairs = counts["path_sim.pairs"]
    return {
        "path_sim.generate_s": busy["path_sim.generate"],
        "path_sim.generate_calls": calls["path_sim.generate"],
        "path_sim.normals": normals,
        "path_sim.scan_s": busy["path_sim.scan"],
        "path_sim.crossings": crossings,
        "path_sim.scan_skip_ratio": counts["path_sim.zero_pairs"] / pairs if pairs else 0.0,
        "path_sim.normals_per_crossing": normals / crossings if crossings else 0.0,
        "renewal.solve_s": busy["renewal.solve"],
        "renewal.grid_points": counts["renewal.grid_points"],
        "renewal.convolution_s": busy["renewal.convolution"],
        "renewal.convolution_z": counts["renewal.convolution_z"],
        "renewal.error_density_s": busy["renewal.error_density"],
        "density.absorbed_s": busy["density.absorbed"],
        "density.points": counts["density.points"],
        "first_passage.survival_s": busy["first_passage.survival"],
        "first_passage.density_s": busy["first_passage.density"],
        "first_passage.quantile_s": busy["first_passage.quantile"],
        "first_passage.points": counts["first_passage.points"],
        "distributions.w1_s": busy["distributions.w1"],
        "distributions.w1_calls": calls["distributions.w1"],
        "experiments.write_csv_s": busy["experiments.write_csv"],
        "experiments.csv_rows": counts["experiments.csv_rows"],
        "experiments.csv_bytes": counts["experiments.csv_bytes"],
        "cli.main_s": busy["cli.main"],
    }
