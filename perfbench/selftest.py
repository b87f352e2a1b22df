"""Self-tests of the benchmark's own logic.  Run: python3 perfbench/selftest.py"""

import json
import sys
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _span(i, parent, name, start, end, **counts):
    s = {"id": i, "parent": parent, "name": name, "start": start, "end": end}
    if counts:
        s["counts"] = counts
    return s


class OracleTest(unittest.TestCase):
    def test_oracle_is_a_density_with_triangular_limit(self):
        z = np.linspace(-1.0, 1.0, 2001)
        for T in (0.05, 2.0, 50.0):
            f = oracle.error_density(1.7, T, z)
            self.assertAlmostEqual(float(np.sum((f[1:] + f[:-1]) / 2) * (z[1] - z[0])), 1.0, places=5)
        gap = np.max(np.abs(oracle.error_density(1.0, 50.0, z) - (1.0 - np.abs(z))))
        self.assertLess(gap, 1e-3)

    def test_analytic_check_flags_a_perturbed_density(self):
        z = np.linspace(-1.0, 1.0, 1001)
        tri = np.maximum(1.0 - np.abs(z), 0.0)

        def ed(f):
            return SimpleNamespace(grid=SimpleNamespace(f=f))

        ladder = []
        for T in workloads.LADDER:
            f = oracle.error_density(1.0, T, z)
            if T == 5.0:
                f = f + 1e-5 * np.exp(-((z - 0.3) / 0.05) ** 2)
            ladder.append((T, f, ed(f), 0.0))
        sigma, eta, t = workloads.OPERATING_POINT
        state = {"z": z, "ladder": ladder,
                 "operating": ed(oracle.error_density(sigma, t / eta**2, z))}
        eg = SimpleNamespace(distributions=SimpleNamespace(triangular_pdf=lambda x: tri))
        ops = workloads.Ops()
        with tempfile.TemporaryDirectory() as tmp:
            out = workloads.analytic_check(eg, state, Path(tmp), ops)
        oracle_failures = [f for f in ops.failures if "oracle" in f]
        self.assertEqual(len(oracle_failures), 1)
        self.assertIn("T=5.0", oracle_failures[0])
        self.assertGreater(out["analytic_max_err"], oracle.ORACLE_TOL)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        s = [
            _span(0, None, "cli.main", 0.0, 10.0),
            _span(1, 0, "path_sim.scan", 1.0, 3.0),
            _span(2, 0, "path_sim.scan", 2.0, 4.0),  # overlaps span 1
            _span(3, 0, "path_sim.scan", 9.0, 12.0),  # runs past its parent
            _span(4, 1, "path_sim.generate", 1.5, 2.0),
        ]
        st = spans.self_times(s)
        self.assertAlmostEqual(st[0], 10.0 - 3.0 - 1.0)
        self.assertAlmostEqual(st[1], 1.5)
        self.assertAlmostEqual(st[2], 2.0)

    def test_layer_metrics_of_a_batch(self):
        s = [_span(0, None, "path_sim.scan", 0.0, 5.0, crossings=10, pairs=8, zero_pairs=6)]
        s += [_span(i, 0, "path_sim.generate", i, i + 0.5, normals=100) for i in range(1, 5)]
        m = spans.layer_metrics(s)
        self.assertAlmostEqual(m["path_sim.scan_s"], 3.0)
        self.assertAlmostEqual(m["path_sim.generate_s"], 2.0)
        self.assertEqual(m["path_sim.generate_calls"], 4)
        self.assertEqual(m["path_sim.normals"], 400)
        self.assertAlmostEqual(m["path_sim.scan_skip_ratio"], 0.75)
        self.assertAlmostEqual(m["path_sim.normals_per_crossing"], 40.0)


class TracerTest(unittest.TestCase):
    def test_tracer_wraps_every_binding_and_restores(self):
        sys.path.insert(0, str(HERE.parent / "src"))
        import exitgrid.cli

        original = exitgrid.density.absorbed_density
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(exitgrid.renewal.absorbed_density, original)
            exitgrid.renewal.absorbed_density(exitgrid.ModelParams(1.0, 1.0), t=[0.5, 1.0], x=0.0)
        finally:
            tracer.uninstall()
        self.assertIs(exitgrid.renewal.absorbed_density, original)
        self.assertIs(exitgrid.absorbed_density, original)
        self.assertEqual([(x["name"], x["counts"]) for x in tracer.spans],
                         [("density.absorbed", {"points": 2})])


class ResultShapeTest(unittest.TestCase):
    def test_end_to_end_line(self):
        names = [m["name"] for m in SPEC["end_to_end"]]
        line = run.result_line(SPEC, False, {n: 1.5 for n in names} | {"extra": 2.0}, 7, 0)
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(line["metrics"]), names)
        self.assertTrue(line["correct"])
        for v in line["metrics"].values():
            self.assertEqual(set(v), {"value", "unit"})
        self.assertEqual(json.loads(json.dumps(line)), line)

    def test_per_layer_line_matches_what_the_trace_measures(self):
        measured = spans.layer_metrics([]) | {"proc.cpu_s": 1.0, "trace.overhead_s": 0.1}
        self.assertEqual(set(measured), {m["name"] for m in SPEC["per_layer"]})
        line = run.result_line(SPEC, True, measured, 3, 1)
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 1)

    def test_missing_metric_is_refused(self):
        with self.assertRaises(KeyError):
            run.result_line(SPEC, False, {}, 1, 0)

    def test_summary_percentile_has_ten_samples_beyond(self):
        self.assertEqual(run.summary([3.0, 1.0, 2.0]), {"median": 2.0, "n": 3})
        s = run.summary([float(i) for i in range(1, 21)])
        self.assertEqual(s["p50"], 10.0)
        self.assertEqual(s["n"], 20)


if __name__ == "__main__":
    unittest.main()
