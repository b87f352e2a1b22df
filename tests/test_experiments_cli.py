import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import exitgrid
from exitgrid import FirstPassageLaw, ModelParams, solve_renewal_density
from exitgrid.cli import main
from exitgrid.experiments import (
    LIMIT_LADDER,
    ExperimentConfig,
    _convergence_ladder,
    read_csv,
    run_fig2,
    svg_from_csv,
)


def body(path):
    """CSV data rows (everything after the commented metadata block)."""
    lines = path.read_text().splitlines()
    return "\n".join(ln for ln in lines if not ln.startswith("#"))


def meta_block(path):
    return [ln for ln in path.read_text().splitlines() if ln.startswith("#")]


SMALL = ["--paths", "250", "--steps", "2500", "--seed", "7"]


def test_import_leaves_scipy_integrate_unloaded():
    src = str(Path(exitgrid.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, exitgrid, exitgrid.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


class TestConfigHandling:
    def test_unknown_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mystery = 12\n")
        assert main(["fig1", "--config", str(cfg)]) == 2

    def test_malformed_line_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("paths 250\n")
        assert main(["fig1", "--config", str(cfg)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["fig1", "--config", str(tmp_path / "none.cfg")]) == 2

    def test_file_values_and_cli_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "paths = 200\n"
            "steps = 2000\n"
            "etas = 0.5,1.0\n"
            f"out = {tmp_path / 'a'}\n"
        )
        assert main(["simulate", "--config", str(cfg), "--seed", "5"]) == 0
        meta, _, _ = read_csv(tmp_path / "a" / "simulate_moments.csv")
        assert "paths=200" in meta["config"]
        assert meta["seed"] == "5"

    def test_zero_sample_cap_exits_2(self, tmp_path):
        assert main(["simulate", *SMALL, "--sample-cap", "0", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "extra",
        [
            ["--t-end", "inf"],
            ["--t-end", "nan"],
            ["--etas", "inf"],
            ["--etas", "nan"],
            ["--etas", "0.5,0.5"],
            ["--t-eval", "0.25,0.5,0.25"],
            ["--t-eval", "nan"],
        ],
    )
    def test_unservable_simulation_exits_2(self, tmp_path, capsys, extra):
        assert main(["simulate", *SMALL, *extra, "--out", str(tmp_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["density", "--sigma", "inf"],
            ["tau", "--eta", "inf"],
            ["tau", "--eta", "1e-200"],
            ["tau", "--sigma", "1e-300"],
            ["density", "--sigma", "1e300"],
            ["density", "--eta", "1e300"],
        ],
    )
    def test_unusable_model_params_exit_2(self, tmp_path, capsys, argv):
        # sigma or eta is infinite, or a square or eta^2/sigma^2 leaves double range
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_off_grid_time_exits_2(self, tmp_path):
        code = main(
            ["fig3", "--paths", "50", "--steps", "1000", "--t-eval", "0.1234567",
             "--out", str(tmp_path)]
        )
        assert code == 2


class TestCsvContract:
    def test_metadata_block(self, tmp_path):
        assert main(["density", "--out", str(tmp_path), "--eta", "1"]) == 0
        m = meta_block(tmp_path / "density_table.csv")
        joined = "\n".join(m)
        assert "exitgrid-version" in joined
        assert "seed" in joined
        assert "config" in joined
        assert "content-hash" in joined

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["fig1", *SMALL, "--etas", "0.5,2.0", "--out", str(out)]) == 0
        assert (a / "fig1.csv").read_bytes() == (b / "fig1.csv").read_bytes()

    def test_bodies_invariant_to_workers(self, tmp_path):
        outs = []
        for w in (1, 2):
            out = tmp_path / f"w{w}"
            code = main(
                ["simulate", *SMALL, "--etas", "0.5,1.0", "--workers", str(w),
                 "--out", str(out)]
            )
            assert code == 0
            outs.append(out)
        for name in ("simulate_samples.csv", "simulate_moments.csv", "simulate_renewals.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_float_formatting_roundtrips(self, tmp_path):
        assert main(["tau", "--out", str(tmp_path), "--eta", "1"]) == 0
        _, cols, data = read_csv(tmp_path / "tau_table.csv")
        assert cols == ["t", "survival", "density"]
        # 17 significant digits reproduce doubles exactly
        assert data[5, 1] == float(format(data[5, 1], ".17g"))


class TestSvg:
    def test_svg_is_pure_function_of_csv(self, tmp_path):
        assert main(["fig2", *SMALL, "--etas", "0.5,1.0,2.0", "--out", str(tmp_path), "--svg"]) == 0
        csv_path = tmp_path / "fig2.csv"
        svg_path = tmp_path / "fig2.svg"
        first = svg_path.read_bytes()
        regenerated = svg_from_csv(csv_path, tmp_path / "again.svg")
        assert regenerated.read_bytes() == first
        assert first.startswith(b"<svg")

    def test_fig3_svg_groups_by_threshold(self, tmp_path):
        code = main(
            ["fig3", *SMALL, "--etas", "0.5,1.0", "--t-eval", "0.1,0.25,0.5",
             "--out", str(tmp_path), "--svg"]
        )
        assert code == 0
        svg = (tmp_path / "fig3.svg").read_text()
        # one variance series per threshold, plotted against t, plus the
        # fixed printed reference line
        assert "variance eta=0.5" in svg
        assert "variance eta=1" in svg
        assert "min(t/0.25, 1/6)" in svg
        assert ">t</text>" in svg

    def test_fig1_svg_series(self, tmp_path):
        code = main(["fig1", *SMALL, "--etas", "0.5", "--out", str(tmp_path), "--svg"])
        assert code == 0
        svg = (tmp_path / "fig1.svg").read_text()
        assert "kde eta=0.5" in svg
        assert "triangular" in svg
        assert "fnorm eta=0.5" in svg


class TestRunners:
    def test_fig1_columns(self, tmp_path):
        assert main(["fig1", *SMALL, "--etas", "4.0,0.5", "--out", str(tmp_path)]) == 0
        _, cols, data = read_csv(tmp_path / "fig1.csv")
        assert cols == ["eta", "z", "kde", "triangular", "fnorm"]
        assert set(np.unique(data[:, 0])) == {0.5, 4.0}

    def test_fig2_uses_one_batch(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="fig2", etas=(0.5, 1.0), paths=200, steps=2000, seed=3,
            out_dir=str(tmp_path),
        )
        files = run_fig2(cfg)
        _, cols, data = read_csv(files[0])
        assert cols == ["eta", "d_w_triangular", "d_w_fnorm"]
        assert data.shape == (2, 3)
        assert np.all(data[:, 1:] >= 0.0)

    def test_simulate_outputs(self, tmp_path):
        assert main(["simulate", *SMALL, "--etas", "0.5", "--t-eval", "0.25,0.5",
                     "--out", str(tmp_path)]) == 0
        _, cols, data = read_csv(tmp_path / "simulate_moments.csv")
        assert cols == ["eta", "t", "n", "mean", "variance", "min", "max"]
        assert data.shape[0] == 2
        _, cols, hist = read_csv(tmp_path / "simulate_renewals.csv")
        assert cols == ["eta", "count", "frequency"]
        for e in np.unique(hist[:, 0]):
            assert hist[hist[:, 0] == e, 2].sum() == pytest.approx(1.0)

    def test_limit_failure_exits_3(self, tmp_path):
        # far too few paths for the Monte Carlo cross-check tolerance
        code = main(
            ["limit", "--paths", "60", "--steps", "1500", "--seed", "7",
             "--out", str(tmp_path)]
        )
        assert code == 3

    def test_fig1_kde_distances_at_desk_scale(self, desk_batch):
        # the kernel estimates themselves, not just the raw samples, must sit
        # next to their reference laws at the two ends of the threshold range
        import numpy as np

        from exitgrid import GridLaw, ScaledNormalLaw, TriangularLaw, kde, wasserstein1

        z = np.linspace(-1.15, 1.15, 461)
        near_tri = GridLaw(kde(desk_batch.sample(0.5, 0.5), z).grid)
        assert wasserstein1(near_tri, TriangularLaw()) < 0.02
        near_norm = GridLaw(kde(desk_batch.sample(4.0, 0.5), z).grid)
        assert wasserstein1(near_norm, ScaledNormalLaw(1.0, 0.5, 4.0)) < 0.02

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.7, 2.0, 3.0])
    def test_convergence_ladder_gate(self, sigma):
        # for sigma >= 1.8 the last gaps sit at the ~1e-14 series truncation
        # floor, where a strict decrease would compare rounding noise
        law = FirstPassageLaw(ModelParams(sigma, 1.0))
        rg = solve_renewal_density(law, horizon=max(LIMIT_LADDER) * 1.05)
        rows = _convergence_ladder(sigma, rg, np.linspace(-1.0, 1.0, 1001))
        assert [row[0] for row in rows] == list(LIMIT_LADDER)

    def test_limit_passes_at_moderate_scale(self, tmp_path):
        code = main(
            ["limit", "--paths", "4000", "--steps", "20000", "--seed", "7",
             "--workers", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        _, cols, data = read_csv(tmp_path / "limit_report.csv")
        gaps = data[:, cols.index("sup_gap_convolution")]
        assert np.all(np.diff(gaps) < 0.0)
        _, cols, xc = read_csv(tmp_path / "limit_crosscheck.csv")
        assert xc[0, cols.index("d_w_analytic_mc")] < 0.01
