import argparse
import contextlib
import csv
import dataclasses
import io
import itertools
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exitgrid
from exitgrid import (
    FirstPassageLaw,
    ModelParams,
    ScaledNormalLaw,
    ToleranceNotMetError,
    cli,
    solve_renewal_density,
)
from exitgrid import experiments, first_passage, path_sim, renewal
from exitgrid.cli import main
from exitgrid.density import absorbed_density
from exitgrid.experiments import (
    LIMIT_LADDER,
    ExperimentConfig,
    _convergence_ladder,
    read_csv,
    run_density_table,
    run_fig2,
    run_limit_check,
    run_tau_table,
    svg_from_csv,
    write_csv,
)
from exitgrid.params import evaluate


def body(path):
    """CSV data rows (everything after the commented metadata block)."""
    lines = path.read_text().splitlines()
    return "\n".join(ln for ln in lines if not ln.startswith("#"))


def meta_block(path):
    return [ln for ln in path.read_text().splitlines() if ln.startswith("#")]


SMALL = ["--paths", "250", "--steps", "2500", "--seed", "7"]

# each subcommand's options, with --svg where it takes it, and the files it writes, in order
EMITTED = {
    "density": ([], ["density_table.csv"]),
    "tau": ([], ["tau_table.csv", "tau_quantiles.csv"]),
    "simulate": (SMALL, ["simulate_samples.csv", "simulate_moments.csv", "simulate_renewals.csv"]),
    "fig1": ([*SMALL, "--svg"], ["fig1.csv", "fig1.svg"]),
    "fig2": ([*SMALL, "--svg"], ["fig2.csv", "fig2.svg"]),
    "fig3": ([*SMALL, "--svg"], ["fig3.csv", "fig3.svg"]),
    # the scale of test_limit_passes_at_moderate_scale, where the cross-check passes
    "limit": (["--paths", "4000", "--steps", "20000", "--seed", "7", "--workers", "2", "--svg"],
              ["limit_density.csv", "limit_report.csv", "limit_crosscheck.csv",
               "limit_density.svg"]),
}


def _fresh_python(code: str) -> str:
    """The last line ``code`` prints in a new interpreter that imports this checkout."""
    src = str(Path(exitgrid.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()[-1]


def test_import_and_runs_leave_scipy_unloaded(tmp_path):
    # scipy is a test dependency only: importing the package and running the
    # subcommands that use the normal CDF and quantile must not load it
    code = (
        "import sys, exitgrid, exitgrid.cli\n"
        "for argv in (['density'], ['tau'], ['fig2', '--paths', '40', '--steps', '400']):\n"
        f"    assert exitgrid.cli.main(argv + ['--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _fresh_python(code) == "[]"
    assert (tmp_path / "fig2.csv").is_file()


def test_import_and_runs_leave_statistics_unloaded(tmp_path):
    # statistics, which loads fractions and decimal, is not needed for the
    # normal quantile: tau and fig2 invert the CDF with its C function alone
    code = (
        "import sys, exitgrid, exitgrid.cli\n"
        "for argv in (['density'], ['tau'], ['fig2', '--paths', '40', '--steps', '400']):\n"
        f"    assert exitgrid.cli.main(argv + ['--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in ('statistics', 'decimal', 'fractions') if m in sys.modules))\n"
    )
    assert _fresh_python(code) == "[]"
    for name in ("density_table.csv", "tau_table.csv", "fig2.csv"):
        assert (tmp_path / name).is_file()


def test_import_leaves_numpy_random_unloaded():
    # the engine's generators, and the seed type they share, are built when a
    # batch runs, so importing the package does not pay for numpy.random
    code = (
        "import sys, exitgrid, exitgrid.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n"
    )
    assert _fresh_python(code) == "[]"


def test_src_never_mentions_scipy():
    # quadrature and scipy's special functions live in the tests, as oracles;
    # the package uses closed forms and its own normal CDF and quantile
    src = Path(exitgrid.__file__).resolve().parent
    files = sorted(src.rglob("*.py"))
    assert files
    assert [f.name for f in files if "scipy" in f.read_text().lower()] == []


def _help_entries(text: str) -> dict[str, str]:
    """``option -> help text`` for the value-taking options in a subcommand's ``--help``."""
    listing = text.split("options:", 1)[1].split("exit codes:", 1)[0]  # the epilog cut off
    body = " ".join(listing.split())
    return dict(re.findall(r"--([a-z-]+) [A-Z_]+ (.*?)(?= --|$)", body))


# the options each subcommand takes, besides --config: its parser and its
# config-file reader accept exactly these
MONTE_CARLO = {"seed", "sigma", "out", "paths", "steps", "workers", "paper-scale"}
EXPECTED_OPTIONS = {
    "density": {"seed", "sigma", "eta", "out"},
    "tau": {"seed", "sigma", "eta", "out"},
    "limit": MONTE_CARLO | {"eta", "t", "svg"},
    "fig1": MONTE_CARLO | {"etas", "t", "svg"},
    "fig2": MONTE_CARLO | {"etas", "t", "svg"},
    "fig3": MONTE_CARLO | {"etas", "t-eval", "svg"},
    "simulate": MONTE_CARLO | {"eta", "etas", "t", "t-eval", "sample-cap"},
}
FLAGS = {"svg", "paper-scale"}  # take no value
EXCLUSIVE = (("eta", "etas"), ("t", "t-eval"))  # a single value and its list
# every option any subcommand has had, the removed --t-end included
ALL_OPTIONS = set().union(*EXPECTED_OPTIONS.values()) | {"t-end"}
# a value each option parses, for the accepting side
GOOD_VALUES = {
    "seed": "3", "sigma": "1.5", "eta": "0.25", "etas": "0.25,0.5", "t": "0.25",
    "t-eval": "0.25", "sample-cap": "9", "paths": "2", "steps": "4", "workers": "1",
    "svg": "true", "paper-scale": "true",
}


def _capture_runs(monkeypatch, name: str) -> list:
    """The configurations ``name``'s runner is called with, in place of running it."""
    seen: list = []
    _, helptext, options = cli._SUBCOMMANDS[name]
    monkeypatch.setitem(cli._SUBCOMMANDS, name,
                        (lambda cfg: seen.append(cfg) or [], helptext, options))
    return seen


def test_option_count():
    # seven subcommands took all 15 settable options each (105); now 67
    assert sum(len(options) + 1 for options in EXPECTED_OPTIONS.values()) == 67
    assert {name: set(options) for name, (_, _, options) in cli._SUBCOMMANDS.items()} == (
        EXPECTED_OPTIONS
    )


def test_every_field_has_an_option():
    # every field except the subcommand itself is reachable from some subcommand
    fields = {cli._OPTIONS[option][0] for option in ALL_OPTIONS - {"t-end", "paper-scale"}}
    assert fields == {f.name for f in dataclasses.fields(ExperimentConfig)} - {"experiment"}


class TestDefaults:
    @pytest.mark.parametrize("name", sorted(EXPECTED_OPTIONS))
    def test_no_flags_give_the_dataclass_defaults(self, monkeypatch, capsys, name):
        seen = _capture_runs(monkeypatch, name)
        assert main([name]) == 0
        assert seen == [ExperimentConfig(experiment=name)]
        if "paper-scale" in EXPECTED_OPTIONS[name]:
            assert main([name, "--paper-scale"]) == 0
            assert seen[1] == ExperimentConfig(experiment=name, paths=50000, steps=200000)
        else:  # the tables draw no paths
            assert main([name, "--paper-scale"]) == 2
            assert len(seen) == 1
        capsys.readouterr()

        assert main([name, "--help"]) == 0
        text = capsys.readouterr().out
        usage = text.split("options:", 1)[0]
        assert set(re.findall(r"\[--([a-z-]+)", usage)) == EXPECTED_OPTIONS[name] | {"config"}
        entries = _help_entries(text)
        assert set(entries) == EXPECTED_OPTIONS[name] - FLAGS | {"config"}
        defaults = ExperimentConfig()
        for option in EXPECTED_OPTIONS[name] - FLAGS:
            value = getattr(defaults, cli._OPTIONS[option][0])
            if isinstance(value, tuple):
                continue  # lists default per subcommand
            help_text = entries[option]
            assert help_text.endswith(f"(default {value})") and help_text.count("(default") == 1

    @pytest.mark.parametrize("name", sorted(EXPECTED_OPTIONS))
    def test_config_file_takes_every_option(self, monkeypatch, tmp_path, name):
        # a file that sets every option of the subcommand, and the flags that
        # set the same values, give the same configuration; of an exclusive
        # pair (simulate's --eta/--etas and --t/--t-eval) each side is set once
        seen = _capture_runs(monkeypatch, name)
        values = {**GOOD_VALUES, "out": str(tmp_path / "o")}
        every = EXPECTED_OPTIONS[name]
        pairs = [pair for pair in EXCLUSIVE if set(pair) <= every]
        sides = [every - {pair[i] for pair in pairs} for i in (0, 1)]
        for options in {frozenset(side) for side in sides}:
            seen.clear()
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text(
                "".join(f"{o.replace('-', '_')} = {values[o]}\n" for o in sorted(options))
            )
            argv = [name]
            for o in sorted(options):
                argv += [f"--{o}"] if o in FLAGS else [f"--{o}", values[o]]
            assert main([name, "--config", str(cfg_file)]) == 0
            assert main(argv) == 0
            assert seen[0] == seen[1] != ExperimentConfig(experiment=name)
        assert set().union(*sides) == every


class TestOneSubparser:
    """A call that names its subcommand first builds that subparser alone, and parses the same."""

    @staticmethod
    def parse(parser, argv):
        """The namespace, or the exit code and both streams of a parse that exits."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return parser.parse_args(argv)
            except SystemExit as exc:
                return exc.code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("name", sorted(EXPECTED_OPTIONS))
    def test_parses_as_the_full_parser(self, name):
        one, full = cli._build_parser(name), cli._build_parser()
        assert one is cli._build_parser(name) and one is not full
        values = {**GOOD_VALUES, "out": "o"}
        given = [[f"--{o}"] if o in FLAGS else [f"--{o}", values[o]]
                 for o in sorted(EXPECTED_OPTIONS[name])]
        valid = [[name], [name, "--config", "run.cfg"], *([name, *g] for g in given),
                 [name, *itertools.chain(*given)]]
        for argv in valid:
            got = self.parse(one, argv)
            assert isinstance(got, argparse.Namespace) and got == self.parse(full, argv)
        # help, and usage errors after the subcommand: the same code, output and message
        for argv, code in (([name, "--help"], 0), ([name, "--bogus"], 2), ([name, "--seed"], 2),
                           ([name, "extra"], 2)):
            got = self.parse(one, argv)
            assert got[0] == code and got == self.parse(full, argv)

    @pytest.mark.parametrize("argv,built,code,stream", [
        (["fig2", "--help"], "fig2", 0, "out"),
        (["--help"], None, 0, "out"),
        ([], None, 2, "err"),
        (["bogus"], None, 2, "err"),
        (["-h", "fig2"], None, 0, "out"),
    ])
    def test_main_builds_the_parser_its_argv_names(self, monkeypatch, capsys, argv, built,
                                                     code, stream):
        build, calls = cli._build_parser, []
        monkeypatch.setattr(cli, "_build_parser",
                            lambda only=None: calls.append(only) or build(only))
        assert main(argv) == code
        assert calls == [built]
        text = getattr(capsys.readouterr(), stream)
        assert text == self.parse(build(), argv)[1 if stream == "out" else 2]
        if built is None and code == 0:  # the whole command's help lists every subcommand
            assert all(f"    {name} " in text for name in EXPECTED_OPTIONS)


@pytest.mark.parametrize(
    "name,option",
    [(name, o) for name, options in sorted(EXPECTED_OPTIONS.items())
     for o in sorted(ALL_OPTIONS - options)],
)
def test_option_outside_the_subcommand_exits_2(tmp_path, capsys, name, option):
    # a flag the subcommand does not read is argparse's usage error, and a
    # config-file key it does not read is a configuration error naming both
    small = ["--paths", "2", "--steps", "4"] if "paths" in EXPECTED_OPTIONS[name] else []
    out = ["--out", str(tmp_path / "out")]
    flag = [f"--{option}"] if option in FLAGS else [f"--{option}", "1"]
    assert main([name, *small, *flag, *out]) == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: --{option}" in err and "Traceback" not in err

    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{option} = 1\n")
    assert main([name, *small, "--config", str(cfg_file), *out]) == 2
    err = capsys.readouterr().err
    assert f"key {option!r} is not an option of {name}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("one,many", EXCLUSIVE)
    @pytest.mark.parametrize("where", ["flags", "file", "file and flag"])
    def test_value_and_list_together_exit_2(self, tmp_path, capsys, one, many, where):
        # simulate reads the list when it has one, so a single value beside
        # it would be dropped while the header still echoes it
        argv = ["simulate", *SMALL, "--out", str(tmp_path / "out")]
        flags = {"flags": (one, many), "file": (), "file and flag": (many,)}[where]
        for o in flags:
            argv += [f"--{o}", GOOD_VALUES[o]]
        keys = [o for o in (one, many) if o not in flags]
        if keys:
            (tmp_path / "run.cfg").write_text(
                "".join(f"{o.replace('-', '_')} = {GOOD_VALUES[o]}\n" for o in keys)
            )
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"--{one} and --{many} are exclusive" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cap", ["0", "1e3"])
    def test_zero_sample_cap_exits_2(self, tmp_path, capsys, cap):
        # integer options take integer literals only, so 1e3 is refused as well
        assert main(["simulate", *SMALL, "--sample-cap", cap, "--out", str(tmp_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv,key",
        [
            (["fig2", "--etas", ","], None),
            (["fig3", "--t-eval", ", ,"], None),
            (["simulate", "--etas="], None),
            (["simulate", "--t-eval", ""], None),
            (["fig1"], "etas = ,"),
            (["fig3"], "t_eval ="),
        ],
    )
    def test_empty_list_exits_2(self, tmp_path, capsys, argv, key):
        # an empty list is refused, as a flag or as a file value; it is not
        # read as the subcommand's default list
        if key is not None:
            (tmp_path / "run.cfg").write_text(key + "\n")
            argv = [*argv, "--config", str(tmp_path / "run.cfg")]
        assert main([*argv, *SMALL, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "bad value for" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--t", "inf"],
            ["--t", "nan"],
            ["--t", "0"],  # the grid ends where it starts
            ["--etas", "inf"],
            ["--etas", "nan"],
            ["--etas", "0.5,0.5"],
            ["--t-eval", "0.25,0.5,0.25"],
            ["--t-eval", "nan"],
            ["--t-eval", "0.5,nan"],
            ["--t-eval=-1e308,0.5"],  # t / dt would overflow
            ["--t", "5e-324"],  # the grid step underflows to 0
            ["--sigma", "1e306"],  # a path could pass the double range
            ["--sigma", "1e211", "--eta", "1e211", "--t", "1e211"],
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
            ["fig1", *SMALL, "--sigma", "0"],
            ["fig1", *SMALL, "--t", "0"],
            ["fig3", *SMALL, "--etas", "0.5,1e-309"],
            ["fig3", *SMALL, "--etas", "2e154"],
            ["limit", *SMALL, "--t", "2e-311"],
        ],
    )
    def test_unusable_model_params_exit_2(self, tmp_path, capsys, argv):
        # sigma or eta is infinite, or a square or eta^2/sigma^2 leaves double
        # range, or every error is 0 so the kernel estimate has no spread; the
        # fig3 reference line min(t/eta^2, 1/6) needs a finite positive eta^2
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["density", "--eta", "1e-160"], 2),
            (["tau", "--eta", "1e-150"], 0),
            (["tau", "--eta", "1e-154"], 0),
            (["tau", "--eta", "3e-155"], 2),
            (["tau", "--eta", "1e-160"], 2),
            (["density", "--sigma", "1e150", "--eta", "1e150"], 0),
        ],
    )
    def test_extreme_scales_run(self, tmp_path, capsys, argv, code):
        # the unit-band kernels see only v = sigma^2 t / eta^2 and x / eta, so
        # nothing overflows while sigma^2 / eta^2 is a double; past that (eta
        # below about 1.5e-154 at sigma = 1) ModelParams refuses the input
        assert main([*argv, "--out", str(tmp_path)]) == code
        assert "Traceback" not in capsys.readouterr().err
        written = list(tmp_path.iterdir())
        assert written if code == 0 else not written
        for path in written:
            assert np.isfinite(read_csv(path)[2]).all(), path.name

    @pytest.mark.parametrize("name,multiple", [("tau", "8"), ("density", "100")])
    def test_table_end_past_double_range_exits_2(self, tmp_path, capsys, name, multiple):
        # eta^2/sigma^2 = 1e308 is a double, but the table's last time, a
        # multiple of it, is not: refused before any array is built
        argv = [name, "--sigma", "1e-154", "--eta", "1", "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "time scale eta^2/sigma^2 = 1e+308" in err and f"end at {multiple} times" in err
        assert not list(tmp_path.iterdir())

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(["tau", "density"]),
        values=st.lists(
            st.one_of(st.text(), st.floats().map(repr), st.floats(1e-6, 1e6).map(repr)),
            min_size=2, max_size=2,
        ),
    )
    def test_arbitrary_model_text_fails_as_documented(self, name, values):
        # any text for sigma and eta gives 0, 2 or 3 and no traceback, and a
        # configuration error writes nothing
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([name, "--sigma", values[0], "--eta", values[1], "--out", str(out)])
            assert code in (0, 2, 3)
            assert "Traceback" not in err.getvalue()
            if code == 2:
                assert not out.exists() or not list(out.iterdir())

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(["simulate", "fig1", "fig2", "fig3", "limit"]),
        paths=st.integers(1, 8),
        steps=st.integers(1, 64),
        values=st.fixed_dictionaries(
            {},
            optional={
                option: st.one_of(st.text(), st.floats().map(repr), st.floats(1e-6, 1e6).map(repr),
                                  st.sampled_from(["0.5", "0.25", "1", "2"]))
                for option in ("sigma", "eta", "etas", "t", "t-eval")
            },
        ),
    )
    def test_arbitrary_simulation_text_fails_as_documented(self, name, paths, steps, values):
        # the simulating subcommands on a small grid, one worker: any text for
        # the model, the thresholds and the times that the subcommand takes
        # gives 0, 2 or 3 and no traceback, and a configuration error writes
        # nothing
        argv = [name, "--paths", str(paths), "--steps", str(steps), "--workers", "1"]
        for option, text in values.items():
            if option in EXPECTED_OPTIONS[name]:
                argv += [f"--{option}={text}"]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([*argv, "--out", str(out)])
            assert code in (0, 2, 3)
            assert "Traceback" not in err.getvalue()
            if code == 2:
                assert not out.exists() or not list(out.iterdir())

    def test_huge_equal_scales_give_the_unit_table(self, tmp_path):
        # sigma = eta = 1e150 has the unit band's time scale, so eta * p must
        # reproduce the sigma = eta = 1 table
        for out, scale in (("a", "1e150"), ("b", "1")):
            argv = ["density", "--sigma", scale, "--eta", scale, "--out", str(tmp_path / out)]
            assert main(argv) == 0
        _, _, huge = read_csv(tmp_path / "a" / "density_table.csv")
        _, _, unit = read_csv(tmp_path / "b" / "density_table.csv")
        np.testing.assert_array_equal(huge[:, 0], unit[:, 0])
        np.testing.assert_allclose(1e150 * huge[:, 2], unit[:, 2], rtol=1e-12, atol=2e-14)

    @pytest.mark.parametrize(
        "argv,what",
        [
            (["--paths", "1000000000000", "--steps", "10"], "paths x steps"),
            (["--paths", "1", "--steps", "100000000000"], "paths x steps"),
            (["--paths", "5000000", "--steps", "4", "--etas", "0.5,1,1.5"], "result cells"),
        ],
    )
    def test_resource_ceilings_exit_2_before_allocating(self, tmp_path, capsys, argv, what):
        # the work (paths x steps) and the result array (paths x times x
        # thresholds) are checked against the path_sim ceilings before any
        # allocation, so these return at once instead of failing or running on
        t0 = time.perf_counter()
        assert main(["simulate", *argv, "--out", str(tmp_path)]) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert what in err and "ceiling" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("name", ["simulate", "fig1", "fig2", "fig3", "limit"])
    def test_paper_scale_is_within_the_ceilings(self, monkeypatch, tmp_path, name):
        # validation passes and the batch reaches its first chunk of work
        class Reached(Exception):
            pass

        def stop(*args):
            raise Reached

        monkeypatch.setattr(path_sim, "_run_groups", stop)
        with pytest.raises(Reached):
            main([name, "--paper-scale", "--out", str(tmp_path)])

    def test_off_grid_time_exits_2(self, tmp_path, capsys):
        # the grid ends at the last time, 0.5, so the other one is off it
        code = main(
            ["fig3", "--paths", "50", "--steps", "1000", "--t-eval", "0.1234567,0.5",
             "--out", str(tmp_path)]
        )
        assert code == 2
        assert "t=0.1234567 is not on the simulation grid" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_time_near_a_grid_point_is_off_the_grid(self, tmp_path, capsys):
        # 1e-10 is 2e-7 of a step (dt = 5e-4) from index 0: off the grid, not read there
        code = main(["fig3", "--paths", "50", "--steps", "1000", "--t-eval", "1e-10,0.5",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "t=1e-10 is not on the simulation grid" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,message", [
        (["fig2", "--t", "0"], "the last evaluation time (--t / --t-eval) must be finite and > 0"),
        (["simulate", "--sigma", "1e306"],
         "sigma = 1e+306 with the last evaluation time 0.5 is too large"),
    ])
    def test_horizon_messages_name_the_last_evaluation_time(self, tmp_path, capsys, argv,
                                                            message):
        assert main([*argv, *SMALL, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert message in err and "t_end" not in err

    @pytest.mark.parametrize(
        "argv,t",
        [
            (["fig2", "--t", "0.7"], "0.7"),
            (["simulate", "--t-eval", "0.7"], "0.7"),
            (["simulate", "--t", "0.7"], "0.7"),
            (["fig3", "--t-eval", "0.35,0.7"], "0.7"),
            (["limit", "--t", "0.25"], "0.25"),
            (["simulate", "--t-eval", "1e308"], "1e308"),
        ],
    )
    def test_last_evaluation_time_is_the_horizon(self, monkeypatch, tmp_path, argv, t):
        # every simulating run's grid ends at its last evaluation time, so a
        # time past the former fixed horizon of 0.5 runs, and 1e308 / dt is 10
        seen = []
        simulate_batch = experiments.simulate_batch

        def recording(cfg, *args, **kwargs):
            seen.append(cfg)
            return simulate_batch(cfg, *args, **kwargs)

        monkeypatch.setattr(experiments, "simulate_batch", recording)
        code = main([*argv, "--paths", "4", "--steps", "10", "--out", str(tmp_path)])
        assert code == (3 if argv[0] == "limit" else 0)  # 4 paths fail the cross-check
        assert [(cfg.t_end, cfg.n_steps) for cfg in seen] == [(float(t), 10)]
        assert list(tmp_path.iterdir())

    def test_renewal_histogram_counts_to_the_last_time(self, tmp_path):
        # simulate's renewal histogram is the library batch's on [0, 0.25]
        argv = ["simulate", "--t-eval", "0.25", "--steps", "500", "--paths", "60",
                "--etas", "0.1,0.3", "--seed", "7", "--out", str(tmp_path)]
        assert main(argv) == 0
        _, _, hist = read_csv(tmp_path / "simulate_renewals.csv")
        cfg = path_sim.PathConfig(sigma=1.0, etas=(0.1, 0.3), t_eval=(0.25,), n_steps=500,
                                  n_paths=60, seed=7)
        batch = path_sim.simulate_batch(cfg)
        for j, eta in enumerate(cfg.etas):
            counts = np.bincount(batch.renewal_counts[:, j])
            rows = hist[hist[:, 0] == eta]
            np.testing.assert_array_equal(rows[:, 1], np.flatnonzero(counts))
            np.testing.assert_array_equal(rows[:, 2], counts[counts > 0] / 60)

    def test_one_path_has_zero_variance(self, tmp_path):
        # the sample variance of one path is 0, not nan, in both CSVs that report it
        argv = ["--paths", "1", "--steps", "1000", "--seed", "7", "--out", str(tmp_path)]
        assert main(["fig3", *argv]) == 0
        assert main(["simulate", *argv]) == 0
        for name in ("fig3.csv", "simulate_moments.csv"):
            _, columns, data = read_csv(tmp_path / name)
            assert (data[:, columns.index("variance")] == 0.0).all(), name


class TestCsvContract:
    def test_metadata_block(self, tmp_path):
        assert main(["density", "--out", str(tmp_path), "--eta", "1"]) == 0
        m = meta_block(tmp_path / "density_table.csv")
        joined = "\n".join(m)
        assert "exitgrid-version" in joined
        assert "seed" in joined
        assert "config" in joined
        assert "config-hash" in joined
        # the echo holds every field but the three that must not change a number
        (config,) = [ln.split(" = ", 1)[1] for ln in m if ln.startswith("# config = ")]
        runtime = ("out_dir", "emit_svg", "workers")
        assert [part.split("=", 1)[0] for part in config.split(";")] == [
            f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in runtime]

    @pytest.mark.parametrize("name", EMITTED)
    def test_printed_paths_are_the_files_written(self, tmp_path, capsys, name):
        extra, names = EMITTED[name]
        assert main([name, *extra, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines() == [str(tmp_path / n) for n in names]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)

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

    # one batch of every row, and batches of four rows: some have one type a
    # column, some change a column's type or the row length partway through
    @pytest.mark.parametrize("batch", [4, experiments._CSV_BATCH])
    def test_writer_matches_csv_module(self, tmp_path, monkeypatch, batch):
        # the rows the csv module writes, one value at a time through fmt
        def fmt(v):
            if isinstance(v, (float, np.floating)):
                return format(float(v), ".17g")
            if isinstance(v, (int, np.integer)):
                return str(int(v))
            return str(v)

        rows = [
            (0.1, 3, np.float64(-0.0), np.int64(-7)),
            (-0.0, 1e-300, float("nan"), np.float64(1.0 / 3.0)),
            (np.int64(2**62), float("inf"), 0, np.float64(float("nan"))),
            (np.float64(5e-324), -1.5, np.int64(0), 123456789012345678),
            # all-float rows take the cached per-signature format
            (-0.0, np.float64(0.0), float("inf"), np.float64(-np.inf)),
            (np.float64(-0.0), 0.0, np.float64(np.nan), 5e-324),
            (0.1, np.float64(-5e-324), float("-inf"), 1.0 / 3.0),
            (np.float64(1e308), -2.5e-310, np.float64(np.inf), float("nan")),
            # text, None, bools and other numpy widths take %s, %d or %.17g by type
            ("eta", None, True, np.bool_(True)),
            (np.float32(0.1), np.uint64(2**64 - 1), 10**30, False),
            (np.int8(-3), np.float32(-0.0), "x y", np.bool_(False)),
            (1, 2, 3, 4),
            # one type a column
            *[(0.1 * k, k, np.float64(-k), f"r{k}") for k in range(4)],
            # column b from int to float, then column d from str to int
            (1.5, 2, np.float64(3.0), "a"), (1.5, 2.0, np.float64(3.0), "a"),
            (-0.0, 2.0, np.float64(3.0), 7), (2.5, 3.0, np.float64(-0.0), 7),
            # floats in every column, but rows of two lengths
            (0.25, 0.5), (0.75,), (1.0, 1.5), (2.0, 3.0),
        ]
        columns = ("a", "b", "c", "d")
        monkeypatch.setattr(experiments, "_CSV_BATCH", batch)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([fmt(v) for v in row])
        path = write_csv(tmp_path / "rows.csv", ExperimentConfig(), columns, rows)
        body = [ln for ln in path.read_text().splitlines(keepends=True) if ln[0] != "#"]
        assert "".join(body) == buf.getvalue()

    def test_body_is_written_in_bounded_batches(self, tmp_path):
        # 20 000 rows make an 860 KB body, but the text held at once is that
        # of one batch of rows, whatever their number
        rows = [(0.1 * i, 1.0 / (i + 1), i) for i in range(20000)]
        tracemalloc.start()
        try:
            path = write_csv(tmp_path / "rows.csv", ExperimentConfig(), ("a", "b", "c"), rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = body(path)
        assert len(text) > 800_000 and peak < 512 * 1024
        assert text == "a,b,c\n" + "\n".join("%.17g,%.17g,%d" % row for row in rows)


    def test_runs_of_rows_write_what_single_rows_write(self, tmp_path):
        # rows come in runs whose values share their types, runs cross batch
        # edges, and one column mixes int, float, bool, numpy scalars and
        # -0.0 from run to run: a run's one format must give each row the
        # text the row's own format gives it
        rng = np.random.default_rng(5)
        kinds = (float, int, bool, np.float64, np.int64, np.bool_, np.float32)
        values = (-0.0, 0.0, 1.0, -3.0, 0.1, 2.0**60, 5e-324)
        rows = []
        while len(rows) < 3 * experiments._CSV_BATCH:
            types = [kinds[k] for k in rng.integers(0, len(kinds), 3)]
            for _ in range(rng.integers(1, 400)):
                picks = rng.integers(0, len(values), 3)
                rows.append(tuple(t(values[k]) for t, k in zip(types, picks)))
        path = write_csv(tmp_path / "rows.csv", ExperimentConfig(), ("a", "b", "c"), rows)
        want = "".join(experiments._row_format(tuple(map(type, row))) % tuple(row)
                       for row in rows)
        assert "-0," in want and ",0," in want
        assert path.read_text().split("a,b,c\n", 1)[1] == want


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
        # the fnorm column is the scaled-normal law's density, to all 17 digits
        t = ExperimentConfig().t
        for eta in (0.5, 4.0):
            rows = data[data[:, 0] == eta]
            assert np.array_equal(rows[:, 4], ScaledNormalLaw(1.0, t, eta).pdf(rows[:, 1]))

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

    def test_simulate_holds_sample_rows_as_arrays(self, monkeypatch, tmp_path):
        # 2500 paths x 4 thresholds x 5 times are 50 000 sample rows, the
        # default cap; as (eta, t, z) tuples they took 4.8 MB
        cfg = ExperimentConfig(experiment="simulate", paths=2500, steps=50, seed=3,
                               etas=(0.5, 1.0, 1.5, 2.0), t_eval=(0.1, 0.2, 0.3, 0.4, 0.5),
                               out_dir=str(tmp_path))
        batch = experiments.simulate_batch(experiments._batch_config(cfg, cfg.etas, cfg.t_eval))
        sizes = []
        write = experiments.write_csv

        def recording(path, cfg, columns, rows):
            sizes.append(len(rows))
            return write(path, cfg, columns, rows)

        monkeypatch.setattr(experiments, "simulate_batch", lambda *args: batch)
        monkeypatch.setattr(experiments, "write_csv", recording)
        tracemalloc.start()
        try:
            experiments.run_simulate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = [(e, t, z) for e in cfg.etas for t in cfg.t_eval
                for z in batch.sample(e, t).values.tolist()]
        assert sizes[0] == len(want) == 50000 and peak < 2**20
        assert body(tmp_path / "simulate_samples.csv") == "\n".join(
            ["eta,t,z", *("%.17g,%.17g,%.17g" % row for row in want)])

    @pytest.mark.parametrize("sigma,gap", [("0.1", "5.434e-01"), ("0.13", "3.527e-01")])
    def test_slow_ladder_exits_3(self, tmp_path, capsys, sigma, gap):
        # below sigma ~0.138 the T ladder ends before v = sigma^2 T passes 1, so
        # the final gap stays large; the ladder fails before any simulation
        assert main(["limit", "--sigma", sigma, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"final ladder gap {gap}" in err
        assert not list(tmp_path.iterdir())

    def test_monte_carlo_options_are_checked_before_the_ladder(self, tmp_path, capsys):
        # the ladder alone would fail at sigma 0.1 (exit 3); no path is a
        # configuration error, found before the ladder runs
        assert main(["limit", "--sigma", "0.1", "--paths", "0", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "n_steps and n_paths must be >= 1" in err and "ladder" not in err
        assert not list(tmp_path.iterdir())

    def test_workers_are_checked_before_the_ladder(self, tmp_path, capsys):
        # workers is a run option, not a batch input: the configuration refuses
        # it before the ladder, not simulate_batch after it
        assert main(["limit", "--sigma", "0.1", "--workers", "0", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "workers must be >= 1" in err and "ladder" not in err
        assert not list(tmp_path.iterdir())

    def test_limit_evaluates_error_law_once_per_rung(self, monkeypatch, tmp_path):
        # one f_Z series evaluation per ladder rung, plus one at the operating
        # point, and as many atom evaluations: the atom column reads the z grid
        calls = []
        atoms = []

        def counting(images, spectral, *args):
            if images is renewal._error_density_images:
                calls.append(args)
            return evaluate(images, spectral, *args)

        def counting_atom(*args, **kwargs):
            atoms.append(args)
            return absorbed_density(*args, **kwargs)

        monkeypatch.setattr(renewal, "evaluate", counting)
        monkeypatch.setattr(renewal, "absorbed_density", counting_atom)
        monkeypatch.setattr(experiments, "absorbed_density", counting_atom)
        cfg = ExperimentConfig(experiment="limit", paths=60, steps=1500, seed=7,
                               out_dir=str(tmp_path))
        with pytest.raises(ToleranceNotMetError, match="Monte Carlo"):
            run_limit_check(cfg)
        assert len(calls) == len(LIMIT_LADDER) + 1
        assert len(atoms) == len(LIMIT_LADDER) + 1

    def test_limit_failure_exits_3(self, tmp_path):
        # far too few paths for the Monte Carlo cross-check tolerance; every
        # file is written before the gate fails
        code = main(
            ["limit", "--paths", "60", "--steps", "1500", "--seed", "7", "--svg",
             "--out", str(tmp_path)]
        )
        assert code == 3
        for name in ("limit_density.csv", "limit_report.csv", "limit_crosscheck.csv",
                     "limit_density.svg"):
            assert (tmp_path / name).is_file(), name

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
        # the atom column, read off the z grid, is the scalar atom bit for bit
        p1 = ModelParams(sigma, 1.0)
        assert [row[3] for row in rows] == [absorbed_density(p1, T, 0.0) for T in LIMIT_LADDER]

    @pytest.mark.parametrize("sigma,eta", [(1.0, 0.5), (1.7, 2.0), (1.0, 1.0), (0.3, 2.0)])
    def test_density_table_matches_row_loop(self, tmp_path, sigma, eta):
        # the one-call table against one absorbed_density call per time row; a
        # call sums as many terms as its extreme v need, so the two may differ
        # by rounding, at most one double spacing of the unit-band density
        params = ModelParams(sigma, eta)
        cfg = ExperimentConfig(experiment="density", sigma=sigma, eta=eta, out_dir=str(tmp_path))
        _, cols, data = read_csv(run_density_table(cfg)[0])
        ts = np.geomspace(1e-3 * params.timescale, 1e2 * params.timescale, 40)
        xs = np.linspace(-eta, eta, 41)
        loop = np.array([absorbed_density(params, t=np.full(xs.shape, t), x=xs) for t in ts])
        assert cols == ["t", "x", "p"]
        np.testing.assert_array_equal(data[:, 0], np.repeat(ts, xs.size))
        np.testing.assert_array_equal(data[:, 1], np.tile(xs, ts.size))
        assert np.max(np.abs(data[:, 2] - loop.ravel())) * eta <= np.finfo(float).eps

    @pytest.mark.parametrize("sigma,eta", [(1.0, 0.5), (1.7, 2.0), (0.3, 0.02)])
    def test_tau_table_evaluates_survival_a_few_times(self, monkeypatch, tmp_path, sigma, eta):
        # one survival call for the table, one for the quantile bracket and one
        # per Newton round, three here (a worse seed takes six): a count, not a
        # timing, so it is exact; the quantile evaluates the unit-band kernel
        # directly, so the kernel is what is counted
        calls = []
        survival = first_passage._unit_survival

        def counting(v):
            calls.append(np.size(v))
            return survival(v)

        monkeypatch.setattr(first_passage, "_unit_survival", counting)
        cfg = ExperimentConfig(experiment="tau", sigma=sigma, eta=eta, out_dir=str(tmp_path))
        run_tau_table(cfg)
        assert len(calls) <= 2 + 4

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
