import contextlib
import io
import json
import os
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import levyfit.experiment as experiment
import levyfit.optimizer as optimizer
from levyfit.cli import main
from levyfit.config import (RunConfig, calibration_setup, config_from_dict,
                            config_to_dict, load_config)
from levyfit.errors import ConfigError
from levyfit.experiment import acquire_samples, build_grid, run_experiment
from levyfit.forward import solve_terminal
from levyfit.likelihood import aic_score
from levyfit.optimizer import CalibrationSetup, aic_sweep
from levyfit.samples import ingest_samples
from levyfit.simulate import SimulationSpec
from levyfit.torus import TorusGrid, tiling_centers

README = Path(__file__).resolve().parent.parent / "README.md"

TINY = """
# tiny deterministic experiment
n_space = 64
n_time = 30
sample_count = 1500
seed = 7
sim_kind = compound_poisson
sim_rates = 1.0, 0.5
n_theta_list = 2, 3
max_iters = 60
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return path


# settings each finite and in range whose derived scale overflows: the
# gamma scale 1/rate, or the expected jump total of all paths,
# delta * sum(rates) * t_final * sample_count
OVERFLOWING = [
    ["sim_kind=bigamma", "sim_gamma_rate=5e-324"],
    ["sim_kind=bigamma", "sim_gamma_rate=1e-308"],
    ["sim_rates=1e308,1e308"], ["t_final=1e300"], ["sim_rates=1e17,1e17"]]


def count_builds(monkeypatch, cls, label):
    """Record label(obj) for every instance of cls built, wherever."""
    built = []
    real = cls.__post_init__

    def counted(obj):
        built.append(label(obj))
        real(obj)
    monkeypatch.setattr(cls, "__post_init__", counted)
    return built


def config_record(path):
    """A sample file's '#' header lines, and its `# config = ` record
    parsed, of which it must hold exactly one."""
    heads = [line for line in Path(path).read_text().splitlines()
             if line.startswith("#")]
    records = [h for h in heads if h.startswith("# config = ")]
    assert len(records) == 1
    return heads, json.loads(records[0][len("# config = "):])


def count_setup_builds(monkeypatch):
    """Record the n_theta of every CalibrationSetup built, wherever: by
    its constructor, or from another setup by `with_basis`."""
    built = count_builds(monkeypatch, CalibrationSetup,
                         lambda setup: setup.basis.n_theta)
    real = CalibrationSetup.with_basis

    def derived(setup, basis):
        built.append(basis.n_theta)
        return real(setup, basis)
    monkeypatch.setattr(CalibrationSetup, "with_basis", derived)
    return built


class TestConfig:
    def test_defaults_follow_reference_experiment(self):
        cfg = RunConfig()
        assert cfg.n_space == 420 and cfg.n_time == 250
        assert cfg.sigma2 == pytest.approx(0.02)
        assert cfg.init_concentration == 400.0
        assert optimizer.ALPHA0 == 0.1
        assert optimizer.ARMIJO_DELTA == 0.1
        assert optimizer.STEP_INIT == 0.5 and optimizer.STEP_SHRINK == 0.3
        assert optimizer.MAX_SHRINKS == 30
        assert cfg.objective_floor == 1e-12
        assert cfg.hist_bins == 40

    def test_file_and_overrides(self, tiny_cfg):
        cfg = load_config(tiny_cfg, overrides=["seed=9", "n_space = 32",
                                               "samples_csv=run#1.csv"])
        assert cfg.seed == 9
        assert cfg.n_space == 32
        # '#' starts a comment in a file only
        assert cfg.samples_csv == "run#1.csv"
        assert cfg.sim_rates == (1.0, 0.5)
        assert cfg.n_theta_list == (2, 3)

    def test_unknown_key_rejected(self, tiny_cfg):
        with pytest.raises(ConfigError, match="unknown"):
            load_config(tiny_cfg, overrides=["n_spacee=3"])

    def test_bad_value_rejected(self, tiny_cfg):
        with pytest.raises(ConfigError, match="bad value"):
            load_config(tiny_cfg, overrides=["n_space=abc"])

    def test_readme_table_lists_every_key(self):
        text = README.read_text(encoding="utf-8")
        section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        listed = [key for line in section.splitlines()
                  if line.startswith("| `")
                  for key in re.findall(r"`(\w+)`", line.split("|")[1])]
        assert sorted(listed) == sorted(f.name for f in fields(RunConfig))

    def test_setups_share_their_rate_free_arrays(self):
        """The sweep's setups differ only in their basis: each shares the
        first one's arrays that the rates leave unchanged, by identity, and
        equals, field for field and array for array, the setup that
        `calibration_setup` builds alone for its size."""
        cfg = RunConfig(n_space=64, n_time=40)
        setups = cfg.calibration_setups()
        assert [s.basis.n_theta for s in setups] == [3, 4, 5, 6, 7]
        for setup in setups:
            alone = calibration_setup(cfg, setup.basis.n_theta)
            for field in fields(setup):
                mine, built = (getattr(s, field.name) for s in (setup, alone))
                if field.name == "basis":
                    assert mine.grid == built.grid
                    for name in ("centers", "samples", "jump_symbols"):
                        assert np.array_equal(getattr(mine, name),
                                              getattr(built, name))
                elif isinstance(mine, np.ndarray):
                    assert mine is getattr(setups[0], field.name)
                    # array_equal: long double's padding bytes are not data
                    assert mine.dtype == built.dtype
                    assert np.array_equal(mine, built)
                else:
                    assert mine == built
        assert setups[4].long_symbols is setups[0].long_symbols
        assert setups[4].two_q_powers is setups[0].two_q_powers
        assert setups[0].two_q_powers.shape == (5, 33)

    def test_full_centers_tile_the_torus(self, tiny_cfg, tmp_path):
        cfg = load_config(tiny_cfg, ["centers_mode=full"])
        setups = cfg.calibration_setups()
        assert [s.basis.n_theta for s in setups] == [2, 3]
        for setup in setups:
            assert np.array_equal(
                setup.basis.centers,
                tiling_centers(setup.basis.n_theta, setup.grid))
        assert main(["run", str(tiny_cfg), "--set", "centers_mode=full",
                     "--out", str(tmp_path / "o")]) == 0

    def test_requires_data_source(self):
        with pytest.raises(ConfigError, match="data source"):
            run_experiment(RunConfig(sim_kind="", samples_csv="",
                                     n_space=32, n_time=10))


NUMERIC_KEYS = sorted(f.name for f in fields(RunConfig)
                      if f.type in ("int", "float", "tuple"))
# finite values, 0, negatives and the non-finite spellings, as override text
NUMBERS = st.one_of(
    st.integers(-5, 200).map(str),
    st.floats(-1e3, 1e3).map(repr),
    st.sampled_from(["0", "-0.0", "-1", "nan", "inf", "-inf"]))
OVERRIDES = st.lists(st.tuples(st.sampled_from(NUMERIC_KEYS), NUMBERS),
                     min_size=1, max_size=3)
BASES = st.sampled_from(["compound_poisson", "bigamma"])


def _load(kind, overrides):
    lines = TINY.strip().splitlines()[1:] + [f"sim_kind={kind}"]
    return load_config(None, lines + [f"{k}={v}" for k, v in overrides])


class TestConfigProperties:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(kind=BASES, overrides=OVERRIDES)
    def test_bad_numbers_are_config_errors(self, kind, overrides):
        # either the fit problems are built or ConfigError says why; a
        # ValueError (or any other exception) escaping means a rule has no
        # owner
        try:
            _load(kind, overrides).calibration_setups()
        except ConfigError:
            pass

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(kind=BASES, overrides=OVERRIDES)
    def test_simulate_exits_0_or_1(self, kind, overrides):
        # the simulator reads fewer keys than a fit, and checks them alone:
        # a value it cannot draw from must still be a config error
        lines = [f"sim_kind={kind}", *(f"{k}={v}" for k, v in overrides)]
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["simulate", "--out", os.path.join(tmp, "s.csv")]
            for line in TINY.strip().splitlines()[1:] + lines:
                argv += ["--set", line]
            assert main(argv) in (0, 1)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(kind=BASES, overrides=OVERRIDES)
    def test_dict_round_trip(self, kind, overrides):
        try:
            cfg = _load(kind, overrides)
            cfg.calibration_setups()
        except ConfigError:
            return
        assert config_from_dict(config_to_dict(cfg)) == cfg


ARTIFACTS = ["aic.csv", "density.csv", "histogram.csv", "report.json"]
# finite values at the edges of float64 besides the ordinary ones
RUN_VALUES = st.one_of(
    st.integers(-5, 40).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e308", "-1e308", "1.7976931348623157e+308", "5e-324",
                     "-5e-324", "0", "nan", "inf"]))


class TestRunProperties:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(overrides=st.lists(st.tuples(st.sampled_from(NUMERIC_KEYS),
                                        RUN_VALUES), min_size=1, max_size=3))
    @example(overrides=[("sigma2", "50.0")])
    @example(overrides=[("init_concentration", "1e308")])
    def test_exit_code_contract(self, overrides):
        # exit 0 writes the four artifacts and says nothing on stderr; exit
        # 1 or 2 says one line why and leaves no output directory
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "o")
            argv = ["run", "--out", out]
            for line in (TINY.strip().splitlines()[1:]
                         + [f"{k}={v}" for k, v in overrides]):
                argv += ["--set", line]
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                code = main(argv)
            err = stderr.getvalue().splitlines()
            assert code in (0, 1, 2)
            if code == 0:
                assert err == []
            else:
                prefix = "error: " if code == 1 else "numerical failure: "
                assert len(err) == 1 and err[0].startswith(prefix)
            assert os.path.isdir(out) == (code == 0)
            made = [name for name in ARTIFACTS
                    if os.path.exists(os.path.join(out, name))]
            assert made == (ARTIFACTS if code == 0 else [])
            if code == 0:
                # criterion 9: a second run of the same config writes the
                # same report.json, byte for byte
                again = os.path.join(tmp, "again")
                argv[argv.index(out)] = again
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0
                assert (Path(again, "report.json").read_bytes()
                        == Path(out, "report.json").read_bytes())


# a raw return file is ordinary returns with up to two stray lines among
# them: blank and comment lines, any finite float (some overflow the torus
# stretch), the non-finite spellings and bytes that are not UTF-8
RETURNS = st.lists(st.floats(-0.1, 0.1).map(repr).map(str.encode),
                   max_size=10)
STRAY_LINES = st.lists(st.one_of(
    st.sampled_from([b"", b"  ", b"# note", b"1e308", b"-1e308", b"nan",
                     b"inf", b"-inf", b"\xff", b"0.01\xfe"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr).map(str.encode)),
    max_size=2)
FLOAT_ARGS = st.none() | st.floats(-0.2, 1.2).map(repr) | st.sampled_from(
    ["0", "-1e308", "nan", "-inf"])


class TestPreprocessProperties:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(returns=RETURNS, stray=STRAY_LINES, at=st.integers(0, 10),
           band_lo=FLOAT_ARGS, fraction=FLOAT_ARGS,
           outside=st.none() | st.sampled_from(["wrap", "discard", "clip"]))
    def test_exit_code_contract(self, returns, stray, at, band_lo, fraction,
                                outside):
        # exit 0 writes the torus CSV and says nothing on stderr; exit 1
        # says one line why and writes no CSV
        with tempfile.TemporaryDirectory() as tmp:
            raw = Path(tmp, "raw.csv")
            raw.write_bytes(b"\n".join(returns[:at] + stray + returns[at:]))
            out = Path(tmp, "torus.csv")
            argv = ["preprocess", str(raw), "--out", str(out)]
            for flag, value in (("--band-lo", band_lo),
                                ("--fraction", fraction),
                                ("--outside", outside)):
                if value is not None:
                    argv.append(f"{flag}={value}")
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                code = main(argv)
            err = stderr.getvalue().splitlines()
            assert code in (0, 1)
            if code == 0:
                assert err == []
            else:
                assert len(err) == 1 and err[0].startswith("error: ")
            assert out.exists() == (code == 0)


class TestRunExperiment:
    def test_artifacts_and_schema(self, tiny_cfg, tmp_path):
        cfg = load_config(tiny_cfg)
        out = tmp_path / "out"
        result = run_experiment(cfg, out_dir=out)
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"config", "seed", "selected_n_theta", "fits",
                               "errors"}
        fit = report["fits"][0]
        assert set(fit) == {"n_theta", "alpha_star", "j_eps", "aic",
                            "iterations", "converged", "diagnostics"}
        bounds = fit["diagnostics"]["bounds"]
        assert set(bounds) == {"dt_used", "dt_euler_pos", "dt_bdf2"}
        # density has one row per grid node, histogram one per bin
        assert len((out / "density.csv").read_text().splitlines()) == 64 + 1
        assert len((out / "histogram.csv").read_text().splitlines()) == 40 + 1
        assert len((out / "aic.csv").read_text().splitlines()) == 2 + 1

    def test_histogram_mass_is_one(self, tiny_cfg, tmp_path):
        cfg = load_config(tiny_cfg)
        result = run_experiment(cfg, out_dir=tmp_path / "o")
        rows = (tmp_path / "o" / "histogram.csv").read_text().splitlines()[1:]
        heights = np.array([float(r.split(",")[1]) for r in rows])
        width = 2 * np.pi / 40
        assert width * heights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_reports(self, tiny_cfg, tmp_path):
        cfg = load_config(tiny_cfg)
        a = run_experiment(cfg, out_dir=tmp_path / "a")
        b = run_experiment(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "report.json").read_bytes() == \
               (tmp_path / "b" / "report.json").read_bytes()

    def test_classic_penalty_in_report_and_aic_csv(self, tiny_cfg, tmp_path):
        cfg = load_config(tiny_cfg, ["aic_penalty=classic"])
        result = run_experiment(cfg, out_dir=tmp_path / "o")
        rows = (tmp_path / "o" / "aic.csv").read_text().splitlines()[1:]
        assert len(rows) == len(result.report["fits"]) == 2
        for fit, row in zip(result.report["fits"], rows):
            aic = aic_score(fit["j_eps"], cfg.sample_count, fit["n_theta"],
                            "classic")
            assert fit["aic"] == aic
            assert row == f"{fit['n_theta']},{fit['j_eps']!r},{aic!r}"

    def test_density_csv_is_the_selected_fit(self, tiny_cfg, tmp_path):
        cfg = load_config(tiny_cfg)
        result = run_experiment(cfg, out_dir=tmp_path / "o")
        fit = next(f for f in result.report["fits"]
                   if f["n_theta"] == result.report["selected_n_theta"])
        setup = calibration_setup(cfg, fit["n_theta"])
        terminal = solve_terminal(setup, np.array(fit["alpha_star"])).density
        rows = (tmp_path / "o" / "density.csv").read_text().splitlines()[1:]
        written = np.array([float(r.split(",")[1]) for r in rows])
        assert np.array_equal(written, terminal)

    def test_round_trip_from_report_echo(self, tiny_cfg, tmp_path):
        cfg = load_config(tiny_cfg)
        first = run_experiment(cfg, out_dir=tmp_path / "a")
        echoed = json.loads((tmp_path / "a" / "report.json").read_text())
        cfg2 = config_from_dict(echoed["config"])
        second = run_experiment(cfg2, out_dir=tmp_path / "b")
        for r1, r2 in zip(first.report["fits"], second.report["fits"]):
            assert r1["alpha_star"] == r2["alpha_star"]

    def test_relabelling_the_torus_leaves_the_fit(self, tiny_cfg):
        # [0, 2pi) and [-pi, pi) are one torus, and the start law is
        # centred at init_center on both
        def sweep(*overrides):
            cfg = load_config(tiny_cfg, ["init_center=0.5", *overrides])
            setups = cfg.calibration_setups()
            return aic_sweep(setups, acquire_samples(cfg, setups[0].grid),
                             cfg.optimizer_params())

        a = sweep()
        b = sweep("domain_lower=0", f"domain_upper={2 * np.pi!r}")
        assert a.selected_n_theta == b.selected_n_theta
        for fit_a, fit_b in zip(a.reports, b.reports, strict=True):
            assert fit_a.iterations == fit_b.iterations
            assert fit_b.j_star == pytest.approx(fit_a.j_star, rel=1e-12)
            assert np.allclose(fit_b.alpha_star, fit_a.alpha_star,
                               rtol=1e-6, atol=0.0)

    def test_builds_each_setup_once_and_prints_nothing(self, tiny_cfg,
                                                       tmp_path, monkeypatch,
                                                       capsys):
        built = count_setup_builds(monkeypatch)
        cfg = load_config(tiny_cfg)
        assert built == []
        run_experiment(cfg, out_dir=tmp_path / "o")
        assert built == [2, 3]
        assert capsys.readouterr().out == ""


class TestCliEntry:
    def test_run_success(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "cli_out"
        assert main(["run", str(tiny_cfg), "--out", str(out)]) == 0
        assert (out / "report.json").exists()
        assert "selected n_theta" in capsys.readouterr().out

    def test_run_builds_each_setup_once(self, tiny_cfg, tmp_path,
                                        monkeypatch):
        # load_config only parses; the builds the run uses are the check
        built = count_setup_builds(monkeypatch)
        specs = count_builds(monkeypatch, SimulationSpec, lambda s: s.kind)
        assert main(["run", str(tiny_cfg), "--out", str(tmp_path / "o")]) == 0
        assert built == [2, 3] and specs == ["compound_poisson"]

    def test_verbose_prints_each_size_before_the_selection(self, tiny_cfg,
                                                            tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", str(tiny_cfg), "--out", str(out),
                     "--verbose"]) == 0
        report = json.loads((out / "report.json").read_text())
        expected = [f"n_theta={f['n_theta']}: J={f['j_eps']:.6f} "
                    f"aic={f['aic']:.3f} iters={f['iterations']} "
                    f"converged={f['converged']}" for f in report["fits"]]
        expected.append(f"selected n_theta = {report['selected_n_theta']}; "
                        f"report at {out / 'report.json'}")
        assert capsys.readouterr().out.splitlines() == expected

    def test_missing_config_is_usage_error(self, capsys):
        assert main(["run", "/nonexistent/nope.cfg"]) == 1

    def test_bad_key_is_usage_error(self, tiny_cfg):
        assert main(["run", str(tiny_cfg), "--set", "bogus=1"]) == 1

    @pytest.mark.parametrize("setting", [
        "max_iters=-1", "grad_tol=-1", "boot_substeps=0", "bdf2_xi=3.5",
        "n_theta_list=0", "n_theta_list=1,3",
        "sample_count=0", "domain_upper=-4", "t_final=0", "sigma2=nan",
        "centers_lo=1", "centers_hi=9", "init_concentration=0",
        "sim_rates=-1,2,1,0.5,0.25", "sim_rates=", "sim_rates=1",
        "objective_floor=0", "objective_floor=-1", "drift=nan", "drift=inf",
        "init_center=inf", "domain_lower=-inf", "init_concentration=inf",
        "n_theta_list=80", "seed=-1", "hist_bins=100000000000",
        "aic_penalty=none", "objective_floor=nan", "domain_lower=-1e308",
        "sim_rates=1,2#3", "n_space=64#1"])
    def test_bad_setting_is_config_error(self, tiny_cfg, tmp_path, capsys,
                                         setting):
        out = tmp_path / "o"
        assert main(["run", str(tiny_cfg), "--set", setting,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    # the start fill and the line-search constants are no longer settings
    @pytest.mark.parametrize("setting", [
        "alpha0=-1", "armijo_delta=0.7", "max_shrinks=0", "step_init=-0.5",
        "step_shrink=1.5"])
    def test_retired_optimizer_key_is_unknown(self, tiny_cfg, tmp_path,
                                              capsys, setting):
        out = tmp_path / "o"
        assert main(["run", str(tiny_cfg), "--set", setting,
                     "--out", str(out)]) == 1
        key = setting.split("=")[0]
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: unknown config key {key!r}"]
        assert not out.exists()

    def test_out_path_that_cannot_be_a_directory(self, tiny_cfg, tmp_path,
                                                 capsys, monkeypatch):
        sweeps = []
        monkeypatch.setattr(experiment, "aic_sweep",
                            lambda *args, **kwargs: sweeps.append(args))
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main(["run", str(tiny_cfg), "--out", str(afile / "sub")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert sweeps == []

    @pytest.mark.parametrize("setting", [
        "sim_gamma_shape=0", "sim_gamma_rate=-1", "sim_gamma_rate=nan"])
    def test_bad_bigamma_setting_is_config_error(self, tiny_cfg, tmp_path,
                                                 capsys, setting):
        out = tmp_path / "o"
        assert main(["run", str(tiny_cfg), "--set", "sim_kind=bigamma",
                     "--set", setting, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    def test_numerical_failure_exit_code(self, tiny_cfg, tmp_path, capsys):
        # sigma2 large enough that every sweep entry's start exceeds the
        # rate ceiling; the refusal names the step, the rate and the ceiling
        code = main(["run", str(tiny_cfg), "--set", "sigma2=50.0",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "dt =" in err and "rate_ceiling =" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("existing, out", [
        (None, "a/b"), ("x", "x"), ("x", "x/b/c")])
    def test_numerical_failure_removes_only_the_directories_it_made(
            self, tiny_cfg, tmp_path, existing, out):
        if existing:
            (tmp_path / existing).mkdir()
        assert main(["run", str(tiny_cfg), "--set", "sigma2=50.0",
                     "--out", str(tmp_path / out)]) == 2
        left = sorted(str(p.relative_to(tmp_path))
                      for p in tmp_path.rglob("*") if p.is_dir())
        assert left == ([existing] if existing else [])

    @pytest.mark.parametrize("argv", [
        ["run", "--bogus"], ["frobnicate"], [],
        ["preprocess", "raw.csv"],
        ["preprocess", "raw.csv", "--out", "t.csv", "--fraction", "abc"],
        ["preprocess", "raw.csv", "--out", "t.csv", "--outside", "ignore"]],
        ids=" ".join)
    def test_usage_error_exits_1(self, tmp_path, capsys, monkeypatch, argv):
        # argparse would exit 2, the code of a numerical failure
        monkeypatch.chdir(tmp_path)
        (tmp_path / "raw.csv").write_text("0.01\n-0.02\n0.005\n")
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "t.csv").exists()

    def test_help_exits_0_and_names_the_outside_values(self, capsys):
        for argv in (["--help"], ["preprocess", "--help"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 0
        assert "wrap (default) or discard" in capsys.readouterr().out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_band_too_wide_for_float64_is_config_error(self, tiny_cfg,
                                                       tmp_path, capsys):
        # hi - lo overflows, and the hats' spacing with it
        out = tmp_path / "o"
        assert main(["run", str(tiny_cfg), "--set", "centers_lo=-1e308",
                     "--set", "centers_hi=1e308", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "too wide for float64" in err[0]
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_far_initial_center_is_a_point_on_the_torus(self, tiny_cfg,
                                                        tmp_path):
        # both commands start at init_center projected onto the torus,
        # however far out it is given; added to 1e308 itself, every draw
        # and jump would round away and leave one distinct sample
        assert main(["run", str(tiny_cfg), "--set", "init_center=1e308",
                     "--out", str(tmp_path / "o")]) == 0
        out = tmp_path / "s.csv"
        assert main(["simulate", str(tiny_cfg), "--set", "init_center=1e308",
                     "--out", str(out)]) == 0
        assert len(np.unique(ingest_samples(out))) > 1000

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_concentration_is_a_spike(self, tiny_cfg, tmp_path):
        # kappa * (cos - 1) overflows to -inf off the peak: exp gives 0 there
        cfg = load_config(tiny_cfg, ["init_concentration=1e308"])
        f0 = cfg.calibration_setups()[0].f0
        grid = build_grid(cfg)
        assert np.count_nonzero(f0) == 1 and f0.max() == 1.0 / grid.h
        assert main(["run", str(tiny_cfg), "--set", "init_concentration=1e308",
                     "--out", str(tmp_path / "o")]) == 0

    def test_simulate_writes_csv(self, tiny_cfg, tmp_path):
        out = tmp_path / "samples.csv"
        assert main(["simulate", str(tiny_cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        values = [l for l in lines if not l.startswith("#")]
        assert len(values) == 1500

    def test_simulate_builds_no_fit_setup(self, tiny_cfg, tmp_path,
                                          monkeypatch):
        built = count_setup_builds(monkeypatch)
        specs = count_builds(monkeypatch, SimulationSpec, lambda s: s.kind)
        grids = count_builds(monkeypatch, TorusGrid, lambda grid: grid.n)
        assert main(["simulate", str(tiny_cfg),
                     "--out", str(tmp_path / "s.csv")]) == 0
        assert built == [] and specs == ["compound_poisson"] and grids == [64]

    @pytest.mark.parametrize("settings", [
        ["sim_kind="], ["sim_kind=levy"], ["sim_rates=-1,2"], ["sim_rates=1"],
        ["sample_count=0"], ["seed=-1"], ["t_final=0"], ["t_final=inf"],
        ["drift=nan"], ["sigma2=-1"], ["sigma2=inf"], ["init_center=inf"],
        ["init_concentration=0"], ["init_concentration=inf"],
        ["n_space=3"], ["domain_upper=-4"], ["centers_mode=grid"],
        ["centers_lo=1"], ["n_space=8", "sim_rates=1,1,1,1,1,1,1,1,1"],
        ["sim_kind=bigamma", "sim_gamma_shape=0"],
        ["sim_kind=bigamma", "sim_gamma_rate=nan"], *OVERFLOWING],
        ids=" ".join)
    def test_bad_simulation_setting_is_config_error(self, tiny_cfg, tmp_path,
                                                    capsys, settings):
        out = tmp_path / "s.csv"
        argv = ["simulate", str(tiny_cfg), "--out", str(out)]
        for setting in settings:
            argv += ["--set", setting]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("settings", OVERFLOWING, ids=" ".join)
    def test_overflowing_simulation_stops_run(self, tiny_cfg, tmp_path,
                                              capsys, settings):
        out = tmp_path / "o"
        argv = ["run", str(tiny_cfg), "--out", str(out)]
        for setting in settings:
            argv += ["--set", setting]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "simulate"])
    @pytest.mark.parametrize("setting", ["t_final=1e10",
                                         "sim_rates=1e15,1e15"])
    def test_jump_total_beyond_memory_names_its_settings(
            self, tiny_cfg, tmp_path, capsys, command, setting):
        # below the Poisson bound, but numpy refuses to allocate one entry
        # per jump (1.5e13 and 2e18 of them) without touching memory
        out = tmp_path / "out"
        assert main([command, str(tiny_cfg), "--set", setting,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: the paths expect ")
        assert ("jumps in all (delta * sum(rates) * t_final * n_samples), "
                "too many to hold in memory") in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("setting", [
        "n_time=1", "n_theta_list=80", "objective_floor=0", "max_iters=-1",
        "hist_bins=0", "bdf2_xi=3.5", "aic_penalty=none", "sigma2=0"])
    def test_simulate_ignores_fit_settings(self, tiny_cfg, tmp_path, setting):
        assert main(["simulate", str(tiny_cfg), "--set", setting,
                     "--out", str(tmp_path / "s.csv")]) == 0

    @pytest.mark.parametrize("kind", ["compound_poisson", "bigamma"])
    def test_simulate_writes_the_samples_run_draws(self, tiny_cfg, tmp_path,
                                                   kind):
        out = tmp_path / "samples.csv"
        overrides = [f"sim_kind={kind}"]
        assert main(["simulate", str(tiny_cfg), "--set", overrides[0],
                     "--out", str(out)]) == 0
        cfg = load_config(tiny_cfg, overrides)
        drawn = acquire_samples(cfg, build_grid(cfg)).values
        assert np.array_equal(ingest_samples(out), drawn)

    # settings that each draw other samples than the defaults, and an
    # out_dir with a line break, which the JSON record escapes
    @pytest.mark.parametrize("settings", [
        [], ["centers_lo=-0.5"], ["domain_lower=-4", "domain_upper=4"],
        ["out_dir=a\n0.5"]], ids=" ".join)
    @pytest.mark.parametrize("kind", ["compound_poisson", "bigamma"])
    def test_simulate_records_the_config_run_echoes(self, tiny_cfg, tmp_path,
                                                    monkeypatch, kind,
                                                    settings):
        sets = [arg for s in [f"sim_kind={kind}", *settings]
                for arg in ("--set", s)]
        out = tmp_path / "samples.csv"
        assert main(["simulate", str(tiny_cfg), *sets, "--out", str(out)]) == 0
        heads, record = config_record(out)
        assert len(heads) == 1
        assert main(["run", str(tiny_cfg), *sets,
                     "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert record == report["config"]
        # the record alone poses the same draw
        monkeypatch.setattr("levyfit.cli.load_config",
                            lambda *args: config_from_dict(record))
        again = tmp_path / "again.csv"
        assert main(["simulate", "--out", str(again)]) == 0
        assert again.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("name", ["a\n0.5", "a\r0.5"])
    def test_line_break_in_a_header_value_is_refused(self, tmp_path, capsys,
                                                     monkeypatch, name):
        # the input's name is the `source` header value: written as it is,
        # the text after its line break would be read back as a sample
        monkeypatch.chdir(tmp_path)
        Path(name).write_text("0.001\n-0.002\n0.0005\n0.04\n")
        assert main(["preprocess", name, "--out", "t.csv"]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert captured.out == "" and not Path("t.csv").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_samples_are_data_errors(self, tmp_path, bad):
        path = tmp_path / "bad.csv"
        path.write_text(f"0.1\n-0.2\n{bad}\n0.3\n")
        assert main(["run", "--set", f"samples_csv={path}",
                     "--set", "n_space=32", "--set", "n_time=10",
                     "--out", str(tmp_path / "o")]) == 1
        assert main(["preprocess", str(path),
                     "--out", str(tmp_path / "t.csv")]) == 1

    @pytest.mark.parametrize("command", ["preprocess", "run", "run-config",
                                         "simulate-config"])
    @pytest.mark.parametrize("kind", ["directory", "latin-1"])
    def test_unreadable_sample_file_is_data_error(self, tmp_path, capsys,
                                                  command, kind):
        # the sample file, or for *-config the config file, is unreadable
        path = tmp_path / "in.csv"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes("0.1\n# caf\xe9\n0.2\n".encode("latin-1"))
        out = tmp_path / "o"
        if command == "preprocess":
            argv = ["preprocess", str(path), "--out", str(out)]
        elif command == "run":
            argv = ["run", "--set", f"samples_csv={path}", "--set",
                    "n_space=32", "--set", "n_time=10", "--out", str(out)]
        else:
            argv = [command.split("-")[0], str(path), "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: ")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("band", [
        ["--band-hi=inf"], ["--band-lo=-inf"],
        ["--band-lo=-1e308", "--band-hi=1e308"],
        ["--band-lo=0", "--band-hi=1e-170"]], ids=" ".join)
    def test_preprocess_refuses_degenerate_band(self, tmp_path, capsys, band):
        raw = tmp_path / "raw.csv"
        rng = np.random.default_rng(0)
        raw.write_text("\n".join(map(repr, rng.normal(0, 0.01, 1000).tolist())))
        out = tmp_path / "t.csv"
        assert main(["preprocess", str(raw), "--out", str(out), *band]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("values, overflowed", [
        ("1e307 -1e307 0.01", "torus_sigma2, torus values"),
        ("1e308 1e308 0.01", "torus_drift, torus_sigma2, torus values"),
        ("3e153 -3e153 0", "torus_sigma2")])
    def test_preprocess_refuses_overflowing_values(self, tmp_path, capsys,
                                                   values, overflowed):
        raw = tmp_path / "raw.csv"
        raw.write_text("\n".join(values.split()) + "\n")
        out = tmp_path / "t.csv"
        assert main(["preprocess", str(raw), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: the raw values are too large for float64: the "
            f"{overflowed} overflow"]
        assert captured.out == "" and not out.exists()

    def test_preprocess_pipeline(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        rng = np.random.default_rng(0)
        data = list(rng.normal(2e-4, 0.004, 500)) + [-0.04]
        raw.write_text("\n".join(repr(float(v)) for v in data) + "\n")
        out = tmp_path / "torus.csv"
        assert main(["preprocess", str(raw), "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["n_wrapped"] == 1
        assert summary["n_values"] == 501
        # the file records the model it printed, exactly
        _, record = config_record(out)
        assert record == {"drift": summary["torus_drift"],
                          "sigma2": summary["torus_sigma2"]}
        cfg = config_from_dict(record)
        assert (cfg.drift, cfg.sigma2) == (summary["torus_drift"],
                                           summary["torus_sigma2"])

    def test_fit_from_csv_source(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "vals.csv"
        path.write_text("\n".join(repr(float(v))
                                  for v in rng.normal(0, 0.5, 800)) + "\n")
        out = tmp_path / "o"
        code = main(["run", "--set", f"samples_csv={path}",
                     "--set", "sim_kind=", "--set", "n_space=48",
                     "--set", "n_time=24", "--set", "n_theta_list=2",
                     "--set", "max_iters=40", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["selected_n_theta"] == 2
