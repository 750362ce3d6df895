"""The names the benchmark in perfbench/ imports, patches and wraps.

perfbench/tracer.py patches each layer boundary where its caller looks it
up, and perfbench/probe.py counts the optimizer's objective and gradient
evaluations and times the sweep by replacing module attributes; a rename,
or a caller that binds the function at import time, would leave those
hooks silently unused.  These tests only read perfbench/.
"""

import dataclasses
import importlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import levyfit.experiment as experiment
import levyfit.optimizer as optimizer
from levyfit.config import RunConfig, calibration_setup, config_from_dict

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # for dataclasses
    spec.loader.exec_module(module)
    return module


def test_tracer_boundaries_resolve(monkeypatch):
    tracer = load_perfbench("tracer", monkeypatch)
    for _, module_name, attr in tracer.BOUNDARIES:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)


def differences(a, b, path="setup"):
    """Paths of the constructor fields, recursively, where a and b differ
    bit for bit."""
    if isinstance(a, np.ndarray):
        same = (a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
        return [] if same else [path]
    if dataclasses.is_dataclass(a):
        if type(a) is not type(b):
            return [path]
        return [d for f in dataclasses.fields(a) if f.init
                for d in differences(getattr(a, f.name), getattr(b, f.name),
                                     f"{path}.{f.name}")]
    return [] if (type(a), a) == (type(b), b) else [path]


def tiny_config():
    return RunConfig(sim_kind="compound_poisson", sim_rates=(1.0, 0.5),
                     n_space=32, n_time=10, sample_count=300,
                     n_theta_list=(2,), max_iters=3)


def test_kernel_checks_run_on_a_report(monkeypatch, tmp_path):
    # the traced benchmark run rebuilds the selected fit from report.json and
    # drives the history API directly, so an API change must not break it
    kernels = load_perfbench("kernels", monkeypatch)
    # every key the setup reads away from its default
    config = dataclasses.replace(
        tiny_config(), drift=0.05, sigma2=0.03, t_final=0.8, init_center=0.2,
        init_concentration=300.0, centers_lo=-0.9, objective_floor=1e-11,
        boot_substeps=7, bdf2_xi=1.8, force_dt=True)
    result = experiment.run_experiment(config, out_dir=tmp_path)
    report = json.loads(Path(result.paths["report"]).read_text())
    ctx = kernels.fit_context(report, tmp_path)
    # kernels.py writes the config -> setup mapping out again: it must pose
    # the problem the command fitted
    fitted = calibration_setup(config_from_dict(report["config"]),
                               report["selected_n_theta"])
    assert differences(ctx.setup, fitted) == []
    rel_err = kernels.grad_check_rel_err(ctx)
    assert math.isfinite(rel_err) and rel_err < 1e-4
    timings = kernels.kernel_timings(ctx)
    assert all(math.isfinite(v) and v > 0 for v in timings.values())


def test_hooked_names_are_looked_up_at_call_time(monkeypatch, tmp_path):
    calls = {}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for name in ("objective", "reduced_gradient", "armijo_linesearch"):
        count(optimizer, name)
    count(experiment, "aic_sweep")
    experiment.run_experiment(tiny_config(), out_dir=tmp_path)
    assert calls["aic_sweep"] == 1
    for name in ("objective", "reduced_gradient", "armijo_linesearch"):
        assert calls.get(name, 0) >= 1, name
