"""The fit where long double is double (MSVC, macOS-arm64): every setup
here is built with the powers' dtype and eps patched to double's, as
`forward` takes them on such a platform.  The powers then carry double's
N_T*eps roundoff and the cut drops more modes, but the gradient still
matches the objective's differences and the committed fingerprint's
selections stay.  Iterations are not compared: in a flat valley roundoff
moves the stop."""

import json
import os

import numpy as np
import pytest

from levyfit import forward
from levyfit.config import (RunConfig, build_grid, calibration_setup,
                            config_from_dict)
from levyfit.experiment import acquire_samples
from levyfit.optimizer import objective, reduced_gradient
from test_fingerprint import FINGERPRINT, WORKLOADS, run_workload

EPS = float(np.finfo(float).eps)
FD_STEP = 1e-5
HATS = 5


@pytest.fixture(autouse=True, scope="module")
def double_powers():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forward, "_POWERS_DTYPE", np.complex128)
        patch.setattr(forward, "_EPS_LONG", EPS)
        yield


@pytest.fixture(scope="module")
def workloads(tmp_path_factory, double_powers):
    """Each fingerprint workload run in a directory of its own: the
    directory and the report."""
    runs, home = {}, os.getcwd()
    for name in sorted(WORKLOADS):
        where = tmp_path_factory.mktemp(name)
        os.chdir(where)
        try:
            run_workload(name)
        finally:
            os.chdir(home)
        runs[name] = where, json.loads((where / "out" / "report.json")
                                       .read_text())
    return runs


@pytest.mark.parametrize("n_space, n_time, kept, floor", [
    (420, 250, 89, 1e-12), (840, 800, 88, 1e-12),
    (420, 250, 81, 1e-6), (840, 800, 80, 1e-6),
    (420, 250, 105, 1e-24), (840, 800, 102, 1e-24)])
def test_the_cut_keeps_doubles_modes(n_space, n_time, kept, floor):
    """At the full-sweep and fine-grid shapes, double's eps keeps fewer
    modes than x87's (94/92, 86/84, 133/105), and the powers are double."""
    config = RunConfig(n_space=n_space, n_time=n_time, objective_floor=floor)
    setup = calibration_setup(config, HATS)
    assert setup.modes == kept
    assert setup.long_symbols.dtype == setup.two_q_powers.dtype == complex
    slope = forward.solve_terminal(setup, np.ones(HATS)).derivative()
    assert len(slope) == kept and slope[-1] != 0.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fits_keep_the_fingerprints_selection(name, workloads):
    """Every selection of the committed fingerprint, and each fit's j_eps
    within 1e-7 of it (3.5e-8 on full_sweep's 7 hats)."""
    _, report = workloads[name]
    want = json.loads(FINGERPRINT.read_text())["workloads"][name]
    assert report["selected_n_theta"] == want["selected_n_theta"]
    assert [fit["n_theta"] for fit in report["fits"]] == \
           [fit["n_theta"] for fit in want["fits"]]
    for fit, ref in zip(report["fits"], want["fits"]):
        assert fit["j_eps"] == pytest.approx(ref["j_eps"], rel=1e-7, abs=0)


def test_gradient_matches_central_differences(workloads, monkeypatch):
    """At each financial fit's alpha_star, which has rates at the bound 0,
    the gradient of F = -J_eps against differences of the objective at
    step FD_STEP, central, or one-sided where a rate is within the step
    of its bound; their roundoff is ~eps/FD_STEP of F."""
    where, report = workloads["financial_csv"]
    monkeypatch.chdir(where)
    config = config_from_dict(report["config"])
    samples = acquire_samples(config, build_grid(config))
    for fit in report["fits"]:
        setup = calibration_setup(config, fit["n_theta"])
        alpha = np.array(fit["alpha_star"])
        assert (alpha == 0.0).any()

        def f(a):
            return -objective(a, setup, samples)[0].value

        grad = reduced_gradient(alpha, setup, samples)
        diff = np.empty_like(alpha)
        for j, step in enumerate(np.eye(len(alpha)) * FD_STEP):
            diff[j] = ((f(alpha + step) - f(alpha - step)) / (2 * FD_STEP)
                       if alpha[j] >= FD_STEP else
                       (f(alpha + step) - f(alpha)) / FD_STEP)
        assert np.linalg.norm(diff - grad) <= 1e-3 * np.linalg.norm(grad)
