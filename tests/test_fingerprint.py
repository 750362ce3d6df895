"""The committed fit fingerprint: scaled-down versions of the benchmark's
three workloads, run through the CLI, against tests/fingerprint.json.

A change that moves a fit shows up here as a diff of that file rather than
in prose.  Regenerate it (and state the deltas when the change is meant to
move roundoff) with

    PYTHONPATH=src python tests/test_fingerprint.py

which first prints one line per fit comparing it with the committed file.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from levyfit.cli import main

FINGERPRINT = Path(__file__).resolve().parent / "fingerprint.json"

# the benchmark's workloads (perfbench/run.py) at a few thousand samples and
# coarser grids, ~1 s together: the full sweep, the financial path through
# `preprocess`, and one fit on the finest grid of the three
WORKLOADS = {
    "full_sweep": ("sim_kind=compound_poisson", "n_space=48", "n_time=30",
                   "sample_count=3000", "seed=0"),
    "financial_csv": ("n_space=42", "n_time=40", "n_theta_list=3,4,5"),
    "fine_grid": ("sim_kind=compound_poisson", "n_space=210", "n_time=200",
                  "sample_count=3000", "n_theta_list=5", "seed=0"),
}
# Student-t daily returns, the financial workload's raw series
RAW_DRIFT, RAW_VARIANCE, RAW_T_DOF, RAW_COUNT = 6.787e-4, 8.7e-5, 4, 3000


def _cli(*argv) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(list(argv))
    assert code == 0, argv
    return stdout.getvalue()


def run_workload(name: str) -> dict:
    """Run one workload's commands in the working directory; return its
    fingerprint."""
    sets = list(WORKLOADS[name])
    if name == "financial_csv":
        rng = np.random.default_rng(0)
        scale = math.sqrt(RAW_VARIANCE * (RAW_T_DOF - 2) / RAW_T_DOF)
        raw = RAW_DRIFT + scale * rng.standard_t(RAW_T_DOF, RAW_COUNT)
        Path("raw.csv").write_text("\n".join(map(repr, raw.tolist())) + "\n")
        info = json.loads(_cli("preprocess", "raw.csv", "--out", "torus.csv"))
        sets += ["samples_csv=torus.csv", f"drift={info['torus_drift']!r}",
                 f"sigma2={info['torus_sigma2']!r}"]
    argv = ["run", "--out", "out"]
    for setting in sets:
        argv += ["--set", setting]
    _cli(*argv)
    report_bytes = Path("out", "report.json").read_bytes()
    report = json.loads(report_bytes)
    return {
        "selected_n_theta": report["selected_n_theta"],
        "fits": [{"n_theta": fit["n_theta"],
                  "iterations": fit["iterations"],
                  "floored_count": fit["diagnostics"]["floored_count"],
                  "j_eps": fit["j_eps"],
                  "alpha_star": fit["alpha_star"]}
                 for fit in report["fits"]],
        "report_sha256": hashlib.sha256(report_bytes).hexdigest(),
    }


def environment() -> dict:
    return {"numpy": np.__version__,
            "platform": f"{platform.system()}-{platform.machine()}"}


@pytest.fixture(scope="module")
def committed():
    return json.loads(FINGERPRINT.read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fit_matches_fingerprint(name, committed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = run_workload(name)
    want = committed["workloads"][name]
    assert got["selected_n_theta"] == want["selected_n_theta"]
    assert [f["n_theta"] for f in got["fits"]] == \
           [f["n_theta"] for f in want["fits"]]
    for fit, ref in zip(got["fits"], want["fits"]):
        assert fit["iterations"] == ref["iterations"], fit["n_theta"]
        assert fit["floored_count"] == ref["floored_count"], fit["n_theta"]
        assert fit["j_eps"] == pytest.approx(ref["j_eps"], rel=1e-9, abs=0)
        assert fit["alpha_star"] == pytest.approx(ref["alpha_star"],
                                                  rel=1e-4, abs=0)
    if environment() == committed["environment"]:
        assert got["report_sha256"] == want["report_sha256"]


def relative_change(new, old) -> float:
    """Largest |new - old|/|old| over the entries; inf where a zero moved."""
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    change = np.abs(new - old)
    return float(np.max(np.divide(change, np.abs(old), where=old != 0,
                                  out=np.where(change > 0, np.inf, 0.0))))


def deltas(old: dict, new: dict) -> list[str]:
    """One line per fit of the workloads in both: its selection, iterations
    and floored_count old -> new, and the relative change of j_eps and the
    largest of alpha_star."""
    lines = []
    for name in sorted(new.keys() & old.keys()):
        was, now = old[name], new[name]
        for fit, ref in zip(now["fits"], was["fits"]):
            lines.append(
                f"{name} n={fit['n_theta']}: selected "
                f"{was['selected_n_theta']} -> {now['selected_n_theta']}, "
                f"iterations {ref['iterations']} -> {fit['iterations']}, "
                f"floored_count {ref['floored_count']} -> "
                f"{fit['floored_count']}, j_eps rel "
                f"{relative_change(fit['j_eps'], ref['j_eps']):.2g}, "
                f"alpha_star max rel "
                f"{relative_change(fit['alpha_star'], ref['alpha_star']):.2g}")
    return lines


def regenerate() -> None:
    home = os.getcwd()
    workloads = {}
    for name in sorted(WORKLOADS):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                workloads[name] = run_workload(name)
            finally:
                os.chdir(home)
    if FINGERPRINT.exists():
        old = json.loads(FINGERPRINT.read_text())["workloads"]
        print("\n".join(deltas(old, workloads)))
    data = {"environment": environment(), "workloads": workloads}
    FINGERPRINT.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
