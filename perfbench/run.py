"""levyfit benchmark: run one workload through the CLI and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it puts ``src`` on ``PYTHONPATH`` the way
the test command does.  Each CLI command is its own process (see
probe.py), one at a time: a closed loop with one client.  The seed makes
every input: the simulation seed of the synthetic workloads and the raw
return series of ``financial_csv``.  Work files go to
``.perfbench/work/`` and are deleted at the end; the full run record
(inputs, versions, thread settings, per-repetition numbers, the result
fingerprint and the correctness findings) is printed and kept in
``.perfbench/records/``.  The last stdout line is the summary JSON.

``--trace 0`` runs the workload's CLI sequence once, and again while the
next repetition still fits in ``--seconds``, in probe.py's ``timed``
mode, then ``SETUP_PROBES`` more times stopping where the sweep starts.
It reports the end-to-end metrics, medians over the repetitions:

* ``fwd_adj_per_ref``, ``fwd_adj_cpu_per_ref``: the cost of one objective
  evaluation (a forward march) plus one reduced gradient (an adjoint
  sweep) inside the fit, in units of probe.py's reference loop, a fixed
  piece of numpy/scipy work run right after each call.  For each of the
  two, the median over its calls of the call's wall (CPU: user + sys)
  time over that of the reference loop after it.  On a virtual machine
  that shares its cores with other tenants (2 vCPUs of a 2.1 GHz Xeon),
  the raw time of a call moved by 10-60% between runs with their load,
  and the ratio by about 3%; a change to levyfit moves the call and not
  the reference.  The seed does not enter: the cost of a march
  depends on the grid, not on the rates or the data.  The raw numbers
  (per-call and reference medians in ms, and the sweep's ``wall_s``,
  ``fit_s``, ``cpu_s`` with the reference loops taken out) are in the
  record.
* ``setup_s``: from the start of the first process (interpreter start and
  imports included; on financial_csv the preprocess step too) to the
  first calibrate call.
* ``peak_rss_mb``: peak resident memory of the ``run`` process.
* ``fit_success_ratio``: 1 - fits that errored or did not converge, over
  fits attempted (the complement of the failure ratio, which reads 0).
* ``neg_j_eps``: -J_eps of the selected fit, the minimized objective (a
  fit stopped early reads higher).

``--trace 1`` runs the sequence once untraced and once with every layer
boundary wrapped (tracer.py), then runs the gradient-trust check and the
kernel timings (kernels.py) at the selected fit, and reports the per-layer
metrics.  ``trace.overhead_ratio`` is the traced wall time over the
untraced one.

The correctness gate, on every repetition: every command exits 0 before
the run deadline, ``preprocess`` prints the value count, torus drift and
sigma^2 that the raw series implies (to 1e-9 relative), the four artifacts
exist, and each fit's ``mass_drift`` < 1e-10 and ``min_density`` >= -1e-13
(the bounds of the acceptance suite).  Criterion 9 (two runs of one seed
give a byte-identical ``report.json``) is checked across every
``report.json`` of the run (a traced run always makes two) and against the
digest left by earlier runs of the same workload, seed and
``src/levyfit`` sources in this checkout (``.perfbench/reports/``).  A run
that fails the gate prints ``"correct": false``, counts all its fits as
failed and reports no metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROBE = HERE / "probe.py"

SETUP_PROBES = 8
MAX_REPS = 9
RUN_DEADLINE_S = 160.0      # a command still running then is killed

SYNTH_RATES = (3.0, 2.0, 1.0, 0.5, 0.25)
# criterion-8 constants of the financial experiment
RAW_DRIFT = 6.787e-4
RAW_VARIANCE = 8.7e-5
RAW_T_DOF = 4
RAW_COUNT = 200_000

MASS_DRIFT_MAX = 1e-10
MIN_DENSITY_MIN = -1e-13
ARTIFACTS = ("report.json", "density.csv", "histogram.csv", "aic.csv")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "GOTO_NUM_THREADS", "OPENBLAS_CORETYPE")


@dataclass(frozen=True)
class Workload:
    run_sets: tuple          # --set overrides of `levyfit run`
    n_fits: int
    financial: bool = False


WORKLOADS = {
    "full_sweep": Workload(("sim_kind=compound_poisson",), 5),
    "financial_csv": Workload(("n_space=105", "n_time=200",
                               "n_theta_list=3,4,5"), 3, financial=True),
    "fine_grid": Workload(("sim_kind=compound_poisson", "n_space=840",
                           "n_time=800", "n_theta_list=5"), 1),
}


@dataclass
class Step:
    argv: list
    exit_code: int
    t_start: float
    t_end: float
    stdout: str
    stderr: str
    record: dict
    record_path: Path

    @property
    def wall_s(self) -> float:
        return self.t_end - self.t_start


@dataclass
class Rep:
    steps: list
    out_dir: Path
    problems: list = field(default_factory=list)
    report_bytes: bytes | None = None
    report: dict | None = None


class Runner:
    def __init__(self, workload: Workload, seed: int, work: Path, env: dict):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = env
        self.count = 0
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def launch(self, argv: list, mode: str) -> Step:
        self.count += 1
        record_path = self.work / f"probe{self.count}.json"
        t_start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(PROBE), str(record_path), mode, "--",
                 *argv], cwd=self.work, env=self.env, capture_output=True,
                text=True, timeout=max(self.deadline - t_start, 0.0))
        except subprocess.TimeoutExpired:   # the child is killed and reaped
            return Step(argv, -1, t_start, time.monotonic(), "",
                        f"killed at the {RUN_DEADLINE_S:.0f} s run deadline",
                        {}, record_path)
        record = (json.loads(record_path.read_text())
                  if record_path.exists() else {})
        return Step(argv, proc.returncode, t_start, time.monotonic(),
                    proc.stdout, proc.stderr, record, record_path)

    def write_inputs(self) -> None:
        if not self.workload.financial:
            return
        import numpy as np
        rng = np.random.default_rng(self.seed)
        scale = math.sqrt(RAW_VARIANCE * (RAW_T_DOF - 2) / RAW_T_DOF)
        raw = RAW_DRIFT + scale * rng.standard_t(RAW_T_DOF, RAW_COUNT)
        (self.work / "raw.csv").write_text(
            "\n".join(map(repr, raw.tolist())) + "\n")
        # what `levyfit preprocess` must print for this series, with its
        # default band [-0.03, 0.03] -> [-pi, pi) and diffusion share 0.25
        stretch = math.pi / 0.03
        self.expected_torus = {"n_values": RAW_COUNT,
                               "torus_drift": float(raw.mean()) * stretch,
                               "torus_sigma2": 0.25 * float(raw.var())
                               * stretch**2}

    def sequence(self, mode: str, out: str) -> Rep:
        """The workload's CLI commands, as a user would type them."""
        steps, problems = [], []
        sets = list(self.workload.run_sets)
        if self.workload.financial:
            pre = self.launch(["preprocess", "raw.csv", "--out", "torus.csv"],
                              mode)
            steps.append(pre)
            if pre.exit_code != 0:
                return Rep(steps, self.work / out)
            info = json.loads(pre.stdout.strip().splitlines()[-1])
            for key, want in self.expected_torus.items():
                if not math.isclose(info[key], want, rel_tol=1e-9):
                    problems.append(f"preprocess {key} = {info[key]!r}, "
                                    f"expected {want!r}")
            sets += ["samples_csv=torus.csv",
                     f"drift={info['torus_drift']!r}",
                     f"sigma2={info['torus_sigma2']!r}"]
        else:
            sets.append(f"seed={self.seed}")
        argv = ["run"]
        for s in sets:
            argv += ["--set", s]
        steps.append(self.launch(argv + ["--out", out], mode))
        return Rep(steps, self.work / out, problems)


def check_rep(rep: Rep) -> None:
    """Fill in rep.report and the correctness findings of one repetition."""
    for step in rep.steps:
        if step.exit_code != 0:
            rep.problems.append(f"{step.argv[0]} exited {step.exit_code}: "
                                f"{step.stderr.strip()[-300:]}")
    if rep.problems:
        return
    for name in ARTIFACTS:
        if not (rep.out_dir / name).is_file():
            rep.problems.append(f"missing artifact {name}")
    if rep.problems:
        return
    rep.report_bytes = (rep.out_dir / "report.json").read_bytes()
    rep.report = json.loads(rep.report_bytes)
    for fit in rep.report["fits"]:
        diag = fit["diagnostics"]
        if not diag["mass_drift"] < MASS_DRIFT_MAX:
            rep.problems.append(f"n_theta={fit['n_theta']} mass_drift "
                                f"{diag['mass_drift']:.3e}")
        if not diag["min_density"] >= MIN_DENSITY_MIN:
            rep.problems.append(f"n_theta={fit['n_theta']} min_density "
                                f"{diag['min_density']:.3e}")


def rep_numbers(rep: Rep) -> dict:
    """Raw numbers of one repetition; the reference loops of a ``timed``
    run are taken out of its times."""
    run = rep.steps[-1].record
    first = rep.steps[0].t_start
    calls = run["call_times"]
    ref_wall, ref_cpu = (sum(sum(c.get(f"ref_{clock}_s", ()))
                             for c in calls.values())
                         for clock in ("wall", "cpu"))
    out = {
        "wall_s": rep.steps[-1].t_end - first - ref_wall,
        "setup_s": run["t_sweep0"] - first,
        "fit_s": run["t_sweep1"] - run["t_sweep0"] - ref_wall,
        "fit_cpu_s": run["sweep_cpu_s"] - ref_cpu,
        "evaluations": sum(run["evaluations"].values()),
        "cpu_s": sum(s.record["cpu_s"] for s in rep.steps) - ref_cpu,
        "peak_rss_mb": run["maxrss_mb"],
        "import_s": run["import_s"],
        **{f"{name}_{key[:-2]}_ms": 1e3 * median(values)
           for name, c in calls.items() for key, values in c.items()},
        "iterations": sum(f["iterations"] for f in rep.report["fits"]),
        "report_sha256": hashlib.sha256(rep.report_bytes).hexdigest(),
    }
    if len(rep.steps) > 1:
        out["preprocess_wall_s"] = rep.steps[0].wall_s
    return out


def fingerprint(rep: Rep) -> dict:
    return {
        "selected_n_theta": rep.report["selected_n_theta"],
        "report_sha256": hashlib.sha256(rep.report_bytes).hexdigest(),
        "fits": [{"n_theta": f["n_theta"], "alpha_star": f["alpha_star"],
                  "j_eps": f["j_eps"], "iterations": f["iterations"]}
                 for f in rep.report["fits"]],
    }


def rate_rel_err(report: dict) -> float | None:
    """Largest relative error of the n_theta=5 rates, synthetic data only."""
    if report["config"]["sim_kind"] != "compound_poisson":
        return None
    fit = next((f for f in report["fits"] if f["n_theta"] == 5), None)
    if fit is None:
        return None
    return max(abs(a - r) / r for a, r in zip(fit["alpha_star"], SYNTH_RATES))


def selected_fit(report: dict) -> dict:
    return next(f for f in report["fits"]
                if f["n_theta"] == report["selected_n_theta"])


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "levyfit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def gate_all(reps: list, ledger: Path) -> list:
    """Per-repetition checks, then criterion 9 across every report.json of
    this seed and source tree: this run's, and those of earlier runs in
    the same checkout (kept in `ledger`)."""
    problems = []
    for i, rep in enumerate(reps):
        check_rep(rep)
        problems += [f"rep {i}: {p}" for p in rep.problems]
    digests = {hashlib.sha256(r.report_bytes).hexdigest()
               for r in reps if r.report_bytes is not None}
    if ledger.exists():
        digests.add(ledger.read_text().strip())
    if len(digests) > 1:
        problems.append(f"report.json differs between runs of one seed: "
                        f"{sorted(digests)}")
    elif digests and not problems:
        ledger.write_text(digests.pop() + "\n")
    return problems


def failed_fits(reps: list, n_fits: int) -> int:
    """Fits that errored (absent from the report) or did not converge."""
    return sum(n_fits - sum(f["converged"] for f in rep.report["fits"])
               for rep in reps)


def measure_plain(runner: Runner, seconds: float) -> tuple[list, list]:
    """Full repetitions while the time allows, then set-up probes."""
    reps = []
    t0 = time.monotonic()
    while len(reps) < MAX_REPS:
        rep = runner.sequence("timed", f"rep{len(reps)}")
        reps.append(rep)
        if any(s.exit_code for s in rep.steps):
            return reps, []
        if (time.monotonic() - t0) * (1 + 1 / len(reps)) > seconds:
            break
    probes = [runner.sequence("setup", "setup") for _ in range(SETUP_PROBES)]
    return reps, probes


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
            return {k: deps[k].get("version") for k in ("blas", "lapack")}
        except Exception as exc:   # version report only; never fatal
            return {"error": repr(exc)}

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "machine": platform.machine(),
    }


def median(values) -> float:
    return float(statistics.median(values))


def plain_metrics(reps: list, probes: list, success: float,
                  record: dict) -> dict:
    numbers = [rep_numbers(r) for r in reps]
    setup = [n["setup_s"] for n in numbers]
    setup += [p.steps[-1].record["t_sweep0"] - p.steps[0].t_start
              for p in probes]
    raw = {k: median(n[k] for n in numbers) for k in ("wall_s", "fit_s",
                                                      "cpu_s")}
    raw.update(fit_failure_ratio=1.0 - success,
               rate_rel_err=rate_rel_err(reps[0].report))
    evals = numbers[0]["evaluations"]
    raw.update(fit_ms_per_eval=raw["fit_s"] * 1e3 / evals,
               fit_cpu_ms_per_eval=median(n["fit_cpu_s"] for n in numbers)
               * 1e3 / evals)
    record.update(reps=numbers, setup_samples=setup, raw=raw,
                  fingerprint=fingerprint(reps[0]))

    def per_ref(clock):
        """One objective plus one reduced gradient, in reference loops:
        for each, the median over its calls in every repetition of the
        call's time over that of the reference loop run right after it."""
        total = 0.0
        for name in ("objective", "reduced_gradient"):
            calls = [r.steps[-1].record["call_times"][name] for r in reps]
            total += median(t / ref for c in calls for t, ref in
                            zip(c[f"{clock}_s"], c[f"ref_{clock}_s"]))
        return total

    return {
        "fwd_adj_per_ref": (per_ref("wall"), "ratio"),
        "fwd_adj_cpu_per_ref": (per_ref("cpu"), "ratio"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (median(n["peak_rss_mb"] for n in numbers), "MB"),
        "fit_success_ratio": (success, "ratio"),
        "neg_j_eps": (-selected_fit(reps[0].report)["j_eps"], "nats"),
    }


# (span, key) pairs reported as "<span>.<key>"
SPAN_METRICS = (
    ("cyclic.solve", "calls"), ("cyclic.solve", "self_s"),
    ("cyclic.factor", "calls"), ("cyclic.factor", "self_s"),
    ("forward.solve_forward", "calls"), ("forward.solve_forward", "total_s"),
    ("forward.solve_forward", "self_s"),
    ("forward.bdf2_step", "calls"), ("forward.bdf2_step", "self_s"),
    ("forward.euler_step", "calls"),
    ("forward.apply_jump_operator", "calls"),
    ("forward.apply_jump_operator", "self_s"),
    ("adjoint.adjoint_jump_operator", "calls"),
    ("adjoint.adjoint_jump_operator", "self_s"),
    ("adjoint.solve_adjoint", "calls"), ("adjoint.solve_adjoint", "total_s"),
    ("adjoint.solve_adjoint", "self_s"),
    ("adjoint.terminal_condition", "self_s"),
    ("optimizer.gradient_from_histories", "self_s"),
    ("optimizer.reduced_gradient", "calls"),
    ("optimizer.linesearch", "calls"), ("optimizer.linesearch", "evals"),
    ("optimizer.calibrate", "self_s"),
    ("likelihood.evaluate_objective", "calls"),
    ("likelihood.evaluate_objective", "self_s"),
    ("samples.ingest_samples", "total_s"),
    ("samples.write_samples_csv", "total_s"),
    ("preprocess.preprocess_financial", "total_s"),
    ("config.load_config", "total_s"),
    ("torus.project_to_torus", "total_s"),
    ("simulate.sample", "total_s"),
    ("experiment.acquire_samples", "total_s"),
    ("experiment.run_experiment", "self_s"),
)
KERNEL_UNITS = {"_us": "us", "_ms": "ms", "_bytes": "bytes"}


def traced_metrics(plain: Rep, traced: Rep, runner: Runner,
                   record: dict) -> dict:
    import kernels

    spans = {}
    for step in traced.steps:
        for name, stats in step.record["spans"].items():
            acc = spans.setdefault(name, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                acc[key] += value

    def span(name, key):
        return float(spans.get(name, {}).get(key, 0))

    values = {f"{name}.{key}": (span(name, key),
                                "count" if key in ("calls", "evals") else "s")
              for name, key in SPAN_METRICS}
    base = rep_numbers(plain)
    wall_traced = traced.steps[-1].t_end - traced.steps[0].t_start
    ls_calls, ls_evals = span("optimizer.linesearch", "calls"), \
        span("optimizer.linesearch", "evals")
    ls_failures = span("optimizer.linesearch", "errors")
    grads = span("optimizer.reduced_gradient", "calls")
    ctx = kernels.fit_context(traced.report, runner.work)
    values.update({
        "forward.refused": (span("forward.solve_forward", "errors"), "count"),
        "adjoint.grad_check_rel_err":
            (kernels.grad_check_rel_err(ctx), "ratio"),
        "optimizer.iterations": (float(base["iterations"]), "count"),
        "optimizer.linesearch.failures": (ls_failures, "count"),
        "optimizer.linesearch.accept_ratio":
            ((ls_calls - ls_failures) / ls_evals, "ratio"),
        "optimizer.forward_per_gradient":
            (span("forward.solve_forward", "calls") / grads, "ratio"),
        "cli.preprocess.wall_s": (base.get("preprocess_wall_s", 0.0), "s"),
        "cli.import_s": (base["import_s"], "s"),
        "trace.overhead_ratio": (wall_traced / base["wall_s"], "ratio"),
    })
    for name, value in kernels.kernel_timings(ctx).items():
        unit = next(u for end, u in KERNEL_UNITS.items() if name.endswith(end))
        values[name] = (value, unit)
    record.update(reps=[base], traced_wall_s=wall_traced, spans=spans,
                  fingerprint=fingerprint(plain))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "levyfit" / "cli.py").is_file():
        print(f"error: no levyfit sources under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = root / ".perfbench" / "work" / tag
    records = root / ".perfbench" / "records"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    records.mkdir(parents=True, exist_ok=True)

    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, work, env)
    sources = source_digest(src)
    ledger = root / ".perfbench" / "reports" / \
        f"{args.workload}-seed{args.seed}-{sources[:16]}.sha256"
    ledger.parent.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "source_sha256": sources, "environment": environment()}
    try:
        runner.write_inputs()
        if args.trace:
            reps = [runner.sequence("plain", "plain"),
                    runner.sequence("trace", "traced")]
        else:
            reps, probes = measure_plain(runner, args.seconds)
        problems = gate_all(reps, ledger)
        if not args.trace:
            problems += [f"setup probe exited {p.steps[-1].exit_code}: "
                         f"{p.steps[-1].stderr.strip()[-300:]}"
                         for p in probes if "t_sweep0" not in p.steps[-1].record]
        record["problems"] = problems
        attempted = workload.n_fits * len(reps)
        if problems:    # a run that fails the gate fails all of its fits
            failed, values = attempted, {}
        elif args.trace:
            failed = failed_fits(reps, workload.n_fits)
            values = traced_metrics(reps[0], reps[1], runner, record)
            for step in reps[1].steps:
                shutil.copy(f"{step.record_path}.spans.npz",
                            records / f"{tag}-{step.argv[0]}.spans.npz")
        else:
            failed = failed_fits(reps, workload.n_fits)
            values = plain_metrics(reps, probes, 1.0 - failed / attempted,
                                   record)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    record["summary"] = summary
    text = json.dumps(record, sort_keys=True)
    (records / f"{tag}.json").write_text(text + "\n")
    for problem in problems:
        print(f"correctness: {problem}", file=sys.stderr)
    print(text)
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
