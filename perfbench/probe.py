"""Run one ``levyfit`` command in this process and write a timing record.

    python perfbench/probe.py RECORD MODE -- <levyfit arguments>

MODE is ``plain`` (timestamps only), ``timed`` (plus a reference loop
after each evaluation, see below), ``trace`` (plus per-layer spans, see
tracer.py) or ``setup`` (stop when the basis-size sweep would start).
``levyfit.cli.main`` runs exactly as ``python -m levyfit.cli`` would run
it; the only hooks in ``plain`` mode time the one ``aic_sweep`` call and
count and time the optimizer's objective and gradient evaluations.
Timestamps use the system-wide monotonic clock, so the caller can subtract
the time it started this process.  The record is JSON at RECORD; in
``trace`` mode the raw spans go next to it as RECORD.spans.npz.  The exit
code is the command's.

In ``timed`` mode every evaluation that returns is followed at once by
`reference_loop`, a fixed piece of plain numpy/scipy work with the shape
of a march step, timed the same way.  Where the host's cores are shared
with other tenants, their load slows a call by 10-60% from one minute to
the next; the reference run right after a call is slowed alike, so the
ratio of the two times measures the program and not the host.
"""

from __future__ import annotations

import json
import resource
import sys
import time

REF_N = 256        # grid points of the reference loop
REF_STEPS = 32     # its steps, about 1.5 ms on a 2.1 GHz Xeon core


class SetupDone(Exception):
    """Stops a ``setup`` probe where the sweep, and so the first calibrate
    call, would start."""


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def make_reference_loop():
    """A stand-in for REF_STEPS march steps that uses no levyfit code, so
    a change to levyfit leaves its cost alone: an FFT convolution, a
    tridiagonal banded solve and a rank-1 update per step."""
    import numpy as np
    from scipy.linalg import solve_banded

    rng = np.random.default_rng(0)
    bands = np.zeros((3, REF_N))
    bands[0, 1:] = bands[2, :-1] = -1.0
    bands[1] = 3.5
    kernel = np.fft.rfft(rng.random(REF_N) / REF_N)
    f0, z = rng.random(REF_N), rng.random(REF_N)

    def reference_loop():
        f = g = f0
        for _ in range(REF_STEPS):
            conv = np.fft.irfft(kernel * np.fft.rfft(f), n=REF_N)
            y = solve_banded((1, 1), bands, 4.0 * f - g + 0.01 * (conv - f))
            g, f = f, y - z * (1e-3 * y[0])
        return f

    return reference_loop


def _clocked(calls: dict, prefix: str, fn, *args, **kwargs):
    t0, c0 = time.perf_counter(), time.process_time()
    out = fn(*args, **kwargs)
    calls[prefix + "cpu_s"].append(time.process_time() - c0)
    calls[prefix + "wall_s"].append(time.perf_counter() - t0)
    return out


def _counted(counts: dict, times: dict, name: str, fn, reference=None):
    """Counts the calls that return and keeps the wall and CPU time of
    each, and of the reference loop run right after it if one is given; a
    trial refused by the step-size bound raises before any march and costs
    next to nothing."""
    prefixes = ("", "ref_") if reference else ("",)
    calls = times[name] = {p + clock: [] for p in prefixes
                           for clock in ("wall_s", "cpu_s")}

    def counted(*args, **kwargs):
        out = _clocked(calls, "", fn, *args, **kwargs)
        if reference:
            _clocked(calls, "ref_", reference)
        counts[name] += 1
        return out
    return counted


def main(argv: list[str]) -> int:
    record_path, mode, sep, *cli_args = argv
    if sep != "--" or mode not in ("plain", "timed", "trace", "setup"):
        raise SystemExit(
            "usage: probe.py RECORD {plain,timed,trace,setup} -- ARGS")
    record = {"mode": mode}
    t0 = time.monotonic()
    import levyfit.cli as cli
    import levyfit.experiment as experiment
    import levyfit.optimizer as optimizer
    record["import_s"] = time.monotonic() - t0

    # work done by the fit: objective evaluations (one forward march each)
    # and reduced gradients (one adjoint sweep each)
    counts = record["evaluations"] = {"objective": 0, "reduced_gradient": 0}
    times = record["call_times"] = {}
    reference = make_reference_loop() if mode == "timed" else None
    for name in counts:
        setattr(optimizer, name, _counted(counts, times, name,
                                          getattr(optimizer, name), reference))

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    aic_sweep = experiment.aic_sweep

    def timed_sweep(*args, **kwargs):
        record["t_sweep0"] = time.monotonic()
        if mode == "setup":
            raise SetupDone
        cpu0 = _cpu_s()
        try:
            return aic_sweep(*args, **kwargs)
        finally:
            record["t_sweep1"] = time.monotonic()
            record["sweep_cpu_s"] = _cpu_s() - cpu0

    experiment.aic_sweep = timed_sweep
    try:
        code = cli.main(cli_args)
    except SetupDone:
        code = 0
    record["cpu_s"] = _cpu_s()
    record["maxrss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           / 1024.0)
    if tracer is not None:
        record["spans"] = tracer.summary()
        tracer.dump(record_path + ".spans.npz")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
