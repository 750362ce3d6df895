"""Layer checks on a finished fit: gradient trust and kernel timings.

Both rebuild the selected fit's problem from the `report.json` config echo
through the public API, the way `levyfit.experiment.run_experiment`
builds it, and evaluate at the selected `alpha_star`.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from levyfit.adjoint import solve_adjoint, terminal_condition
from levyfit.config import config_from_dict
from levyfit.experiment import acquire_samples, build_basis, build_grid
from levyfit.forward import JumpKernel, apply_jump_operator
from levyfit.optimizer import (CalibrationSetup, objective, reduced_gradient,
                               run_forward)
from levyfit.samples import SampleSet
from levyfit.torus import ModelCoefficients, TimeGrid, von_mises_density

# central-difference step: the truncation and roundoff errors of F meet
# near 1e-5 for rates of order 1 (relative error ~1e-5 at alpha_star)
FD_STEP = 1e-5


@dataclass
class FitContext:
    setup: CalibrationSetup
    samples: SampleSet
    alpha: np.ndarray


def fit_context(report: dict, work_dir: Path) -> FitContext:
    config = config_from_dict(report["config"])
    if config.samples_csv:
        config.samples_csv = str(work_dir / config.samples_csv)
    grid = build_grid(config)
    fit = next(f for f in report["fits"]
               if f["n_theta"] == report["selected_n_theta"])
    setup = CalibrationSetup(
        grid=grid, time_grid=TimeGrid(config.t_final, config.n_time),
        coeffs=ModelCoefficients(config.drift, config.sigma2),
        basis=build_basis(fit["n_theta"], config, grid),
        f0=von_mises_density(grid, config.init_center,
                             config.init_concentration),
        eps=config.objective_floor, boot_substeps=config.boot_substeps,
        xi=config.bdf2_xi, force=config.force_dt)
    return FitContext(setup, acquire_samples(config, grid),
                      np.asarray(fit["alpha_star"], dtype=float))


def grad_check_rel_err(ctx: FitContext) -> float:
    """||g_fd - g|| / ||g|| for the adjoint gradient g of F = -J_eps.

    Central differences, one-sided where a rate sits closer to its bound
    than the step.
    """
    def f(a):
        return -objective(a, ctx.setup, ctx.samples)[0].value

    alpha = ctx.alpha
    grad = reduced_gradient(alpha, ctx.setup, ctx.samples)
    f0 = f(alpha)
    fd = np.empty_like(alpha)
    for j, e in enumerate(np.eye(len(alpha)) * FD_STEP):
        if alpha[j] >= FD_STEP:
            fd[j] = (f(alpha + e) - f(alpha - e)) / (2.0 * FD_STEP)
        else:
            fd[j] = (f(alpha + e) - f0) / FD_STEP
    return float(np.linalg.norm(fd - grad) / np.linalg.norm(grad))


def _median_time(fn, repeats: int) -> float:
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_timings(ctx: FitContext) -> dict:
    """Median time of one call of each kernel at the workload's shape."""
    setup, samples, alpha = ctx.setup, ctx.samples, ctx.alpha
    dt = setup.time_grid.dt
    solver = setup.cc.system_solver(3.0, 2.0 * dt)
    kernel = JumpKernel.from_rates(alpha, setup.basis)
    fwd = run_forward(alpha, setup)
    data = terminal_condition(fwd.terminal, samples, eps=setup.eps)
    history_bytes = fwd.values.nbytes + fwd.bootstrap.nbytes

    def adjoint():
        solve_adjoint(data, alpha, setup.basis, setup.cc, setup.time_grid,
                      boot_substeps=setup.boot_substeps)

    return {
        "kernel.implicit_solve_us": 1e6 * _median_time(
            lambda: solver.solve(fwd.terminal), 300),
        "kernel.jump_apply_us": 1e6 * _median_time(
            lambda: apply_jump_operator(fwd.terminal, kernel), 300),
        "kernel.forward_ms": 1e3 * _median_time(
            lambda: run_forward(alpha, setup), 11),
        "kernel.adjoint_ms": 1e3 * _median_time(adjoint, 11),
        "kernel.gradient_ms": 1e3 * _median_time(
            lambda: reduced_gradient(alpha, setup, samples), 7),
        # computed from the array sizes, not measured traffic
        "kernel.forward_bytes": float(history_bytes),
    }
