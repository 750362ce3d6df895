"""Rate estimation: exact reduced gradient and a projected Dai-Yuan NLCG loop.

Convention: the loop minimizes F = -J_eps (negated mean log-likelihood).
All gradients returned here are gradients of F; its orientation is pinned
by the finite-difference tests, not by any sign lore.

Feasibility alpha_j >= 0 is kept by clamping trial points at 0 and by
zeroing search-direction components that push an active coordinate
negative; the stopping test uses the projected gradient, whose norm is the
first-order optimality residual under those bound constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adjoint import AdjointHistory, solve_adjoint, terminal_condition
from .errors import LevyfitError, LineSearchError, StabilityError
from .forward import (CCOperator, DensityHistory, check_scheme,
                      history_diagnostics, solve_forward)
from .likelihood import DEFAULT_FLOOR, ObjectiveValue, aic_score, evaluate_objective
from .samples import SampleSet
from .torus import ModelCoefficients, SplineBasis, TimeGrid, TorusGrid

ALPHA0 = 0.1            # fill value of the initial rate vector
ARMIJO_DELTA = 0.1      # sufficient-decrease constant, in (0, 1/2)
STEP_INIT = 0.5         # first trial step length
STEP_SHRINK = 0.3       # backtracking factor
MAX_SHRINKS = 30        # trial steps per line search


@dataclass(frozen=True)
class CalibrationSetup:
    """Everything fixed during one fit: geometry, model, basis, initial density."""

    grid: TorusGrid
    time_grid: TimeGrid
    coeffs: ModelCoefficients
    basis: SplineBasis
    f0: np.ndarray
    eps: float = DEFAULT_FLOOR
    boot_substeps: int = 10
    xi: float = 2.0
    force: bool = False
    cc: CCOperator = field(init=False)

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError(f"the objective floor must be > 0, got {self.eps}")
        check_scheme(self.xi, self.boot_substeps)
        object.__setattr__(self, "cc", CCOperator(self.grid, self.coeffs))


@dataclass(frozen=True)
class OptimizerParams:
    """Stopping rules of the NLCG loop (defaults follow the standard
    experiment setup); its start fill and line search use the module
    constants above."""

    tol: float = 1e-5            # on the projected gradient norm
    max_iters: int = 500

    def __post_init__(self):
        if not self.tol >= 0.0:
            raise ValueError("tol must be >= 0")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")


@dataclass
class FitReport:
    n_theta: int
    alpha_star: np.ndarray
    j_star: float                # attained mean log-likelihood (maximized form)
    aic: float
    iterations: int
    converged: bool
    diagnostics: dict
    terminal: np.ndarray = field(repr=False)   # fitted density at t_final
    trace: list = field(default_factory=list, repr=False)


def run_forward(alpha, setup: CalibrationSetup) -> DensityHistory:
    return solve_forward(setup.f0, alpha, setup.basis, setup.cc,
                         setup.time_grid, xi=setup.xi,
                         boot_substeps=setup.boot_substeps, force=setup.force)


def objective(alpha, setup: CalibrationSetup,
              samples: SampleSet) -> tuple[ObjectiveValue, DensityHistory]:
    """Minimized-objective building block: J_eps and the forward history."""
    fwd = run_forward(alpha, setup)
    return evaluate_objective(fwd.terminal, samples, setup.eps), fwd


def gradient_from_histories(fwd: DensityHistory, adj: AdjointHistory,
                            basis: SplineBasis) -> np.ndarray:
    """Assemble dF/d(rates) from matched forward/adjoint histories.

    Component j is h * sum_k theta_jk * (c_k - c_0), where c_k sums the lag-k
    correlations sum_i u_i v_{i-k} of each multiplier row u with the state
    row v it acts on: weight 2*dt for a two-step level (the jump term's
    weight in that recurrence), tau for an Euler substep.  Every pairing is
    a product of rfft modes, so c is one irfft of their weighted sum, and
    c_0 is the dot-product term by Parseval.
    """
    dt = fwd.time_grid.dt
    tau = dt / fwd.bootstrap.shape[0]
    levels = np.fft.rfft(fwd.values[1:-1], axis=1)
    substeps = np.fft.rfft(fwd.bootstrap, axis=1)
    modes = (2.0 * dt * (np.conj(levels) * adj.levels).sum(axis=0)
             + tau * (np.conj(substeps) * adj.bootstrap).sum(axis=0))
    lags = np.fft.irfft(modes, n=fwd.grid.n)
    return fwd.grid.h * (basis.samples @ (lags - lags[0]))


def reduced_gradient(alpha, setup: CalibrationSetup, samples: SampleSet,
                     history: DensityHistory | None = None) -> np.ndarray:
    """Gradient of F = -J_eps with respect to the rates, via one adjoint sweep."""
    fwd = history if history is not None else run_forward(alpha, setup)
    data = terminal_condition(fwd.terminal, samples, eps=setup.eps)
    adj = solve_adjoint(data, alpha, setup.basis, setup.cc, setup.time_grid,
                        boot_substeps=setup.boot_substeps)
    return gradient_from_histories(fwd, adj, setup.basis)


def dai_yuan_beta(g_next: np.ndarray, g_prev: np.ndarray,
                  d_prev: np.ndarray) -> float:
    """Conjugacy coefficient <g+, g+> / <d, g+ - g>, zero on flat curvature.

    A vanishing denominator (relative to its factors) signals lost
    curvature information, so the caller restarts with steepest descent.
    """
    y = g_next - g_prev
    denom = float(d_prev @ y)
    scale = float(np.linalg.norm(d_prev) * np.linalg.norm(y))
    if abs(denom) < 1e-14 * scale or scale == 0.0:
        return 0.0
    return float(g_next @ g_next) / denom


def projected_direction(d: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Zero direction components that push an active coordinate below zero."""
    out = d.copy()
    out[(alpha <= 0.0) & (d < 0.0)] = 0.0
    return out


def projected_gradient(g: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """First-order optimality residual under the nonnegativity bounds."""
    out = g.copy()
    active = alpha <= 0.0
    out[active] = np.minimum(g[active], 0.0)
    return out


@dataclass(frozen=True)
class LineSearchResult:
    step: float
    value: float
    n_evals: int


def armijo_linesearch(evaluate, f_current: float,
                      slope: float) -> LineSearchResult:
    """First step in {STEP_INIT * STEP_SHRINK^n} with sufficient decrease.

    `evaluate(step)` returns the objective at the (already clamped) trial
    point, or +inf for points the solver refuses.  `slope` is the
    directional derivative at step 0 and must be negative.  The accepted
    step is always the last one evaluated.
    """
    if not slope < 0.0:
        raise LineSearchError(f"not a descent direction (slope {slope:.3e})")
    step = STEP_INIT
    for n_evals in range(1, MAX_SHRINKS + 1):
        value = evaluate(step)
        if value <= f_current + ARMIJO_DELTA * step * slope:
            return LineSearchResult(step, value, n_evals)
        step *= STEP_SHRINK
    raise LineSearchError(
        f"no sufficient decrease within {MAX_SHRINKS} shrinks")


def calibrate(setup: CalibrationSetup, samples: SampleSet,
              params: OptimizerParams = OptimizerParams(),
              penalty: str = "log") -> FitReport:
    """Projected Dai-Yuan NLCG fit of the jump rates, scored by `aic_score`.

    Never raises on non-convergence: the report carries converged=False
    and the trace instead.  Trial points that violate the step-size bounds
    evaluate to +inf and are simply backtracked past; a refused starting
    point raises solve_forward's StabilityError.  When the search
    along the conjugate direction fails, it is retried once along steepest
    descent; when that fails too, the fit stops with stop="linesearch".
    """
    n_theta = setup.basis.n_theta
    restart_every = 10 * n_theta

    def safe_objective(a):
        try:
            obj, fwd = objective(a, setup, samples)
            return -obj.value, obj, fwd
        except StabilityError:
            return math.inf, None, None

    alpha = np.full(n_theta, ALPHA0)
    obj, fwd = objective(alpha, setup, samples)
    f_val = -obj.value
    grad = reduced_gradient(alpha, setup, samples, history=fwd)
    direction = projected_direction(-grad, alpha)

    pg_norm = float(np.linalg.norm(projected_gradient(grad, alpha)))
    trace = []
    for k in range(params.max_iters + 1):
        if pg_norm <= params.tol:
            stop_note = "tol"
            break
        if k == params.max_iters:
            stop_note = "max_iters"
            break

        # the conjugate direction if it descends, then steepest descent;
        # a direction equal to steepest descent is searched only once
        steepest = projected_direction(-grad, alpha)
        candidates = [steepest]
        if (float(grad @ direction) < 0.0
                and not np.array_equal(direction, steepest)):
            candidates.insert(0, direction)
        trial = None    # (point, value, objective, history) of the last trial
        for direction in candidates:

            def evaluate(step):
                nonlocal trial
                point = np.maximum(alpha + step * direction, 0.0)
                trial = (point, *safe_objective(point))
                return trial[1]

            try:
                ls = armijo_linesearch(evaluate, f_val, float(grad @ direction))
                break
            except LineSearchError:
                continue
        else:
            stop_note = "linesearch"
            break

        # Armijo accepts the last step it evaluated
        alpha_next, f_next, obj, fwd = trial
        grad_next = reduced_gradient(alpha_next, setup, samples, history=fwd)

        beta = dai_yuan_beta(grad_next, grad, direction)
        if (k + 1) % restart_every == 0:
            beta = 0.0
        direction = projected_direction(-grad_next + beta * direction,
                                        alpha_next)
        alpha, f_val, grad = alpha_next, f_next, grad_next
        pg_norm = float(np.linalg.norm(projected_gradient(grad, alpha)))
        trace.append({"iter": k, "j": -f_val, "pg_norm": pg_norm,
                      "step": ls.step, "beta": beta, "evals": ls.n_evals})

    diagnostics = {
        "stop": stop_note,
        "floored_count": obj.floored_count,
        "grad_norm": pg_norm,
        "raw_grad_norm": float(np.linalg.norm(grad)),
        **history_diagnostics(fwd),
    }
    j_star = -f_val
    return FitReport(
        n_theta=n_theta,
        alpha_star=alpha,
        j_star=j_star,
        aic=aic_score(j_star, len(samples), n_theta, penalty),
        iterations=k,
        converged=stop_note == "tol",
        diagnostics=diagnostics,
        terminal=fwd.terminal.copy(),
        trace=trace,
    )


@dataclass
class SweepResult:
    reports: list
    selected_n_theta: int
    errors: dict


def aic_sweep(setups, samples: SampleSet,
              params: OptimizerParams = OptimizerParams(),
              penalty: str = "log") -> SweepResult:
    """Calibrate one setup per basis size and pick the best-scoring one.

    Individual failures are recorded and the sweep continues; selection
    maximizes the score over the successful fits.
    """
    reports, errors = [], {}
    for setup in setups:
        try:
            reports.append(calibrate(setup, samples, params, penalty))
        except LevyfitError as exc:
            errors[setup.basis.n_theta] = str(exc)
    if not reports:
        raise LevyfitError("every sweep entry failed: " + repr(errors))
    best = max(reports, key=lambda r: r.aic)
    return SweepResult(reports=reports, selected_n_theta=best.n_theta,
                       errors=errors)
