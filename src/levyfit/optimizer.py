"""Rate estimation: exact reduced gradient and a projected Dai-Yuan NLCG loop.

Convention: the loop minimizes F = -J_eps (negated mean log-likelihood).
All gradients returned here are gradients of F; its orientation is pinned
by the finite-difference tests, not by any sign lore.  `objective` scores
`solve_terminal`'s density on a `forward.CalibrationSetup` and returns its
powers; given them, as `calibrate` gives it, `reduced_gradient` reads only
their chain.  `gradient_from_histories` is that gradient by march and sweep.

Feasibility alpha_j >= 0 is kept by clamping trial points at 0 and by
zeroing search-direction components that push an active coordinate
negative; the stopping test uses the projected gradient, whose norm is the
first-order optimality residual under those bound constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adjoint import AdjointHistory, terminal_condition
from .adjoint import solve_adjoint  # noqa: F401  (the sweep the pairing reads)
from .errors import LevyfitError, LineSearchError, StabilityError
from .forward import (CalibrationSetup, DensityHistory, TerminalPowers,
                      march_diagnostics, solve_forward, solve_terminal)
from .likelihood import ObjectiveValue, aic_score, evaluate_objective
from .samples import SampleSet
from .torus import SplineBasis

ALPHA0 = 0.1            # fill value of the initial rate vector
ARMIJO_DELTA = 0.1      # sufficient-decrease constant, in (0, 1/2)
STEP_INIT = 0.5         # first trial step length
STEP_SHRINK = 0.3       # backtracking factor
MAX_SHRINKS = 30        # trial steps per line search


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
    """The history at alpha, for perfbench's kernel timings and tests."""
    return solve_forward(setup, alpha)


def objective(alpha, setup: CalibrationSetup,
              samples: SampleSet) -> tuple[ObjectiveValue, TerminalPowers]:
    """J_eps, and the `solve_terminal` powers whose density it scores."""
    powers = solve_terminal(setup, alpha)
    return evaluate_objective(powers.density, samples, setup.eps), powers


def gradient_from_histories(fwd: DensityHistory, adj: AdjointHistory,
                            basis: SplineBasis) -> np.ndarray:
    """Assemble dF/d(rates) from matched forward/adjoint histories.

    Component j is h * sum_k theta_jk * (c_k - c_0), where c_k sums the lag-k
    correlations sum_i u_i v_{i-k} of each multiplier row u with the state
    row v it acts on: weight 2*dt for a two-step level (the jump term's
    weight in that recurrence), tau for an Euler substep.  Every pairing is
    a product of the rows' rfft modes, which the adjoint history keeps and
    the forward one gives by an rfft of its rows, so c is one irfft of
    their weighted sum, and c_0 is the dot-product term by Parseval.
    """
    dt = fwd.time_grid.dt
    tau = dt / len(fwd.bootstrap)
    levels, substeps = (np.fft.rfft(rows, axis=1)
                        for rows in (fwd.values[1:-1], fwd.bootstrap))
    modes = (2.0 * dt * np.vecdot(levels, adj.levels, axis=0)
             + tau * np.vecdot(substeps, adj.bootstrap, axis=0))
    lags = np.fft.irfft(modes, n=fwd.grid.n)
    return fwd.grid.h * (basis.samples @ (lags - lags[0]))


def reduced_gradient(alpha, setup: CalibrationSetup, samples: SampleSet,
                     powers: TerminalPowers | None = None) -> np.ndarray:
    """Gradient of F = -J_eps in the rates: terminal data d paired with the
    q-derivative x' of `powers` (of this setup and alpha; solved if None)
    times the basis' jump symbols T, as 2*Re(sum_k conj(rfft(d)_k) x'_k
    T_jk)/N over the setup's `modes` (x' is 0 past them), with the Nyquist
    term halved: each mode but 0 and Nyquist pairs with its conjugate, and
    T_j0 is exactly 0."""
    if powers is None:
        powers = solve_terminal(setup, alpha)
    elif powers.setup is not setup or not np.array_equal(powers.rates, alpha):
        raise ValueError("the powers were evaluated at another setup or rates")
    slope, modes = powers.derivative(), setup.modes
    data = np.fft.rfft(terminal_condition(powers.density, samples, setup.eps))
    pairs = np.conj(data[:modes]) * slope
    if 2 * (modes - 1) == setup.grid.n:     # the last mode is Nyquist
        pairs[-1] *= 0.5
    return (2.0 * (setup.basis.jump_symbols[:, :modes] @ pairs).real
            / setup.grid.n)


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


@dataclass(frozen=True)
class LineSearchResult:
    step: float
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
        if evaluate(step) <= f_current + ARMIJO_DELTA * step * slope:
            return LineSearchResult(step, n_evals)
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
    point raises the StabilityError of `admissible_bounds`.  When the search
    along the conjugate direction fails, it is retried once along steepest
    descent; when that fails too, the fit stops with stop="linesearch".

    The report's j_star, its score, floored_count and terminal density are
    those of the `objective` evaluation that the search accepted at
    alpha_star (the start, or the last Armijo trial), so j_star is the
    last trace entry's j.  `march_diagnostics` marches once, at alpha_star,
    keeping no history, to measure the scheme's guarantees.  Samples
    snapped to another grid than the setup's are refused (ValueError).
    """
    if samples.grid != setup.grid:
        raise ValueError(f"the samples are snapped to {samples.grid}, "
                         f"the setup's grid is {setup.grid}")
    n_theta = setup.basis.n_theta
    restart_every = 10 * n_theta

    # the value, density and gradient of the accepted point; its powers
    # are dropped before the next search
    alpha = np.full(n_theta, ALPHA0)
    value, powers = objective(alpha, setup, samples)
    grad = reduced_gradient(alpha, setup, samples, powers)
    terminal = powers.density
    direction = np.zeros(n_theta)   # none yet: the first search is steepest

    trace = []
    for k in range(params.max_iters + 1):
        # -(projected gradient): its norm is the first-order residual
        steepest = projected_direction(-grad, alpha)
        pg_norm = float(np.linalg.norm(steepest))
        if k:
            trace.append({"iter": k - 1, "j": value.value, "pg_norm": pg_norm,
                          "step": ls.step, "beta": beta, "evals": ls.n_evals})
        if pg_norm <= params.tol:
            stop_note = "tol"
            break
        if k == params.max_iters:
            stop_note = "max_iters"
            break

        # the conjugate direction if it descends, then steepest descent;
        # a direction equal to steepest descent is searched only once
        candidates = [steepest]
        if (float(grad @ direction) < 0.0
                and not np.array_equal(direction, steepest)):
            candidates.insert(0, direction)
        trial = powers = None   # (point, value, powers) of the last trial
        for direction in candidates:

            def evaluate(step):
                nonlocal trial
                point = np.maximum(alpha + step * direction, 0.0)
                try:
                    trial = (point, *objective(point, setup, samples))
                except StabilityError:
                    return math.inf     # a refused trial is never accepted
                return -trial[1].value

            try:
                ls = armijo_linesearch(evaluate, -value.value,
                                       float(grad @ direction))
                break
            except LineSearchError:
                continue
        else:
            stop_note = "linesearch"
            break

        # Armijo accepts the last step it evaluated
        alpha_next, value, powers = trial
        grad_next = reduced_gradient(alpha_next, setup, samples, powers)
        terminal = powers.density

        beta = dai_yuan_beta(grad_next, grad, direction)
        if (k + 1) % restart_every == 0:
            beta = 0.0
        direction = projected_direction(-grad_next + beta * direction,
                                        alpha_next)
        alpha, grad = alpha_next, grad_next

    trial = powers = None   # no chain held through the march
    diagnostics = {
        "stop": stop_note,
        "floored_count": value.floored_count,
        "grad_norm": pg_norm,
        "raw_grad_norm": float(np.linalg.norm(grad)),
        **march_diagnostics(setup, alpha),
    }
    return FitReport(
        n_theta=n_theta,
        alpha_star=alpha,
        j_star=value.value,
        aic=aic_score(value.value, len(samples), n_theta, penalty),
        iterations=k,
        converged=stop_note == "tol",
        diagnostics=diagnostics,
        terminal=terminal,
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
