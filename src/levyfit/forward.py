"""Forward Kolmogorov (Fokker-Planck) solver on the torus.

Space: exponentially fitted two-point flux (Chang-Cooper weighting), which
keeps the discrete drift-diffusion operator conservative and positivity
preserving.  Time: implicit two-step BDF2 for the stiff flux part, explicit
evaluation of the jump integral at the previous level (IMEX), with the
first step bootstrapped by implicit Euler substeps.

The jump integral is a midpoint quadrature over the torus: translating a
periodic grid function by the k-th translation node moves it by exactly k
cells, so the integral reduces to a circular convolution with a fixed
nonnegative kernel.

Both operators are circulant, so every Fourier mode evolves on its own:
with a and q their rfft symbols, `solve_forward` marches each mode through
g <- g*(1 + tau*q)/(1 - tau*a) (Euler) and
F_{m+1} = ((4 + 2dt*q)*F_m - F_{m-1})/(3 - 2dt*a) (BDF2), from one rfft of
f0 to one batched irfft of all levels.  Every level is written in place
into its row of one preallocated spectra array, with the operations in
the order shown, and each `CCOperator` builds its implicit symbols
1 - tau*a and 3 - 2dt*a once, so the march allocates nothing per level
and rebuilds nothing that does not depend on the rates.

The march checks its step against `stability_bounds` and its values for
finiteness only; `history_diagnostics` measures mass conservation and
positivity on a finished history, so a fit pays for them once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cyclic import CyclicSolver
from .errors import SolverError, StabilityError
from .torus import ModelCoefficients, SplineBasis, TimeGrid, TorusGrid

_W_SERIES = 1e-4  # switch point between closed forms and small-w expansions


def _expm1(w: float) -> float:
    """math.expm1(w), inf where the result overflows."""
    try:
        return math.expm1(w)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class CCOperator:
    """Discrete periodic drift-diffusion operator in flux form.

    With B the advection, C the diffusion coefficient and w = h*B/C, the
    matrix A has constant bands
        A[i, i-1] = beta/h,  A[i, i] = -(beta + beta_omega)/h,
        A[i, i+1] = beta_omega/h,
    (indices cyclic) where beta = B/(e^w - 1) = C/h - delta*B, with the
    Chang-Cooper weight delta = 1/w - 1/(e^w - 1), and beta_omega =
    e^w*beta.  Both beta forms agree analytically; beta and beta_omega are
    evaluated through expm1 (series below |w| = 1e-4) so the B -> 0 limit
    beta -> C/h is exact.
    """

    grid: TorusGrid
    coeffs: ModelCoefficients
    beta: float = field(init=False)
    beta_omega: float = field(init=False)
    # shift -> (scale, symbol): the last implicit symbol built per shift
    _symbols: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        h = self.grid.h
        b_adv = self.coeffs.adv
        c_diff = self.coeffs.diff
        w = h * b_adv / c_diff
        if abs(w) < _W_SERIES:
            base = c_diff / h
            beta = base * (1.0 - w / 2.0 + w * w / 12.0)
            beta_omega = base * (1.0 + w / 2.0 + w * w / 12.0)
        else:
            beta = b_adv / _expm1(w)
            beta_omega = b_adv / -_expm1(-w)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "beta_omega", beta_omega)

    @property
    def damping(self) -> float:
        """Magnitude of the diagonal of A: (beta + beta_omega)/h."""
        return (self.beta + self.beta_omega) / self.grid.h

    def system_solver(self, shift: float, scale: float) -> CyclicSolver:
        """Solver for (shift*I - scale*A), whose symbol is shift - scale*a;
        the transposed matrix has the conjugate symbol."""
        h = self.grid.h
        sub = -scale * self.beta / h
        sup = -scale * self.beta_omega / h
        return CyclicSolver(sub, shift + scale * self.damping, sup, self.grid.n)

    def implicit_symbol(self, shift: float, scale: float) -> np.ndarray:
        """The (read-only) symbol of system_solver(shift, scale).

        A fit uses two pairs, Euler (1, tau) and BDF2 (3, 2dt), so one
        symbol is kept per shift and rebuilt only when its scale changes.
        """
        kept = self._symbols.get(shift)
        if kept is None or kept[0] != scale:
            symbol = self.system_solver(shift, scale).symbol
            symbol.flags.writeable = False
            kept = self._symbols[shift] = (scale, symbol)
        return kept[1]


@dataclass
class JumpKernel:
    """Quadrature weights of the jump integral, indexed by cell shift.

    weights[k] is the rate of a k-cell translation per unit time (already
    multiplied by the quadrature step h); total_rate is their sum, the
    total jump intensity seen by the scheme.
    """

    weights: np.ndarray
    total_rate: float
    _symbol: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_rates(cls, rates, basis: SplineBasis) -> "JumpKernel":
        rates = np.atleast_1d(np.asarray(rates, dtype=float))
        if rates.shape != (basis.n_theta,):
            raise ValueError(
                f"expected {basis.n_theta} rates, got shape {rates.shape}")
        weights = basis.grid.h * (rates @ basis.samples)
        return cls(weights=weights, total_rate=float(weights.sum()))

    @property
    def symbol(self) -> np.ndarray:
        """rfft symbol of the forward jump operator: rfft(weights) - total_rate."""
        if self._symbol is None:
            self._symbol = np.fft.rfft(self.weights) - self.total_rate
        return self._symbol


def apply_jump_operator(f: np.ndarray, kernel: JumpKernel) -> np.ndarray:
    """Forward jump operator: (sum_k q_k f_{i-k}) - a*f_i.

    Mass that sits k cells to the left arrives at cell i with rate q_k, so
    the gain term is the circular convolution of the kernel with f; the
    column sums vanish identically (symbol 0 at k = 0) and the operator
    conserves mass.
    """
    return np.fft.irfft(kernel.symbol * np.fft.rfft(f), n=len(f))


def adjoint_jump_operator(p: np.ndarray, kernel: JumpKernel) -> np.ndarray:
    """Transposed jump operator: (sum_k q_k p_{i+k}) - a*p_i."""
    return np.fft.irfft(np.conj(kernel.symbol) * np.fft.rfft(p), n=len(p))


@dataclass(frozen=True)
class StabilityBounds:
    """Admissible time steps for the two schemes at decay parameter xi.

    dt_euler_positive: implicit Euler keeps nonnegative data nonnegative.
    dt_euler_decay:    Euler additionally satisfies f_new >= f_old / xi.
    dt_bdf2:           the two-step scheme propagates xi*f_new - f_old >= 0
                       (hence positivity, given a compliant starting pair).
    """

    dt_euler_positive: float
    dt_euler_decay: float
    dt_bdf2: float
    xi: float


def check_scheme(xi: float, boot_substeps: int = 1) -> None:
    """Refuse a decay parameter outside (1, 3) or fewer than one substep."""
    if not 1.0 < xi < 3.0:
        raise ValueError(f"xi must lie in (1, 3), got {xi}")
    if boot_substeps < 1:
        raise ValueError("boot_substeps must be >= 1")


def stability_bounds(cc: CCOperator, kernel: JumpKernel,
                     xi: float = 2.0) -> StabilityBounds:
    check_scheme(xi)
    a = kernel.total_rate
    damping = cc.damping
    dt_pos = math.inf if a == 0.0 else 1.0 / a
    dt_decay = (xi - 1.0) / (a * xi + damping)
    # the jump term enters the two-step update with weight 2*dt, hence 2*a*xi
    dt_bdf2 = (xi - 1.0) * (3.0 - xi) / (2.0 * a * xi + 2.0 * damping)
    return StabilityBounds(dt_pos, dt_decay, dt_bdf2, xi)


def euler_symbols(cc: CCOperator, kernel: JumpKernel,
                  tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Fourier factors (1 + tau*q, 1 - tau*a) of one implicit Euler step."""
    return 1.0 + tau * kernel.symbol, cc.implicit_symbol(1.0, tau)


def bdf2_symbols(cc: CCOperator, kernel: JumpKernel,
                 dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Fourier factors (4 + 2dt*q, 3 - 2dt*a) of one BDF2/IMEX step."""
    return 4.0 + 2.0 * dt * kernel.symbol, cc.implicit_symbol(3.0, 2.0 * dt)


def euler_step(f_prev: np.ndarray, dt_sub: float, cc: CCOperator,
               kernel: JumpKernel) -> np.ndarray:
    """One implicit Euler step: solve (I - dt*A) f = f_prev + dt*Q(f_prev).

    Refuses dt_sub above the positivity bound of `stability_bounds`.
    """
    bound = stability_bounds(cc, kernel).dt_euler_positive
    if dt_sub > bound:
        raise StabilityError(
            f"Euler step {dt_sub:.3e} exceeds positivity bound {bound:.3e}")
    explicit, implicit = euler_symbols(cc, kernel, dt_sub)
    return np.fft.irfft(explicit * np.fft.rfft(f_prev) / implicit,
                        n=len(f_prev))


def bdf2_step(f_m: np.ndarray, f_m_minus_1: np.ndarray, cc: CCOperator,
              kernel: JumpKernel, dt: float) -> np.ndarray:
    """One BDF2/IMEX step: solve (3I - 2dt*A) f = 4f_m - f_{m-1} + 2dt*Q(f_m).

    The matrix is an M-matrix for every dt, so the solve cannot fail; the
    kernel term is explicit, which is what the step-size bounds control.
    """
    explicit, implicit = bdf2_symbols(cc, kernel, dt)
    out = np.fft.irfft((explicit * np.fft.rfft(f_m) - np.fft.rfft(f_m_minus_1))
                       / implicit, n=len(f_m))
    if not np.all(np.isfinite(out)):
        raise SolverError("non-finite values in BDF2 solve")
    return out


def march_one_term(explicit, implicit, rows: list) -> None:
    """rows[i+1] = explicit*rows[i]/implicit, in place, in row order.

    The ufuncs are bound once and given their output positionally: on a
    small grid, parsing `out=` is a sizable share of each call.
    """
    multiply, divide = np.multiply, np.divide
    for x, x_next in zip(rows, rows[1:]):
        multiply(explicit, x, x_next)
        divide(x_next, implicit, x_next)


def march_two_term(explicit, implicit, rows: list) -> None:
    """rows[i+2] = (explicit*rows[i+1] - rows[i])/implicit, in place, in
    row order; the order of the operations fixes every level's rounding."""
    multiply, subtract, divide = np.multiply, np.subtract, np.divide
    for y, x, x_next in zip(rows, rows[1:], rows[2:]):
        multiply(explicit, x, x_next)
        subtract(x_next, y, x_next)
        divide(x_next, implicit, x_next)


@dataclass
class DensityHistory:
    """Space-time table of the solved density.

    values[m] approximates the density at t_m for m = 0..n_steps; bootstrap
    holds the Euler substep states preceding values[1] (needed to assemble
    exact rate sensitivities); bounds are the step bounds the march was
    checked against.
    """

    values: np.ndarray          # (n_steps + 1, n)
    bootstrap: np.ndarray       # (boot_substeps, n): states g^0 .. g^{K-1}
    grid: TorusGrid
    time_grid: TimeGrid
    bounds: StabilityBounds

    @property
    def terminal(self) -> np.ndarray:
        return self.values[-1]


def solve_forward(f0: np.ndarray, rates, basis: SplineBasis, cc: CCOperator,
                  time_grid: TimeGrid, *, xi: float = 2.0,
                  boot_substeps: int = 10, force: bool = False) -> DensityHistory:
    """March the density from f0 to t_final.

    The first level is produced by `boot_substeps` implicit Euler substeps
    of dt/boot_substeps, each checked against the Euler positivity bound;
    all later levels use the two-step scheme.  dt itself is validated
    against the two-step bound and the solve refuses when it is violated,
    unless `force` is passed.  The march only checks its values for
    finiteness; `history_diagnostics` measures mass and positivity.
    """
    f0 = np.asarray(f0, dtype=float)
    n = cc.grid.n
    if f0.shape != (n,):
        raise ValueError(f"f0 must have shape ({n},)")
    # written so that a NaN anywhere in f0 fails both checks
    if not np.min(f0) >= -1e-12:
        raise ValueError("initial density must be nonnegative")
    mass0 = cc.grid.h * f0.sum()
    if not abs(mass0 - 1.0) <= 1e-8:
        raise ValueError(f"initial density mass {mass0} is not 1")
    check_scheme(xi, boot_substeps)

    kernel = JumpKernel.from_rates(rates, basis)
    bounds = stability_bounds(cc, kernel, xi)
    dt = time_grid.dt
    tau = dt / boot_substeps
    if (dt > bounds.dt_bdf2 or tau > bounds.dt_euler_positive) and not force:
        raise StabilityError(
            f"dt = {dt:.4e} violates the admissible steps "
            f"(bdf2 <= {bounds.dt_bdf2:.4e}, euler <= {bounds.dt_euler_positive:.4e}); "
            "pass force=True (config key force_dt) to integrate anyway")

    # spectra of g^0 .. g^{K-1}, then of F^0 .. F^{n_steps}
    n_steps = time_grid.n_steps
    spectra = np.empty((boot_substeps + n_steps + 1, n // 2 + 1), dtype=complex)
    rows = list(spectra)
    boot_hat, hat = rows[:boot_substeps], rows[boot_substeps:]
    boot_hat[0][:] = np.fft.rfft(f0)
    # g^{s+1} from g^s; the last substep g^K is F^1
    march_one_term(*euler_symbols(cc, kernel, tau), boot_hat + hat[1:2])
    hat[0][:] = boot_hat[0]
    march_two_term(*bdf2_symbols(cc, kernel, dt), hat)

    states = np.fft.irfft(spectra, n=n, axis=1)
    if not np.all(np.isfinite(states)):
        raise SolverError("non-finite values in the forward march")
    boot, values = states[:boot_substeps], states[boot_substeps:]
    boot[0] = values[0] = f0
    return DensityHistory(values=values, bootstrap=boot, grid=cc.grid,
                          time_grid=time_grid, bounds=bounds)


def history_diagnostics(history: DensityHistory) -> dict:
    """The scheme's guarantees as measured on one history.

    mass_drift is the largest relative change of the mass over the levels,
    min_density the smallest value of any level, and xi_condition_min the
    smallest entry of xi*f^1 - f^0: when it is >= 0, the starting pair
    meets the positivity condition of the two-step scheme.  bounds holds
    the step used next to the Euler and two-step bounds.
    """
    values, bounds = history.values, history.bounds
    masses = history.grid.h * values.sum(axis=1)
    return {
        "mass_drift": float(np.max(np.abs(masses - masses[0]))
                            / abs(masses[0])),
        "min_density": float(values.min()),
        "xi_condition_min": float(np.min(bounds.xi * values[1] - values[0])),
        "bounds": {
            "dt_used": history.time_grid.dt,
            "dt_euler_pos": bounds.dt_euler_positive,
            "dt_bdf2": bounds.dt_bdf2,
        },
    }
