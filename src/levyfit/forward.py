"""Forward Kolmogorov (Fokker-Planck) solver on the torus.

Space: exponentially fitted two-point flux (Chang-Cooper weighting), which
keeps the discrete drift-diffusion operator conservative and positivity
preserving.  Time: implicit two-step BDF2 for the stiff flux part, explicit
evaluation of the jump integral at the previous level (IMEX), with the
first step bootstrapped by implicit Euler substeps.

The jump integral is a midpoint quadrature over the torus: translating a
periodic grid function by the k-th translation node moves it by exactly k
cells, so the integral reduces to a circular convolution with a fixed
nonnegative kernel, whose symbol q is linear in the rates: rates @
`SplineBasis.jump_symbols`, built once per basis.

Both operators are circulant, so every Fourier mode evolves on its own:
with a = `CCOperator.symbol`, g <- g*(1 + tau*q)/(1 - tau*a) (Euler) and
F_{m+1} = ((4 + 2dt*q)*F_m - F_{m-1})/(3 - 2dt*a) (BDF2).  One
`CalibrationSetup` per fit holds every array that q leaves unchanged,
built once and shared by a sweep's other basis sizes (`with_basis`), and
both routes take it and the rates.  The march steps every mode in place
and irffts its levels a block of `_BLOCK_BYTES` at a time: `solve_forward`
into the real-space history (the adjoint sweep's multipliers pair with
its rows' rfft), and `march_diagnostics`, the one measure of the
scheme's guarantees, folds each block into them as it comes, holding no
history: a fit marches only to measure.
`solve_terminal`, with which the fit evaluates its trials and gradients,
and so the likelihood and density it reports, reaches the terminal level
alone by binary powers of each mode's companion matrix in long double,
whose roundoff stays below the march's, over the modes that the setup
finds some admitted rates carry to t_final (`terminal_bounds`).  It
takes them as the matrix's Lucas pair (U_n, V_n), whose doublings read
the rate-free rows 2Q^n that the setup builds once, and the q-derivative
reads that chain (`TerminalPowers.derivative`), in which only U carries
a derivative.
Both routes refuse the same steps (`admissible_bounds`) and check only
the terminal level.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .cyclic import CyclicSolver
from .errors import SolverError, StabilityError
from .likelihood import DEFAULT_FLOOR
from .torus import ModelCoefficients, SplineBasis, TimeGrid, TorusGrid

_W_SERIES = 1e-4  # switch point between closed forms and small-w expansions
_POWERS_DTYPE = np.clongdouble   # of the powers and the setup's rows
_EPS_LONG = float(np.finfo(_POWERS_DTYPE).eps)
# spectra and real values of a block of the march's levels: 38 levels at
# N = 840, 77 at N = 420, and all 201 of N = 105, N_T = 200
_BLOCK_BYTES = 1 << 19


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

    A is circulant, and `symbol` (built once, read-only) is its rfft symbol
    a_k = (beta*e^{-i theta_k} + beta_omega*e^{i theta_k} - (beta +
    beta_omega))/h, theta_k = 2*pi*k/n, exactly 0 at k = 0 (the flux moves
    no mass).  Every implicit solve divides by shift - scale*a.
    """

    grid: TorusGrid
    coeffs: ModelCoefficients
    beta: float = field(init=False)
    beta_omega: float = field(init=False)
    symbol: np.ndarray = field(init=False, repr=False, compare=False)

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
        theta = 2.0 * np.pi * np.arange(self.grid.n // 2 + 1) / self.grid.n
        symbol = (beta * np.exp(-1j * theta) + beta_omega * np.exp(1j * theta)
                  - (beta + beta_omega)) / h
        symbol.flags.writeable = False
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "beta_omega", beta_omega)
        object.__setattr__(self, "symbol", symbol)

    @property
    def damping(self) -> float:
        """Magnitude of the diagonal of A: (beta + beta_omega)/h."""
        return (self.beta + self.beta_omega) / self.grid.h

    def system_solver(self, shift: float, scale: float) -> CyclicSolver:
        """Solver for (shift*I - scale*A), whose symbol is shift - scale*a;
        the transposed matrix has the conjugate symbol."""
        return CyclicSolver(shift - scale * self.symbol, self.grid.n)


@dataclass(frozen=True)
class JumpKernel:
    """Quadrature weights of the jump integral, indexed by cell shift.

    weights[k] is the rate of a k-cell translation per unit time (already
    multiplied by the quadrature step h); total_rate is their sum, the
    total jump intensity seen by the scheme.  symbol is the rfft symbol of
    the forward jump operator, rfft(weights) - total_rate, which every
    route steps with; `from_rates` takes it from the basis' `jump_symbols`,
    over its first `modes` modes (all if None), the powers' prefix.
    """

    weights: np.ndarray
    total_rate: float
    symbol: np.ndarray = field(repr=False)

    @classmethod
    def from_rates(cls, rates, basis: SplineBasis,
                   modes: int | None = None) -> "JumpKernel":
        rates = np.atleast_1d(np.asarray(rates, dtype=float))
        if rates.shape != (basis.n_theta,):
            raise ValueError(
                f"expected {basis.n_theta} rates, got shape {rates.shape}")
        weights = basis.grid.h * (rates @ basis.samples)
        return cls(weights=weights, total_rate=float(weights.sum()),
                   symbol=rates @ basis.jump_symbols[:, :modes])


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
    dt_bdf2:           the two-step scheme propagates xi*f_new - f_old >= 0
                       (hence positivity, given a compliant starting pair).
    """

    dt_euler_positive: float
    dt_bdf2: float


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
    dt_pos = math.inf if a == 0.0 else 1.0 / a
    # the jump term enters the two-step update with weight 2*dt, hence 2*a*xi
    dt_bdf2 = (xi - 1.0) * (3.0 - xi) / (2.0 * a * xi + 2.0 * cc.damping)
    return StabilityBounds(dt_pos, dt_bdf2)


def euler_symbols(cc: CCOperator, kernel: JumpKernel,
                  tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Fourier factors (1 + tau*q, 1 - tau*a) of one implicit Euler step."""
    return 1.0 + tau * kernel.symbol, 1.0 - tau * cc.symbol


def bdf2_symbols(cc: CCOperator, kernel: JumpKernel,
                 dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Fourier factors (4 + 2dt*q, 3 - 2dt*a) of one BDF2/IMEX step."""
    return 4.0 + 2.0 * dt * kernel.symbol, 3.0 - 2.0 * dt * cc.symbol


def admissible_bounds(setup: CalibrationSetup,
                      kernel: JumpKernel) -> StabilityBounds:
    """`stability_bounds` at the setup's checked xi; a step above the
    two-step bound, or a kernel with a negative weight, is refused unless
    `setup.force`.

    The positivity proof behind both bounds needs nonnegative weights, and
    a negative entry among the rates can give them with a nonnegative
    total.  The two clauses imply the Euler substeps' bound: admitted
    weights are >= 0, so the total rate a is >= 0, and dt <= dt_bdf2 gives
    dt*a <= (xi - 1)(3 - xi)/(2xi) < 1/2 < K, so dt/K < 1/a.  A negative
    total needs a negative weight, which the weight clause refuses.
    """
    bounds = stability_bounds(setup.cc, kernel, setup.xi)
    dt = setup.time_grid.dt
    if not setup.force and (dt > bounds.dt_bdf2
                            or kernel.weights.min() < 0):
        raise StabilityError(
            f"dt = {dt:.4e} violates the admissible steps "
            f"(bdf2 <= {bounds.dt_bdf2:.4e}, "
            f"euler <= {bounds.dt_euler_positive:.4e}, both for "
            f"{_weight_clause(kernel)}); "
            "pass force=True (config key force_dt) to integrate anyway")
    return bounds


def _weight_clause(kernel: JumpKernel) -> str:
    """The refusal's clause naming the smallest kernel weight, which the
    positivity proof behind every step bound needs nonnegative."""
    return f"jump weights >= 0, smallest {float(kernel.weights.min()):.4e}"


def check_initial_density(f0, grid: TorusGrid) -> np.ndarray:
    """A float copy of f0, refused unless a nonnegative density of mass 1."""
    f0 = np.array(f0, dtype=float)
    if f0.shape != (grid.n,):
        raise ValueError(f"f0 must have shape ({grid.n},)")
    # written so that a NaN anywhere in f0 fails both checks
    if not np.min(f0) >= -1e-12:
        raise ValueError("initial density must be nonnegative")
    mass0 = grid.h * f0.sum()
    if not abs(mass0 - 1.0) <= 1e-8:
        raise ValueError(f"initial density mass {mass0} is not 1")
    return f0


@dataclass(frozen=True)
class CalibrationSetup:
    """Everything fixed during one fit and, built from it once and
    read-only, every array of both routes that the rates leave unchanged:
    `cc`, f0 checked and its rfft `f0_hat`, `euler_implicit` = 1 - tau*a,
    `implicit` = c = 3 - 2dt*a, the number `modes` of the leading modes
    that some admitted rates carry to t_final (`terminal_bounds`; all of
    them under `force`), and over those modes, in long double,
    `long_symbols`, the rows 1 - tau*a, c, f0_hat, r = -1/c and 2dt/c, and
    `two_q_powers`, the row 2Q^n of each doubling of `solve_terminal`
    (Q = 1/c, n the bits of N_T - 1 read before it).  `with_basis` gives
    a setup of another basis that shares them."""

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
    f0_hat: np.ndarray = field(init=False, repr=False)
    euler_implicit: np.ndarray = field(init=False, repr=False)
    implicit: np.ndarray = field(init=False, repr=False)
    modes: int = field(init=False)
    long_symbols: np.ndarray = field(init=False, repr=False)
    two_q_powers: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError(f"the objective floor must be > 0, got {self.eps}")
        check_scheme(self.xi, self.boot_substeps)
        self._check_basis(self.basis)
        f0 = check_initial_density(self.f0, self.grid)
        object.__setattr__(self, "cc", CCOperator(self.grid, self.coeffs))
        dt, a = self.time_grid.dt, self.cc.symbol
        self._set_arrays(f0=f0,
                         euler_implicit=1.0 - dt / self.boot_substeps * a,
                         implicit=3.0 - 2.0 * dt * a)
        self._take_spectrum(np.fft.rfft(f0))

    def _set_arrays(self, **arrays) -> None:
        for name, array in arrays.items():
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def _take_spectrum(self, f0_hat: np.ndarray) -> None:
        """Set `f0_hat`, and from it `modes` and the powers' rows."""
        self._set_arrays(f0_hat=f0_hat)
        reach = np.add(*terminal_bounds(self))
        # up to the last mode whose reach is not negligible (NaN is not), or
        # all modes if every one is: a share of mode 0 of f0 that, weighted
        # by up to 1/floor (the likelihood, the pairing), stays below
        # long-double resolution and the irfft's rounding
        negligible = _EPS_LONG * self.eps / len(reach)
        modes = int(len(reach) - np.argmin(reach[::-1] <= negligible))
        object.__setattr__(self, "modes", modes)
        # the powers' operands in long double, from the march's symbols
        long = np.array([self.euler_implicit, self.implicit, f0_hat],
                        _POWERS_DTYPE)[:, :modes]
        long = np.concatenate([long, [-1.0 / long[1],
                                      2.0 * self.time_grid.dt / long[1]]])
        bits = f"{self.time_grid.n_steps - 1:b}"[1:]
        two_q_powers = np.empty((len(bits), modes), _POWERS_DTYPE)
        power = q = 1.0 / long[1]      # Q^n, n the bits read so far
        for row, bit in zip(two_q_powers, bits):
            np.multiply(2.0, power, row)
            power = power * power
            if bit == "1":
                power = power * q
        self._set_arrays(long_symbols=long, two_q_powers=two_q_powers)

    def _check_basis(self, basis: SplineBasis) -> None:
        if basis.grid != self.grid:
            raise ValueError(f"the basis is built on {basis.grid}, "
                             f"the setup's grid is {self.grid}")

    def with_basis(self, basis: SplineBasis) -> CalibrationSetup:
        """This setup with another basis, on its grid, sharing every array
        the rates leave unchanged: none of them reads the basis."""
        self._check_basis(basis)
        setup = copy.copy(self)
        object.__setattr__(setup, "basis", basis)
        return setup


def euler_step(f_prev: np.ndarray, dt_sub: float, cc: CCOperator,
               kernel: JumpKernel) -> np.ndarray:
    """One implicit Euler step: solve (I - dt*A) f = f_prev + dt*Q(f_prev).

    Refuses dt_sub above the positivity bound of `stability_bounds`, and
    a kernel with a negative weight, as the marches do.
    """
    bound = stability_bounds(cc, kernel).dt_euler_positive
    if dt_sub > bound or kernel.weights.min() < 0.0:
        raise StabilityError(
            f"Euler step {dt_sub:.3e} violates its positivity bound "
            f"({bound:.3e}, for {_weight_clause(kernel)})")
    explicit, implicit = euler_symbols(cc, kernel, dt_sub)
    return np.fft.irfft(explicit * np.fft.rfft(f_prev) / implicit,
                        n=len(f_prev))


def bdf2_step(f_m: np.ndarray, f_m_minus_1: np.ndarray, cc: CCOperator,
              kernel: JumpKernel, dt: float) -> np.ndarray:
    """One BDF2/IMEX step: solve (3I - 2dt*A) f = 4f_m - f_{m-1} + 2dt*Q(f_m).

    The matrix is an M-matrix for every dt, so the solve cannot fail; the
    kernel term is explicit, which is what the step-size bounds control,
    and a kernel with a negative weight is refused, as the marches do.
    """
    if kernel.weights.min() < 0.0:
        raise StabilityError(f"BDF2 step needs {_weight_clause(kernel)}")
    explicit, implicit = bdf2_symbols(cc, kernel, dt)
    out = np.fft.irfft((explicit * np.fft.rfft(f_m) - np.fft.rfft(f_m_minus_1))
                       / implicit, n=len(f_m))
    if not np.all(np.isfinite(out)):
        raise SolverError("non-finite values in BDF2 solve")
    return out


def march_one_term(explicit, implicit, rows) -> None:
    """rows[i+1] = explicit*rows[i]/implicit, in place, in row order.

    `rows` is any iterable of rows, such as a 2-d array, which yields one
    row view at a time, so the march holds no per-row objects.  The ufuncs
    are bound once and given their output positionally: on a small grid,
    parsing `out=` is a sizable share of each call.
    """
    multiply, divide = np.multiply, np.divide
    rows = iter(rows)
    x = next(rows)
    for x_next in rows:
        multiply(explicit, x, x_next)
        divide(x_next, implicit, x_next)
        x = x_next


def march_two_term(explicit, implicit, rows) -> None:
    """rows[i+2] = (explicit*rows[i+1] - rows[i])/implicit, in place, in
    row order, over any iterable of rows as `march_one_term` takes it; the
    order of the operations fixes every level's rounding."""
    multiply, subtract, divide = np.multiply, np.subtract, np.divide
    rows = iter(rows)
    y, x = next(rows), next(rows)
    for x_next in rows:
        multiply(explicit, x, x_next)
        subtract(x_next, y, x_next)
        divide(x_next, implicit, x_next)
        y, x = x, x_next


@dataclass
class DensityHistory:
    """Space-time table of the solved density, in real space.

    values[m] is the density at t_m, m = 0 .. n_steps, and bootstrap[s]
    the Euler substep state g^s, s = 0 .. K-1, that precedes values[1]
    (needed to assemble exact rate sensitivities); both rows 0 are f0
    itself.  terminal is the density at t_final, an array of its own.
    """

    values: np.ndarray          # (n_steps + 1, n)
    bootstrap: np.ndarray       # (boot_substeps, n)
    terminal: np.ndarray        # (n,): F^{n_steps}
    grid: TorusGrid
    time_grid: TimeGrid


def _admitted(setup: CalibrationSetup, rates, modes=None) -> tuple:
    """The admitted bounds at `rates`, and 1 + tau*q and 4 + 2dt*q over
    the first `modes` modes (all if None)."""
    kernel = JumpKernel.from_rates(rates, setup.basis, modes)
    q, dt = kernel.symbol, setup.time_grid.dt
    return (admissible_bounds(setup, kernel),
            1.0 + dt / setup.boot_substeps * q, 4.0 + 2.0 * dt * q)


def _march(setup: CalibrationSetup, rates, out=None) -> tuple:
    """The admitted bounds, the substeps g^0 .. g^{K-1} (if `out`) and a
    generator of the levels F^0 .. F^{N_T} (row 0 f0 itself), in real
    space, in blocks of the levels `_BLOCK_BYTES` holds (at least 2), each
    irfft'd in one call into its rows of `out`, else into one reused block."""
    bounds, euler_explicit, explicit = _admitted(setup, rates)
    n, k = setup.grid.n, setup.boot_substeps
    levels = setup.time_grid.n_steps + 1
    block = max(2, _BLOCK_BYTES // (16 * (n // 2 + 1) + 8 * n))
    hat = np.empty((max(k + 1, min(levels, block + 2)), n // 2 + 1), complex)
    hat[0] = setup.f0_hat
    # g^{s+1} from g^s; the last substep g^K is F^1
    march_one_term(euler_explicit, setup.euler_implicit, hat[:k + 1])
    substeps = None if out is None else np.fft.irfft(hat[:k], n=n, axis=1)
    hat[1] = hat[k]
    out = np.empty((min(levels, block), n)) if out is None else out

    def blocks():
        start = 0    # the first block irffts F^0 and F^1 too
        for level in range(0, levels, block):
            stop = start + min(block, levels - level)
            march_two_term(explicit, setup.implicit, hat[:stop])
            # level % len(out) is 0 in a reused block
            rows = np.fft.irfft(hat[start:stop], n=n, axis=1,
                                out=out[level % len(out):][:stop - start])
            if level == 0:
                rows[0] = setup.f0
            hat[:2], start = hat[stop - 2:stop], 2
            yield rows
        # a NaN or an inf at any level stays non-finite under (e*x - y)/c,
        # 0*inf included, and the irfft, so the last row shows it
        if not np.all(np.isfinite(rows[-1])):
            raise SolverError("non-finite values in the forward march")
    return bounds, substeps, blocks()


def solve_forward(setup: CalibrationSetup, rates) -> DensityHistory:
    """March the density from setup.f0 to t_final: `boot_substeps` implicit
    Euler substeps of dt/boot_substeps to the first level, then the
    two-step scheme, at a step and rates that `admissible_bounds` admits.
    The march holds the history and one block, and only checks its values
    for finiteness; `march_diagnostics` measures mass and positivity.
    """
    values = np.empty((setup.time_grid.n_steps + 1, setup.grid.n))
    _, bootstrap, blocks = _march(setup, rates, values)
    list(blocks)    # each block is irfft'd into its rows of values
    bootstrap[0] = setup.f0
    # a copy, so that keeping the terminal keeps no history
    return DensityHistory(values, bootstrap, values[-1].copy(), setup.grid,
                          setup.time_grid)


def march_diagnostics(setup: CalibrationSetup, rates) -> dict:
    """The scheme's guarantees as measured on `solve_forward`'s levels at
    the same setup and rates, from a march that folds each block into them
    as it comes and so holds no history.

    mass_drift is the largest relative change of the mass over the levels,
    min_density the smallest value of any level, and xi_condition_min the
    smallest entry of xi*f^1 - f^0: when it is >= 0, the starting pair
    meets the positivity condition of the two-step scheme.  bounds holds
    the step used next to the Euler and two-step bounds.
    """
    bounds, _, blocks = _march(setup, rates)
    drift, low, mass0 = 0.0, math.inf, None
    for block in blocks:    # the first holds levels 0 and 1
        masses = setup.grid.h * block.sum(axis=1)
        if mass0 is None:
            mass0, xi_min = masses[0], np.min(setup.xi * block[1] - block[0])
        drift = np.maximum(drift, np.max(np.abs(masses - mass0)))
        low = np.minimum(low, block.min())
    return {
        "mass_drift": float(drift / abs(mass0)),
        "min_density": float(low),
        "xi_condition_min": float(xi_min),
        "bounds": {"dt_used": setup.time_grid.dt,
                   "dt_euler_pos": bounds.dt_euler_positive,
                   "dt_bdf2": bounds.dt_bdf2},
    }


def terminal_bounds(setup: CalibrationSetup) -> tuple:
    """Per mode, bounds on |F^{N_T}| and |dF^{N_T}/dq|/t_final over |F^0|
    at mode 0, from start = |F^0|/|F^0_0|, at every rate vector that
    `admissible_bounds` admits at the setup: inf under `force`, which
    admits any, and where it admits none.

    Admitted weights are >= 0 and sum to at most lam, `dt_bdf2` solved for
    the total rate, so |q + lam| <= lam, and |e| <= |1 + tau*q| <= 1 as
    tau*lam < 1/(2xi) (the Euler bound K/dt never binds).  So t = (4 +
    2dt*q)/c lies within R = 2dt*lam/|c| of t0 = (4 - 2dt*lam)/c: |t| <=
    |t0| + R, |t^2 - 4Q| <= |t0^2 - 4Q| + R*(2|t0| + R), Q = 1/c = -r.
    M^n = u_n*M + r*u_{n-1}*I with u_n = sum_j lambda+^j lambda-^(n-1-j),
    so |u_n| <= n*rho^(n-1), |du_n/dt| <= (n^3 - n)/6*rho^(n-2) for rho =
    (|t| + |sqrt(t^2 - 4Q)|)/2 (+2e-7 for rounding).  As |t| <= 2rho and
    |r| <= rho^2, the bounds are n and (n + (n^3 + 2n)/3*rho)/N_T times
    rho^n*start*(3 + rho), n = N_T - 1.
    """
    n, dt, xi = setup.time_grid.n_steps - 1, setup.time_grid.dt, setup.xi
    lam = ((xi - 1.0) * (3.0 - xi) / dt - 2.0 * setup.cc.damping) / (2 * xi)
    if setup.force or lam < 0.0:
        return (np.full(len(setup.f0_hat), np.inf),) * 2
    c = setup.implicit
    t0, radius = (4.0 - 2.0 * dt * lam) / c, 2.0 * dt * lam / abs(c)
    spread = abs(t0 * t0 - 4.0 / c) + radius * (2.0 * abs(t0) + radius)
    rho = (0.5 + 1e-7) * (abs(t0) + radius + np.sqrt(spread))
    start = abs(setup.f0_hat) / abs(setup.f0_hat[0])
    base = np.exp(n * np.log(rho)) * start * (3.0 + rho)
    return n * base, (n + (n**3 + 2 * n) / 3 * rho) / (n + 1) * base


@dataclass(frozen=True, eq=False)
class TerminalPowers:
    """`solve_terminal` at `setup` and `rates` (a copy): the `density`
    and, over the setup's `modes`, the chain `derivative` reads: t/2, F^1,
    y = (t/2)*F^1 + r*F^0, e^(K-1), per bit of N_T - 1 the (Z, V) doubled
    and the Z then stepped by one (else None), and the power's (Z, V)."""

    density: np.ndarray
    setup: CalibrationSetup = field(repr=False)
    rates: np.ndarray
    chain: tuple = field(repr=False)

    def derivative(self) -> np.ndarray:
        """The terminal spectrum's q-derivative over the setup's `modes`,
        from dV_n/dt = n*U_n, exact for the polynomials U_n and V_n of t:
        only Z carries a derivative, dZ_2n = dZ_n*V_n + (n/2)*Z_n^2 per
        doubling and dZ_{n+1} = ((n+1)/2)*Z_n + (t/2)*dZ_n per set bit,
        with dt/dq the slope 2dt/c; plus dt*e^(K-1)/(1 - tau*a)*F^0
        through F^1."""
        setup = self.setup
        half, x1, y, grown, steps, (z, v) = self.chain
        euler_implicit, _, x0, _, slope = setup.long_symbols
        n, dz = 1, 0.0      # dZ_n/dt, n the bits read so far
        for z_n, v_n, z_bit in steps:
            dz = dz * v_n + 0.5 * n * (z_n * z_n)
            n += n
            if z_bit is not None:
                dz = 0.5 * (n + 1) * z_bit + half * dz
                n += 1
        dx1 = setup.time_grid.dt * grown / euler_implicit * x0
        # F = (Z*y + V*F^1)/2, dy/dq = slope/2*F^1 + (t/2)*dF^1
        dx = (0.5 * (slope * (dz * y + 0.5 * (n + 1) * z * x1)
                     + (half * z + v) * dx1)).astype(complex)
        if not np.all(np.isfinite(dx)):
            raise SolverError("non-finite values in the terminal derivative")
        return dx


def solve_terminal(setup: CalibrationSetup, rates) -> TerminalPowers:
    """`solve_forward`'s terminal density from setup.f0_hat, with the chain
    of powers that gives its q-derivative (`TerminalPowers.derivative`).

    Per mode, (F^{m+1}, F^m) = M (F^m, F^{m-1}) with M = [[t, r], [1, 0]],
    t = (4 + 2dt*q)/c, r = -1/c, c = 3 - 2dt*a; F^1 = e^K F^0 with
    e = (1 + tau*q)/(1 - tau*a).  Only the trace t reads the rates, not
    the determinant Q = -r.  M^n = U_n*M + r*U_{n-1}*I for the Lucas pair
    U_{n+1} = t*U_n + r*U_{n-1} (U_0 = 0, U_1 = 1), V_n = t*U_n +
    2r*U_{n-1}, built as (Z, V) = (2U_n, V_n) from the highest bit of
    n = N_T - 1 down: a doubling is Z_2n = Z_n*V_n, V_2n = V_n^2 - 2Q^n
    (the setup's `two_q_powers`), a set bit Z_{n+1} = (t/2)*Z_n + V_n,
    V_{n+1} = (t/2)*Z_{n+1} + r*Z_n.  None divides by the discriminant
    t^2 - 4Q, 0 at a double root.  F^{N_T} = U_n*F^2 + r*U_{n-1}*F^1 =
    (Z*y + V*F^1)/2, y = (t/2)*F^1 + r*F^0.  It forms q, and takes the
    powers, over the setup's `modes` only: past them the spectrum and its
    derivative are exact zeros, whatever admitted rates it is given.
    """
    _, euler_explicit, explicit = _admitted(setup, rates, setup.modes)
    # long double from the march's symbols on: each doubling doubles the
    # error it squares, N_T*eps in all, where the march loses sqrt(N_T)*eps
    euler_explicit, explicit = (np.asarray(x, dtype=_POWERS_DTYPE)
                                for x in (euler_explicit, explicit))
    euler_implicit, implicit, x0, r, _ = setup.long_symbols
    growth = euler_explicit / euler_implicit
    grown = growth ** (setup.boot_substeps - 1)
    x1 = grown * growth * x0
    t = explicit / implicit
    half = 0.5 * t
    bits = f"{setup.time_grid.n_steps - 1:b}"[1:]
    z, v, steps = 2.0, t, []    # (2U_n, V_n), n the bits read so far
    for bit, two_q in zip(bits, setup.two_q_powers):
        z_n, v_n = z, v
        z, v = z * v, v * v - two_q
        steps.append((z_n, v_n, z if bit == "1" else None))
        if bit == "1":
            z_n, z = z, half * z + v
            v = half * z + r * z_n
    y = half * x1 + r * x0
    terminal = np.fft.irfft((0.5 * (z * y + v * x1)).astype(complex),
                            n=setup.grid.n)
    if not np.all(np.isfinite(terminal)):     # as in solve_forward
        raise SolverError("non-finite values in the terminal density")
    rates = np.array(rates, dtype=float)
    for array in (terminal, rates):
        array.flags.writeable = False
    return TerminalPowers(terminal, setup, rates,
                          (half, x1, y, grown, tuple(steps), (z, v)))

