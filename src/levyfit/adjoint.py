"""Discrete adjoint of the forward scheme, by transposing the full recurrence.

The forward solve is one big lower-block-triangular linear system in the
stacked unknowns (Euler substates, BDF2 levels).  Differentiating the
log-likelihood through it means solving the transposed system backward,
which fixes every detail of the sweep:

  * the terminal multiplier solves M^T p^{N_T} = (terminal data), because
    the data enters through the row that produced the last level;
  * each earlier level satisfies
        M^T p^m = 4 p^{m+1} - p^{m+2} + 2*dt*Qt(p^{m+1}),
    with the out-of-range p^{N_T+1} simply absent;
  * the Euler bootstrap transposes into substep multipliers
        (I - tau*A)^T r^K = 4 p^2 - p^3 + 2*dt*Qt(p^2),
        (I - tau*A)^T r^s = r^{s+1} + tau*Qt(r^{s+1}).

Any shortcut here (e.g. assigning the terminal data to p^{N_T} directly)
breaks the finite-difference gradient identity at the 1e-2 level, which is
why the transposed structure is kept exact.

Every operator is circulant with a real stencil, so its transpose has the
conjugate rfft symbol: the sweep runs the recurrence mode by mode with the
conjugated `euler_symbols` / `bdf2_symbols` of the forward march (whose
implicit symbols each `CCOperator` builds once), writing every multiplier
in place into its row of one preallocated spectra array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .forward import CCOperator, JumpKernel, bdf2_symbols, euler_symbols
from .forward import adjoint_jump_operator  # noqa: F401  (public here too)
from .samples import SampleSet
from .torus import SplineBasis, TimeGrid


def terminal_condition(f_terminal: np.ndarray, samples: SampleSet,
                       eps: float = 1e-12) -> np.ndarray:
    """Derivative data of the floored log-likelihood at the final level.

    Cell i holds -count_i / (L * f_i) when the floor is inactive there;
    empty cells and floored cells (f_i <= eps, where the objective is
    locally flat) contribute zero.  Returned with the minimization sign, so
    every entry is nonpositive.
    """
    f = np.asarray(f_terminal, dtype=float)
    counts = samples.cell_counts
    if f.shape != counts.shape:
        raise ValueError("terminal density and cell counts disagree in shape")
    n = len(samples)
    if n != counts.sum():
        raise ValueError(f"{n} samples but cell counts sum to {counts.sum()}")
    out = np.zeros_like(f)
    active = (counts > 0) & (f > eps)
    out[active] = -counts[active] / (n * f[active])
    return out


@dataclass
class AdjointHistory:
    """Spectra (rfft modes) of the multipliers of the transposed recurrence.

    levels[m-2] is the multiplier spectrum of the step that produced level
    m, m = 2..n_steps; bootstrap[s-1] is that of the substep multiplier
    r^s, s = 1..boot_substeps.  The rate gradient pairs them with the
    forward spectra mode by mode, so they are never turned into real space.
    """

    levels: np.ndarray      # (n_steps - 1, n // 2 + 1), complex
    bootstrap: np.ndarray   # (boot_substeps, n // 2 + 1), complex


def solve_adjoint(terminal_data: np.ndarray, rates, basis: SplineBasis,
                  cc: CCOperator, time_grid: TimeGrid, *,
                  boot_substeps: int = 10) -> AdjointHistory:
    """Backward sweep of the transposed scheme from the terminal data.

    `boot_substeps` must match the forward solve for the transposition to
    be exact.  Stability is inherited from the forward operators (same
    eigenvalues), and no positivity is required of the multipliers.
    """
    kernel = JumpKernel.from_rates(rates, basis)
    n_steps = time_grid.n_steps
    dt = time_grid.dt
    tau = dt / boot_substeps
    n = cc.grid.n

    # spectra of r^1 .. r^K, then of p^0 .. p^{N_T} and the absent p^{N_T+1};
    # each level is written into its own row as (explicit*x - y)/implicit,
    # the order that fixes its rounding
    spectra = np.zeros((boot_substeps + n_steps + 2, n // 2 + 1), dtype=complex)
    rows = list(spectra)
    boot_hat, hat = rows[:boot_substeps], rows[boot_substeps:]
    explicit, implicit = np.conj(bdf2_symbols(cc, kernel, dt))
    np.divide(np.fft.rfft(np.asarray(terminal_data, dtype=float)), implicit,
              out=hat[n_steps])
    # p^m from p^{m+1} and p^{m+2}, m = N_T-1 .. 2
    for p_m, p_next, p_after in zip(hat[n_steps - 1:1:-1], hat[n_steps:2:-1],
                                    hat[n_steps + 1:3:-1]):
        np.multiply(explicit, p_next, out=p_m)
        np.subtract(p_m, p_after, out=p_m)
        np.divide(p_m, implicit, out=p_m)
    # r^K from the right-hand side 4 p^2 - p^3 + 2*dt*Qt(p^2), then r^s
    # from r^{s+1}, s = K-1 .. 1
    np.multiply(explicit, hat[2], out=boot_hat[-1])
    np.subtract(boot_hat[-1], hat[3], out=boot_hat[-1])
    explicit, implicit = np.conj(euler_symbols(cc, kernel, tau))
    np.divide(boot_hat[-1], implicit, out=boot_hat[-1])
    for r_s, r_next in zip(boot_hat[-2::-1], boot_hat[::-1]):
        np.multiply(explicit, r_next, out=r_s)
        np.divide(r_s, implicit, out=r_s)

    if not np.all(np.isfinite(spectra)):
        raise SolverError("non-finite adjoint values")
    return AdjointHistory(levels=spectra[boot_substeps + 2:-1],
                          bootstrap=spectra[:boot_substeps])
