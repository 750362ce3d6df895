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
implicit symbols come from `CCOperator.symbol`) and the march's own loops,
`march_two_term` and `march_one_term`, on its rows in reverse order.  It
keeps the multipliers as spectra, which pair with the rfft of the forward
history's levels and substeps (`optimizer.gradient_from_histories`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .forward import (CCOperator, JumpKernel, bdf2_symbols, euler_symbols,
                      march_one_term, march_two_term)
from .forward import adjoint_jump_operator  # noqa: F401  (public here too)
from .likelihood import DEFAULT_FLOOR
from .samples import SampleSet
from .torus import SplineBasis, TimeGrid


def terminal_condition(f_terminal: np.ndarray, samples: SampleSet,
                       eps: float = DEFAULT_FLOOR) -> np.ndarray:
    """Derivative data of the floored log-likelihood at the final level.

    Cell i holds -count_i / (L * f_i) when the floor is inactive there;
    empty cells and floored cells (f_i <= eps, where the objective is
    locally flat) contribute zero.  Returned with the minimization sign, so
    every entry is nonpositive.  f_terminal has the shape of the cell
    counts, as `evaluate_objective` checks on the same level.
    """
    f = np.asarray(f_terminal, dtype=float)
    counts = samples.cell_counts
    n = len(samples)
    out = np.zeros_like(f)
    active = (counts > 0) & (f > eps)
    out[active] = -counts[active] / (n * f[active])
    return out


@dataclass
class AdjointHistory:
    """Spectra (rfft modes) of the multipliers of the transposed recurrence.

    levels[m-2] is the multiplier spectrum of the step that produced level
    m, m = 2..n_steps; bootstrap[s-1] is that of the substep multiplier
    r^s, s = 1..boot_substeps.  The rate gradient pairs them mode by mode
    with the rfft of the forward history's rows, so they are never turned
    into real space.
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
    spectra = np.zeros((boot_substeps + n_steps, cc.grid.n // 2 + 1),
                       dtype=complex)
    # boot_hat[s-1] = r^s; hat[m-2] = p^m, m = 2 .. N_T + 1, the last absent
    boot_hat, hat = spectra[:boot_substeps], spectra[boot_substeps:]
    explicit, implicit = np.conj(bdf2_symbols(cc, kernel, dt))
    np.divide(np.fft.rfft(np.asarray(terminal_data, dtype=float)), implicit,
              out=hat[-2])
    # p^m from p^{m+1} and p^{m+2}, m = N_T-1 .. 2
    march_two_term(explicit, implicit, hat[::-1])
    # r^K from the right-hand side 4 p^2 - p^3 + 2*dt*Qt(p^2), then r^s
    # from r^{s+1}, s = K-1 .. 1
    euler_explicit, euler_implicit = np.conj(euler_symbols(cc, kernel, tau))
    march_two_term(explicit, euler_implicit, [hat[1], hat[0], boot_hat[-1]])
    march_one_term(euler_explicit, euler_implicit, boot_hat[::-1])

    # r^1 is the last row written, and every written row feeds it as each
    # level feeds the forward march's terminal one
    if not np.all(np.isfinite(boot_hat[0])):
        raise SolverError("non-finite adjoint values")
    return AdjointHistory(levels=spectra[boot_substeps:-1],
                          bootstrap=spectra[:boot_substeps])
