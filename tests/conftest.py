"""Shared dense/brute-force oracles, deliberately independent of the fast paths."""

import copy
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from levyfit.forward import CalibrationSetup, CCOperator, JumpKernel
from levyfit.torus import (ModelCoefficients, SplineBasis, TimeGrid, TorusGrid,
                           make_basis, project_to_torus, tiling_centers)


def dense_cc_matrix(cc: CCOperator) -> np.ndarray:
    """The periodic flux operator assembled entry by entry."""
    n = cc.grid.n
    h = cc.grid.h
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] = -(cc.beta + cc.beta_omega) / h
        a[i, (i - 1) % n] = cc.beta / h
        a[i, (i + 1) % n] = cc.beta_omega / h
    return a


def brute_jump_apply(f: np.ndarray, rates, basis: SplineBasis,
                     grid: TorusGrid) -> np.ndarray:
    """Direct double sum over hats and quadrature nodes.

    Evaluates h * sum_j rates_j * sum_k hat_j(s_k) * f(x_i - s_k) - a * f_i
    with s_k the grid points and f continued periodically, by gathering f
    at the node each x_i - s_k lands on (no FFT); needs the grid origin to
    be node-aligned so x_i - s_k lands exactly on the mesh.  f may carry
    further axes after the grid axis.
    """
    pts = grid.points
    weights = grid.h * np.asarray(rates, dtype=float) @ basis.evaluate(pts)
    y = project_to_torus(pts[:, None] - pts[None, :], grid.lower,
                         grid.upper)
    index = np.rint((y - grid.lower) / grid.h).astype(int) % grid.n
    gathered = np.asarray(f)[index]     # (n, n, ...): f at x_i - s_k
    return np.tensordot(weights, gathered, axes=(0, 1)) - weights.sum() * f


def dense_jump_matrix(rates, basis: SplineBasis, grid: TorusGrid) -> np.ndarray:
    return brute_jump_apply(np.eye(grid.n), rates, basis, grid)


def dense_forward_march(f0, rates, basis: SplineBasis, cc: CCOperator,
                        time_grid: TimeGrid, boot_substeps: int):
    """(values, bootstrap) of the forward scheme by dense real-space solves."""
    n, dt = cc.grid.n, time_grid.dt
    tau = dt / boot_substeps
    a = dense_cc_matrix(cc)
    q = dense_jump_matrix(rates, basis, cc.grid)
    eye = np.eye(n)
    boot = [np.asarray(f0, dtype=float)]
    for _ in range(boot_substeps):
        boot.append(np.linalg.solve(eye - tau * a, (eye + tau * q) @ boot[-1]))
    values = [boot[0], boot[-1]]
    for _ in range(1, time_grid.n_steps):
        values.append(np.linalg.solve(3 * eye - 2 * dt * a,
                                      (4 * eye + 2 * dt * q) @ values[-1]
                                      - values[-2]))
    return np.array(values), np.array(boot[:-1])


def dense_adjoint_march(data, rates, basis: SplineBasis, cc: CCOperator,
                        time_grid: TimeGrid, boot_substeps: int):
    """(levels, bootstrap) of the transposed recurrence by dense solves:
    the multipliers p^2 .. p^{N_T} and r^1 .. r^K."""
    n, dt, n_steps = cc.grid.n, time_grid.dt, time_grid.n_steps
    tau = dt / boot_substeps
    a = dense_cc_matrix(cc)
    q = dense_jump_matrix(rates, basis, cc.grid)
    eye = np.eye(n)
    bdf2_t = (3 * eye - 2 * dt * a).T
    euler_t = (eye - tau * a).T
    p = np.zeros((n_steps + 2, n))      # p[n_steps + 1] stays zero
    p[n_steps] = np.linalg.solve(bdf2_t, data)
    for m in range(n_steps - 1, 1, -1):
        p[m] = np.linalg.solve(bdf2_t, (4 * eye + 2 * dt * q).T @ p[m + 1]
                               - p[m + 2])
    r = np.zeros((boot_substeps, n))
    r[-1] = np.linalg.solve(euler_t, (4 * eye + 2 * dt * q).T @ p[2] - p[3])
    for s in range(boot_substeps - 2, -1, -1):
        r[s] = np.linalg.solve(euler_t, (eye + tau * q).T @ r[s + 1])
    return p[2:-1], r


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_density(rng, grid: TorusGrid) -> np.ndarray:
    f = rng.uniform(0.05, 1.0, grid.n)
    return f / (grid.h * f.sum())


# N_T for the companion-matrix powers, whose exponent is N_T - 1: 2 and 3,
# then powers of two and their neighbours, with one, every or the lowest
# bits of the exponent set
STEP_COUNTS = [2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65]


class SmallProblem(NamedTuple):
    cc: CCOperator
    basis: SplineBasis
    rates: np.ndarray
    time_grid: TimeGrid
    boot_substeps: int = 10
    rng: np.random.Generator = None


def march_setup(problem: SmallProblem, f0, force: bool = False,
                **fields) -> CalibrationSetup:
    """The problem's march from f0 as the setup that both routes take: its
    grid, operator coefficients, basis, time grid and substeps, with
    `force` and any further `CalibrationSetup` field (xi)."""
    cc = problem.cc
    return CalibrationSetup(grid=cc.grid, time_grid=problem.time_grid,
                            coeffs=cc.coeffs, basis=problem.basis, f0=f0,
                            boot_substeps=problem.boot_substeps, force=force,
                            **fields)


def with_f0_spectrum(setup: CalibrationSetup, f0_hat) -> CalibrationSetup:
    """A copy of `setup` whose march starts from the spectrum `f0_hat`,
    which no density of mass 1 has (a non-finite mode, a size near the
    float range), so the constructor cannot build it: its `f0_hat`, the
    modes the powers keep and their long-double rows are replaced, by the
    step with which the constructor derives them from rfft(f0)."""
    doctored = copy.copy(setup)
    doctored._take_spectrum(f0_hat)
    return doctored


@st.composite
def small_problems(draw):
    """A random small march problem: 8..20 nodes on a grid that starts at a
    node (as brute_jump_apply needs), any drift, sigma^2 in [0.01, 1], 2..4
    hat rates with zeros allowed, 2..8 steps of a horizon up to 1 and 1..5
    bootstrap substeps, with a generator for the vectors it acts on."""
    grid = TorusGrid(0.0, 2 * np.pi, draw(st.integers(8, 20)))
    coeffs = ModelCoefficients(draw(st.floats(-3.0, 3.0)),
                               draw(st.floats(0.01, 1.0)))
    rates = np.array(draw(st.lists(st.one_of(st.just(0.0),
                                             st.floats(0.0, 4.0)),
                                   min_size=2, max_size=4)))
    return SmallProblem(
        cc=CCOperator(grid, coeffs),
        basis=make_basis(tiling_centers(len(rates), grid), grid),
        rates=rates,
        time_grid=TimeGrid(draw(st.floats(0.01, 1.0)),
                           draw(st.integers(2, 8))),
        boot_substeps=draw(st.integers(1, 5)),
        rng=np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


def assembly_bound(fwd, adj, basis):
    """A bound on every |gradient_j|, from the absolute values of all the
    products the assembly adds: the roundoff of two assemblies that differ
    in their summation order or round trip is a few eps times it per
    term."""
    dt = fwd.time_grid.dt
    tau = dt / len(fwd.bootstrap)
    boot = np.fft.rfft(fwd.bootstrap, axis=1)
    levels = np.fft.rfft(fwd.values[1:-1], axis=1)
    modes = (2.0 * dt * (np.abs(levels) * np.abs(adj.levels)).sum(axis=0)
             + tau * (np.abs(boot) * np.abs(adj.bootstrap)).sum(axis=0))
    # each lag is an irfft of the modes, and enters a component twice
    lag = 2.0 * modes.sum() / fwd.grid.n
    return fwd.grid.h * np.abs(basis.samples).sum(axis=1) * 2.0 * lag
