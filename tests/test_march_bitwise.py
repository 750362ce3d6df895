"""The in-place spectral march and sweep against the allocating recurrences
they replaced.  Both run the same operations in the same order on the same
symbols, so they must agree bit for bit, not just to a tolerance: after
other runs on the same operator too."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (SmallProblem, march_setup, random_density,
                      small_problems, with_f0_spectrum)
from levyfit import forward
from levyfit.adjoint import solve_adjoint
from levyfit.errors import SolverError
from levyfit.forward import (CCOperator, JumpKernel, bdf2_symbols,
                             euler_symbols, march_diagnostics, solve_forward,
                             solve_terminal, stability_bounds)
from levyfit.torus import (ModelCoefficients, TimeGrid, TorusGrid, make_basis,
                           tiling_centers)


def allocating_forward(f0, rates, basis, cc, time_grid, boot_substeps):
    """(values, bootstrap): a new array per level, fresh symbols per call."""
    kernel = JumpKernel.from_rates(rates, basis)
    n, dt = cc.grid.n, time_grid.dt
    tau = dt / boot_substeps
    spectra = np.empty((boot_substeps + time_grid.n_steps + 1, n // 2 + 1),
                       dtype=complex)
    boot_hat, hat = spectra[:boot_substeps], spectra[boot_substeps:]
    explicit = 1.0 + tau * kernel.symbol
    implicit = cc.system_solver(1.0, tau).symbol
    g = np.fft.rfft(f0)
    for s in range(boot_substeps):
        boot_hat[s] = g
        g = explicit * g / implicit
    hat[0] = boot_hat[0]
    hat[1] = g
    explicit = 4.0 + 2.0 * dt * kernel.symbol
    implicit = cc.system_solver(3.0, 2.0 * dt).symbol
    for m in range(1, time_grid.n_steps):
        hat[m + 1] = (explicit * hat[m] - hat[m - 1]) / implicit
    states = np.fft.irfft(spectra, n=n, axis=1)
    boot, values = states[:boot_substeps], states[boot_substeps:]
    boot[0] = values[0] = f0
    return values, boot


def allocating_adjoint(data, rates, basis, cc, time_grid, boot_substeps):
    """(levels, bootstrap) spectra of the transposed recurrence, the same
    way: a new array per level, fresh conjugated symbols per call."""
    kernel = JumpKernel.from_rates(rates, basis)
    n, dt, n_steps = cc.grid.n, time_grid.dt, time_grid.n_steps
    tau = dt / boot_substeps
    spectra = np.zeros((boot_substeps + n_steps + 2, n // 2 + 1),
                       dtype=complex)
    boot_hat, hat = spectra[:boot_substeps], spectra[boot_substeps:]
    explicit = np.conj(4.0 + 2.0 * dt * kernel.symbol)
    implicit = np.conj(cc.system_solver(3.0, 2.0 * dt).symbol)
    hat[n_steps] = np.fft.rfft(data) / implicit
    for m in range(n_steps - 1, 1, -1):
        hat[m] = (explicit * hat[m + 1] - hat[m + 2]) / implicit
    rhs = explicit * hat[2] - hat[3]
    explicit = np.conj(1.0 + tau * kernel.symbol)
    implicit = np.conj(cc.system_solver(1.0, tau).symbol)
    boot_hat[-1] = rhs / implicit
    for s in range(boot_substeps - 2, -1, -1):
        boot_hat[s] = explicit * boot_hat[s + 1] / implicit
    return hat[2:-1], boot_hat


def measured(setup, rates, values):
    """The diagnostics of `march_diagnostics` from a whole history's levels
    `values`: the masses' largest drift from the first over the first's
    size, the smallest value, the smallest entry of xi*f^1 - f^0, and the
    step next to the bounds of `stability_bounds`."""
    masses = setup.grid.h * values.sum(axis=1)
    bounds = stability_bounds(
        setup.cc, JumpKernel.from_rates(rates, setup.basis), setup.xi)
    return {
        "mass_drift": float(np.max(np.abs(masses - masses[0]))
                            / abs(masses[0])),
        "min_density": float(values.min()),
        "xi_condition_min": float(np.min(setup.xi * values[1] - values[0])),
        "bounds": {"dt_used": setup.time_grid.dt,
                   "dt_euler_pos": bounds.dt_euler_positive,
                   "dt_bdf2": bounds.dt_bdf2},
    }


def march_and_sweep(problem, cc, time_grid, boot_substeps, f0, data):
    """solve_forward (forced past the step bounds, so every random problem
    runs) and solve_adjoint, as five arrays."""
    basis, rates = problem.basis, problem.rates
    hist = solve_forward(march_setup(problem._replace(
        cc=cc, time_grid=time_grid, boot_substeps=boot_substeps), f0,
        force=True), rates)
    adj = solve_adjoint(data, rates, basis, cc, time_grid,
                        boot_substeps=boot_substeps)
    return hist.bootstrap, hist.terminal, hist.values, adj.levels, adj.bootstrap


def inputs(problem):
    grid = problem.cc.grid
    return random_density(problem.rng, grid), problem.rng.normal(size=grid.n)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(problem=small_problems())
def test_forward_march_equals_allocating_march(problem):
    cc, basis, rates, tg, boot, _ = problem
    f0, _ = inputs(problem)
    hist = solve_forward(march_setup(problem, f0, force=True), rates)
    values, bootstrap = allocating_forward(f0, rates, basis, cc, tg, boot)
    assert np.array_equal(hist.values, values)
    assert np.array_equal(hist.bootstrap, bootstrap)
    assert np.array_equal(hist.terminal, values[-1])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(problem=small_problems(), size=st.sampled_from([2, 3, 5, 38]))
def test_blocked_march_has_the_bytes_of_the_whole_march(problem, size):
    """Marched in blocks, `solve_forward` has the levels and substeps of the
    whole-array march, and `march_diagnostics`, which folds the blocks, the
    bytes of the diagnostics measured on those levels at once, for N_T + 1
    below the block, equal to it, one more than it and than twice it, and
    twice it: at blocks of 2, 3, 5 and 38 levels (fine_grid's), each set
    through `_BLOCK_BYTES`, whose own value makes one block of every
    problem here."""
    f0, _ = inputs(problem)
    edges = [m for m in (size - 1, size, size + 1, 2 * size, 2 * size + 1)
             if m >= 3]
    n = problem.cc.grid.n
    budget = size * (16 * (n // 2 + 1) + 8 * n)   # a level's bytes
    with mock.patch.object(forward, "_BLOCK_BYTES", budget):
        for levels in edges:
            tg = TimeGrid(problem.time_grid.t_final, levels - 1)
            setup = march_setup(problem._replace(time_grid=tg), f0,
                                force=True)
            hist = solve_forward(setup, problem.rates)
            diagnostics = march_diagnostics(setup, problem.rates)
            values, bootstrap = allocating_forward(
                f0, problem.rates, problem.basis, problem.cc, tg,
                problem.boot_substeps)
            assert hist.values.tobytes() == values.tobytes()
            assert hist.bootstrap.tobytes() == bootstrap.tobytes()
            for row in (hist.values[0], hist.bootstrap[0]):
                assert row.tobytes() == setup.f0.tobytes()
            assert repr(diagnostics) == repr(
                measured(setup, problem.rates, values))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(problem=small_problems())
def test_reused_buffers_give_the_bytes_of_fresh_ones(problem):
    """A march and a sweep after another rate vector's march equal the
    first march and sweep."""
    cc, basis, rates, tg, boot, _ = problem
    f0, data = inputs(problem)
    fresh = march_and_sweep(problem, cc, tg, boot, f0, data)
    solve_forward(march_setup(problem, f0, force=True), rates[::-1] + 1.0)
    reused = march_and_sweep(problem, cc, tg, boot, f0, data)
    for a, b in zip(reused, fresh):
        assert np.array_equal(a, b)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(problem=small_problems())
def test_adjoint_sweep_equals_allocating_sweep(problem):
    cc, basis, rates, tg, boot, _ = problem
    _, data = inputs(problem)
    adj = solve_adjoint(data, rates, basis, cc, tg, boot_substeps=boot)
    levels, bootstrap = allocating_adjoint(data, rates, basis, cc, tg, boot)
    assert np.array_equal(adj.levels, levels)
    assert np.array_equal(adj.bootstrap, bootstrap)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(problem=small_problems())
def test_one_operator_serves_changing_time_grids(problem):
    """An operator reused with another step and substep count keeps no
    state between runs: every run equals the same run on a fresh operator."""
    cc, tg, boot = problem.cc, problem.time_grid, problem.boot_substeps
    f0, data = inputs(problem)
    runs = [(tg, boot), (TimeGrid(0.5 * tg.t_final, tg.n_steps + 1), boot),
            (tg, boot + 1), (tg, boot)]
    for time_grid, substeps in runs:
        reused = march_and_sweep(problem, cc, time_grid, substeps, f0, data)
        fresh = march_and_sweep(problem, CCOperator(cc.grid, cc.coeffs),
                                time_grid, substeps, f0, data)
        for a, b in zip(reused, fresh):
            assert np.array_equal(a, b)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(problem=small_problems())
def test_implicit_symbols_are_shift_minus_scale_times_the_symbol(problem):
    """The solver, the Euler and the BDF2 factors divide by the same bits,
    shift - scale*a from the operator's one symbol a, and mode 0 of each
    is its shift exactly.  A setup keeps the two factors of the routes
    read-only, with the bits of `euler_symbols` and `bdf2_symbols`, and
    their long-double rows over the kept modes are the conversions of the
    double arrays' prefix, with the rows 2Q^n of the powers' doublings."""
    cc, basis, rates, tg, boot, _ = problem
    kernel = JumpKernel.from_rates(rates, basis)
    dt, tau = tg.dt, tg.dt / boot
    setup = march_setup(problem, inputs(problem)[0])
    for shift, scale, implicit, kept in (
            (1.0, tau, euler_symbols(cc, kernel, tau), setup.euler_implicit),
            (3.0, 2.0 * dt, bdf2_symbols(cc, kernel, dt), setup.implicit),
            (1.0, 0.5 * dt, None, None)):
        expected = shift - scale * cc.symbol
        assert expected[0] == shift
        assert np.array_equal(cc.system_solver(shift, scale).symbol, expected)
        if implicit is not None:
            assert np.array_equal(implicit[1], expected)
            assert kept.tobytes() == implicit[1].tobytes()

    modes = setup.modes
    assert 0 < modes <= len(setup.f0_hat)
    c = np.asarray(setup.implicit[:modes], dtype=np.clongdouble)
    rows = [np.asarray(x[:modes], dtype=np.clongdouble)
            for x in (setup.euler_implicit, setup.implicit, setup.f0_hat)]
    rows += [-1.0 / c, 2.0 * dt / c]
    assert len(setup.long_symbols) == len(rows)
    for row, expected in zip(setup.long_symbols, rows):
        assert row.dtype == np.clongdouble
        assert np.array_equal(row, expected)
    assert np.array_equal(setup.f0_hat, np.fft.rfft(setup.f0))
    # the row of each doubling is 2Q^n, Q = 1/c, n the bits of N_T - 1
    # before it, to the roundoff of the squarings that build it
    bits, eps_long = f"{tg.n_steps - 1:b}", np.finfo(np.longdouble).eps
    assert setup.two_q_powers.shape == (len(bits) - 1, modes)
    assert setup.two_q_powers.dtype == np.clongdouble
    for count, row in enumerate(setup.two_q_powers, 1):
        n = int(bits[:count], 2)
        expected = 2.0 * (1.0 / c) ** n
        assert np.all(np.abs(row - expected)
                      <= 4 * n * eps_long * np.abs(expected))
    for array in (setup.f0, setup.f0_hat, setup.euler_implicit,
                  setup.implicit, setup.long_symbols, setup.two_q_powers):
        assert not array.flags.writeable


@pytest.mark.parametrize("n", [16, 33])
def test_overflow_at_an_early_level_is_refused(n):
    """Rates near the float range overflow the march within its first
    substeps and the sweep within its first levels.  Each checks only the
    last row it writes, and both still raise, the streamed march with the
    march's text; so do the companion-matrix powers, at their value, and
    at a derivative that overflows alone."""
    grid = TorusGrid(0.0, 2 * np.pi, n)
    cc = CCOperator(grid, ModelCoefficients(0.3, 0.2))
    basis = make_basis(tiling_centers(3, grid), grid)
    rates, tg, boot = np.full(3, 1e150), TimeGrid(1.0, 40), 10
    rng = np.random.default_rng(n)
    f0, data = random_density(rng, grid), rng.normal(size=n)
    problem = SmallProblem(cc, basis, rates, tg, boot)
    setup = march_setup(problem, f0, force=True)
    for march in (solve_forward, march_diagnostics):
        with pytest.raises(SolverError, match="^non-finite values in the "
                           "forward march$"), np.errstate(over="ignore",
                                                          invalid="ignore"):
            march(setup, rates)
    with pytest.raises(SolverError), np.errstate(over="ignore",
                                                 invalid="ignore"):
        solve_adjoint(data, rates, basis, cc, tg, boot_substeps=boot)

    # the value raises, so there are no powers to take a derivative from
    with pytest.raises(SolverError), np.errstate(over="ignore",
                                                 invalid="ignore"):
        solve_terminal(setup, rates)

    # a derivative may overflow where the density does not: over a horizon
    # of 1e4 the mass mode's derivative is 1e4 times the mode, so data a
    # thousandth below the float range keep the density finite and not it;
    # no density of mass 1 has them, so they are put into a setup's copy
    slow, long = np.full(3, 1e-3), TimeGrid(1e4, 40)
    setup = march_setup(problem._replace(time_grid=long), f0, force=True)
    powers = solve_terminal(setup, slow)
    slope = powers.derivative()
    size = np.abs(np.fft.rfft(powers.density)).max()
    assert np.abs(slope).max() > 1e3 * size
    huge = with_f0_spectrum(
        setup, 1e-3 * np.finfo(float).max / size * setup.f0_hat)
    powers = solve_terminal(huge, slow)
    assert np.isfinite(powers.density).all()
    with pytest.raises(SolverError, match="derivative"), np.errstate(
            over="ignore", invalid="ignore"):
        powers.derivative()
