"""The companion-matrix power path against the march and the adjoint.

`objective` and `reduced_gradient` reach the terminal level by binary
powers of each mode's companion matrix (`forward.solve_terminal`).
The march (`solve_forward`) and the transposed sweep (`solve_adjoint`,
paired by `gradient_from_histories`) compute the same discrete quantities
level by level.  The two routes add in different orders, so they agree to
the roundoff of the terms they add, which is bounded from the absolute
values of those terms, not by a fixed tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (STEP_COUNTS, assembly_bound, random_density,
                      small_problems)
from levyfit.adjoint import solve_adjoint, terminal_condition
from levyfit.errors import SolverError, StabilityError
from levyfit.forward import (JumpKernel, basis_symbols, bdf2_symbols,
                             euler_symbols, solve_forward, solve_terminal,
                             stability_bounds)
from levyfit.likelihood import evaluate_objective
from levyfit.optimizer import (CalibrationSetup, gradient_from_histories,
                               objective, reduced_gradient, run_forward)
from levyfit.samples import SampleSet
from levyfit.torus import TimeGrid, TorusGrid, make_basis, tiling_centers

EPS = np.finfo(float).eps
EPS_LONG = np.finfo(np.longdouble).eps


def problem_setup(problem, n_steps):
    """The problem's march as a fit's setup, with N_T = n_steps and a
    random f0; force admits the steps that a small grid with a large dt
    takes."""
    cc, basis, _, tg, boot, rng = problem
    return CalibrationSetup(
        grid=cc.grid, time_grid=TimeGrid(tg.t_final, n_steps),
        coeffs=cc.coeffs, basis=basis, f0=random_density(rng, cc.grid),
        boot_substeps=boot, force=True)


def samples_above(terminal, grid, rng, count=30):
    """Samples in cells above a tenth of the peak, far from the floor."""
    cells = rng.choice(np.flatnonzero(terminal > 0.1 * terminal.max()), count)
    return SampleSet.from_values(grid.points[cells], grid)


def march_by_modes(setup, rates, magnitude=False):
    """Per mode, F^{N_T} and its q-derivative by the march's recurrences in
    long double, from the double symbols both routes share.  With
    `magnitude`, the same recurrences run on the absolute values of their
    symbols and terms: the size of every term that either route adds into
    F^{N_T}, of which each rounding is a few eps."""
    kernel = JumpKernel.from_rates(rates, setup.basis)
    dt, boot = setup.time_grid.dt, setup.boot_substeps
    tau = dt / boot
    sign, prepare = ((1.0, np.abs) if magnitude else
                     (-1.0, lambda x: np.asarray(x, dtype=np.clongdouble)))
    euler_explicit, euler_implicit, explicit, implicit, first = map(
        prepare, (*euler_symbols(setup.cc, kernel, tau),
                  *bdf2_symbols(setup.cc, kernel, dt), setup.f0_hat))
    level, slope = first, 0.0 * first
    for _ in range(boot):
        level, slope = (
            euler_explicit * level / euler_implicit,
            (euler_explicit * slope + tau * level) / euler_implicit)
    before, slope_before = first, 0.0 * first
    for _ in range(setup.time_grid.n_steps - 1):
        before, level, slope_before, slope = (
            level, (explicit * level + sign * before) / implicit, slope,
            (explicit * slope + 2.0 * dt * level + sign * slope_before)
            / implicit)
    return level, slope


@settings(max_examples=40, deadline=None, derandomize=True)
@given(problem=small_problems(), n_steps=st.sampled_from(STEP_COUNTS))
def test_powers_equal_the_march_and_the_adjoint(problem, n_steps):
    rates, rng = problem.rates, problem.rng
    setup = problem_setup(problem, n_steps)
    grid = setup.grid
    fwd = run_forward(rates, setup)
    samples = samples_above(fwd.terminal, grid, rng)
    value, terminal = objective(rates, setup, samples)
    # the gradient's terminal level is the objective's, bit for bit
    assert np.array_equal(
        solve_terminal(setup.f0_hat, rates, setup.basis, setup.cc,
                       setup.time_grid, boot_substeps=setup.boot_substeps,
                       force=True, derivative=True)[0], terminal)

    # eps per term of the longest sum: the steps, then the irfft's modes
    terms = setup.boot_substeps + n_steps + grid.n
    density_error = (terms * EPS * 2.0
                     * march_by_modes(setup, rates, True)[0].sum() / grid.n)
    assert np.all(np.abs(terminal - fwd.terminal) <= density_error)

    # J moves by sum_i |dJ/df_i| |df_i| and by the rounding of its logs
    data = terminal_condition(fwd.terminal, samples, eps=setup.eps)
    counted = samples.cell_counts > 0
    logs = samples.cell_counts[counted] @ np.abs(np.log(fwd.terminal[counted]))
    j_error = (np.abs(data).sum() * density_error
               + grid.n * EPS * logs / len(samples))
    j_march = evaluate_objective(fwd.terminal, samples, setup.eps).value
    assert abs(value.value - j_march) <= j_error

    # the gradient: the assembly's roundoff, and the relative change of
    # the terminal data that the density's error makes
    adj = solve_adjoint(data, rates, setup.basis, setup.cc, setup.time_grid,
                        boot_substeps=setup.boot_substeps)
    data_change = density_error / fwd.terminal[counted].min()
    g_error = (terms * EPS + data_change) * assembly_bound(fwd, adj,
                                                           setup.basis)
    assert np.all(np.abs(reduced_gradient(rates, setup, samples)
                         - gradient_from_histories(fwd, adj, setup.basis))
                  <= g_error)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS,
                    reason="long double is double on this platform")
@settings(max_examples=40, deadline=None, derandomize=True)
@given(problem=small_problems(), n_steps=st.sampled_from(STEP_COUNTS))
def test_powers_carry_long_double_roundoff(problem, n_steps):
    """Squaring doubles the relative error of what it squares, so powers
    taken in double would lose about N_T*eps; taken in long double, they
    lose that in long-double eps.  Against the march run in long double
    from the same symbols, the powers are within the rounding of their
    result to double, at every N_T."""
    rates = problem.rates
    setup = problem_setup(problem, n_steps)
    n = setup.grid.n
    terminal, slope = solve_terminal(
        setup.f0_hat, rates, setup.basis, setup.cc, setup.time_grid,
        boot_substeps=setup.boot_substeps, force=True, derivative=True)
    level, level_slope = march_by_modes(setup, rates)
    size, size_slope = march_by_modes(setup, rates, magnitude=True)
    # a few long-double eps per term, over the substeps and the steps
    growth = 8 * (setup.boot_substeps + n_steps) * EPS_LONG
    assert np.all(np.abs(slope - level_slope)
                  <= EPS * np.abs(level_slope) + growth * size_slope)
    # in real space the irfft, which the march shares, adds n eps per mode
    density_error = 2.0 / n * np.sum((n + 1) * EPS * np.abs(level)
                                     + growth * size)
    assert np.all(np.abs(terminal - np.fft.irfft(level, n=n))
                  <= density_error)


def test_basis_symbols_are_the_kernel_symbol():
    """`basis_symbols` holds the jump symbol per unit rate, which the
    gradient projects onto; summed with the rates it is the symbol that
    the march and the powers step with."""
    rng = np.random.default_rng(5)
    for n, n_theta in ((16, 3), (33, 4), (64, 6)):
        grid = TorusGrid(0.0, 2 * np.pi, n)
        basis = make_basis(tiling_centers(n_theta, grid), grid)
        rates = rng.uniform(0.0, 5.0, n_theta)
        magnitude = 2.0 * grid.h * np.sum(rates @ np.abs(basis.samples))
        assert np.all(
            np.abs(rates @ basis_symbols(basis)
                   - JumpKernel.from_rates(rates, basis).symbol)
            <= (n_theta + n) * EPS * magnitude)


def refusal(solve, *args, **kwargs):
    """The StabilityError text of a refused call, or None.  A forced step
    far above the bounds may overflow into a SolverError: not a refusal."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            solve(*args, **kwargs)
    except StabilityError as exc:
        return str(exc)
    except SolverError:
        pass
    return None


@settings(max_examples=30, deadline=None, derandomize=True)
@given(problem=small_problems())
def test_both_paths_refuse_the_same_steps(problem):
    """Rates scaled from far below to far above the scale s at which the
    tighter step bound meets dt, and across s by one part in 1e12: the
    march and the powers refuse the same trials with the same text, and
    neither refuses with force."""
    cc, basis, rates, tg, boot, rng = problem
    if not rates.any():
        rates = np.ones_like(rates)
    f0 = random_density(rng, cc.grid)
    dt, xi = tg.dt, 2.0
    total = JumpKernel.from_rates(rates, basis).total_rate
    bdf2 = ((xi - 1.0) * (3.0 - xi) / dt - 2.0 * cc.damping) / (2 * xi * total)
    euler = boot / (dt * total)
    edge = min(bdf2, euler)
    scales = [1e-3, 0.5, 1 - 1e-12, 1.0, 1 + 1e-12, 2.0, 1e3]
    outcomes = []
    for scale in scales:
        point = rates * (scale * edge if edge > 0 else scale)
        for force in (False, True):
            march = refusal(solve_forward, f0, point, basis, cc, tg,
                            boot_substeps=boot, force=force)
            powers = refusal(solve_terminal, np.fft.rfft(f0), point, basis,
                             cc, tg, boot_substeps=boot, force=force)
            assert march == powers
            if force:
                assert march is None
            else:
                outcomes.append(march)
    assert outcomes[-1] is not None
    if edge > 0:
        assert outcomes[0] is None
        kernel = JumpKernel.from_rates(rates * (2.0 * edge), basis)
        assert f"{stability_bounds(cc, kernel).dt_bdf2:.4e}" in outcomes[-2]
