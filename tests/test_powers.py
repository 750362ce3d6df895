"""The companion-matrix power path against the march and the adjoint.

`objective` and `reduced_gradient` reach the terminal level by binary
powers of each mode's companion matrix (`forward.solve_terminal`).
The march (`solve_forward`) and the transposed sweep (`solve_adjoint`,
paired by `gradient_from_histories`) compute the same discrete quantities
level by level.  The two routes add in different orders, so they agree to
the roundoff of the terms they add, which is bounded from the absolute
values of those terms, not by a fixed tolerance.
"""

import copy
import re

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from conftest import (STEP_COUNTS, SmallProblem, assembly_bound,
                      march_setup, random_density, small_problems,
                      with_f0_spectrum)
from levyfit.adjoint import solve_adjoint, terminal_condition
from levyfit.config import RunConfig, calibration_setup
from levyfit.errors import SolverError, StabilityError
from levyfit.forward import (CCOperator, JumpKernel, bdf2_symbols,
                             euler_symbols, march_diagnostics, solve_forward,
                             solve_terminal, stability_bounds,
                             terminal_bounds)
from levyfit.likelihood import evaluate_objective
from levyfit.optimizer import (ALPHA0, gradient_from_histories, objective,
                               reduced_gradient, run_forward)
from levyfit.samples import SampleSet
from levyfit.torus import (ModelCoefficients, TimeGrid, TorusGrid, make_basis,
                           tiling_centers, von_mises_density)

EPS = np.finfo(float).eps
EPS_LONG = np.finfo(np.longdouble).eps
# the cut's exact counts read long double's eps: those pinned here are
# x87's (x86-64 Linux); tests/test_double_powers.py pins double's
X87 = EPS_LONG == 2.0**-63


def problem_setup(problem, n_steps, force=None):
    """The problem's march as a fit's setup, with N_T = n_steps and a
    random f0.  By default it is forced only if it refuses the problem's
    rates, as a small grid with a large dt does: a forced setup keeps
    every mode, and an unforced one only those that admitted rates need."""
    problem = problem._replace(
        time_grid=TimeGrid(problem.time_grid.t_final, n_steps))
    f0 = random_density(problem.rng, problem.cc.grid)
    if force is None:
        setup = march_setup(problem, f0)
        force = refusal(solve_terminal, setup, problem.rates) is not None
        if not force:
            return setup
    return march_setup(problem, f0, force)


def drift_free_problem(n, sigma2, rates, t_final, boot_substeps=1, seed=0):
    """A problem of `small_problems`' kind, given: n cells, no drift, hats
    tiling the torus at the given rates."""
    grid = TorusGrid(0.0, 2 * np.pi, n)
    return SmallProblem(
        cc=CCOperator(grid, ModelCoefficients(0.0, sigma2)),
        basis=make_basis(tiling_centers(len(rates), grid), grid),
        rates=np.array(rates, dtype=float), time_grid=TimeGrid(t_final, 2),
        boot_substeps=boot_substeps, rng=np.random.default_rng(seed))


HAT_RATES = [2.5, 2.0, 1.0, 0.5, 0.3]
CUT_STEPS = 256


def cut_problem():
    """N = 128 with sigma^2 = 0.2, 5 hats and 10 substeps, where over
    CUT_STEPS steps diffusion damps most modes below `solve_terminal`'s
    cut, as it does at the fine benchmark's N = 840 and N_T = 800, at a
    tenth of the cost.  `small_problems` (8..20 nodes) never reaches it."""
    return drift_free_problem(128, 0.2, HAT_RATES, 1.0, 10, 128)


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
@example(problem=cut_problem(), n_steps=CUT_STEPS)
def test_powers_equal_the_march_and_the_adjoint(problem, n_steps):
    rates, rng = problem.rates, problem.rng
    setup = problem_setup(problem, n_steps)
    grid = setup.grid
    fwd = run_forward(rates, setup)
    samples = samples_above(fwd.terminal, grid, rng)
    value, powers = objective(rates, setup, samples)
    terminal = powers.density
    # a solve at the objective's point has its terminal level, bit for bit
    assert np.array_equal(solve_terminal(setup, rates).density, terminal)

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
@example(problem=cut_problem(), n_steps=CUT_STEPS)
def test_powers_carry_long_double_roundoff(problem, n_steps):
    """Squaring doubles the relative error of what it squares, so powers
    taken in double would lose about N_T*eps; taken in long double, they
    lose that in long-double eps.  Against the march run in long double
    from the same symbols, the powers are within the rounding of their
    result to double, at every N_T."""
    assert_long_double_roundoff(problem_setup(problem, n_steps),
                                problem.rates)


def assert_long_double_roundoff(setup, rates):
    """The powers' derivative spectrum and density against the march run in
    long double, within a few long-double eps per term added."""
    n = setup.grid.n
    powers = solve_terminal(setup, rates)
    terminal, slope = powers.density, np.zeros(len(setup.f0_hat), complex)
    slope[:setup.modes] = powers.derivative()
    level, level_slope = march_by_modes(setup, rates)
    size, size_slope = march_by_modes(setup, rates, magnitude=True)
    # a few long-double eps per term, over the substeps and the steps
    growth = 8 * (setup.boot_substeps + setup.time_grid.n_steps) * EPS_LONG
    assert np.all(np.abs(slope - level_slope)
                  <= EPS * np.abs(level_slope) + growth * size_slope)
    # in real space the irfft, which the march shares, adds n eps per mode
    density_error = 2.0 / n * np.sum((n + 1) * EPS * np.abs(level)
                                     + growth * size)
    assert np.all(np.abs(terminal - np.fft.irfft(level, n=n))
                  <= density_error)
    return powers


@settings(max_examples=30, deadline=None, derandomize=True)
@given(problem=small_problems(), n_steps=st.sampled_from(STEP_COUNTS))
@example(problem=cut_problem(), n_steps=CUT_STEPS)
def test_the_gradient_reads_the_objectives_powers(problem, n_steps):
    """The gradient from the powers that `objective` returns has the bytes
    of the gradient that solves again; the powers are read-only and their
    derivative does not change them; powers of other rates, or of another
    setup, even an equal copy, are refused."""
    rates = problem.rates
    setup = problem_setup(problem, n_steps)
    samples = samples_above(run_forward(rates, setup).terminal, setup.grid,
                            problem.rng)
    _, powers = objective(rates, setup, samples)
    assert (reduced_gradient(rates, setup, samples, powers=powers).tobytes()
            == reduced_gradient(rates, setup, samples).tobytes())
    assert powers.derivative().tobytes() == powers.derivative().tobytes()
    assert not (powers.density.flags.writeable or powers.rates.flags.writeable)
    assert powers.rates is not rates and np.array_equal(powers.rates, rates)
    with pytest.raises(ValueError, match="another setup or rates"):
        reduced_gradient(rates + 0.5, setup, samples, powers=powers)
    with pytest.raises(ValueError, match="another setup or rates"):
        reduced_gradient(rates, copy.copy(setup), samples, powers=powers)


# on 16 cells with sigma^2 = 1, mode 2 has a = -(1 - cos(pi/4))/h^2; at
# dt = -1/(2a) its companion matrix is [[1, -1/4], [1, 0]], whose double
# root 1/2 makes |u_n| = n/2^(n-1), the bound itself
DOUBLE_ROOT_DT = (2 * np.pi / 16) ** 2 / (2 * (1 - np.cos(np.pi / 4)))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS,
                    reason="long double is double on this platform")
@pytest.mark.parametrize("n_steps", [65, 128])
def test_powers_at_a_double_root(n_steps):
    """With q = 0, t = 4/c and Q = 1/c, so the discriminant t^2 - 4Q is 0
    at c = 4, 2dt*a = -1: at DOUBLE_ROOT_DT mode 2 has it to roundoff.
    The mode is kept, and the powers' value and derivative there are
    within the bounds of `test_powers_carry_long_double_roundoff`, which
    a derivative that divides by the discriminant is not."""
    problem = drift_free_problem(16, 1.0, [0.0] * 3, n_steps * DOUBLE_ROOT_DT)
    setup = problem_setup(problem, n_steps)
    c = setup.long_symbols[1, 2]
    assert abs((4.0 / c) ** 2 - 4.0 / c) <= 4 * EPS
    powers = assert_long_double_roundoff(setup, problem.rates)
    assert setup.modes > 2 and powers.derivative()[2] != 0.0


# at this dt, mode 5 of 16 cells with sigma^2 = 1 has 2dt*a = -1, a double
# root at q = 0 where the two-step bound still admits rates: the jumps of
# one of 16 hats, on a single cell shift, put q_5 on the disk's boundary,
# where a complex q splits the root and the larger one exceeds it
SPLIT_ROOT_DT = (2 * np.pi / 16) ** 2 / (2 * (1 - np.cos(5 * np.pi / 8)))


def ceilings(setup):
    """The largest total jump rate that each step bound admits at the
    setup: the two-step bound's and the Euler substeps'."""
    dt, xi = setup.time_grid.dt, setup.xi
    return (((xi - 1.0) * (3.0 - xi) / dt - 2.0 * setup.cc.damping)
            / (2.0 * xi), setup.boot_substeps / dt)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(problem=small_problems(), n_steps=st.sampled_from(STEP_COUNTS),
       share=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
@example(problem=drift_free_problem(16, 1.0, np.eye(16)[7],
                                   128 * SPLIT_ROOT_DT),
         n_steps=128, share=1.0)
@example(problem=cut_problem(), n_steps=CUT_STEPS, share=1.0)
@example(problem=cut_problem(), n_steps=CUT_STEPS, share=0.0)
def test_terminal_bounds_hold(problem, n_steps, share):
    """At every mode, kept or dropped, `terminal_bounds` is at least
    |F^{N_T}| and |dF^{N_T}/dq|/t_final of the march run in long double,
    over mode 0 of F^0, at the problem's rates scaled to `share` of the
    largest total rate the step bounds admit: the two-step bound's, which
    is admitted, not the Euler substeps', which lies above it and is
    refused.  The first example splits a double root, where the bound
    taken at q = 0 falls 2e4-fold short; the others take the cut's shape at
    the ceiling and at zero rates."""
    setup = problem_setup(problem, n_steps, force=False)
    rates = problem.rates
    total = JumpKernel.from_rates(rates, setup.basis).total_rate
    if not total > 1e-6:    # no direction to scale, or one that overflows
        rates = np.ones_like(rates)
        total = JumpKernel.from_rates(rates, setup.basis).total_rate
    bdf2, euler = ceilings(setup)
    assert refusal(solve_terminal, setup, rates * (euler / total)) is not None
    if bdf2 < 0.0:
        reject()
    rates = rates * (share * bdf2 / total)
    if refusal(solve_terminal, setup, rates) is not None:
        rates = rates * (1.0 - 8 * EPS)     # the ceiling, to its rounding
    solve_terminal(setup, rates)    # admitted
    mass = abs(setup.f0_hat[0])
    size, change = terminal_bounds(setup)
    level, slope = march_by_modes(setup, rates)
    assert np.all(size >= np.abs(level) / mass)
    assert np.all(change >= np.abs(slope) / (mass * setup.time_grid.t_final))


def test_no_admissible_rate_keeps_every_mode():
    """At N = 840, N_T = 250 the two-step bound admits no total rate: the
    setup keeps every mode, and every route refuses the fit's start point
    with one text, as for any rates."""
    setup = calibration_setup(RunConfig(n_space=840, n_time=250),
                              len(HAT_RATES))
    assert ceilings(setup)[0] < 0.0
    assert setup.modes == len(setup.f0_hat) == 421
    assert np.isinf(terminal_bounds(setup)).all()
    assert_same_refusal(setup, np.full(len(HAT_RATES), ALPHA0),
                        f"rate_ceiling = {ceilings(setup)[0]:.4e}")


def test_force_keeps_every_mode():
    """The bound holds for admitted rates only, so a forced setup keeps
    every mode, where the unforced one at fine_grid's shape keeps fewer
    (92 with x87's eps, `test_the_cut_keeps_the_benchmark_modes`)."""
    forced, setup = (calibration_setup(
        RunConfig(n_space=840, n_time=800, force_dt=force), len(HAT_RATES))
        for force in (True, False))
    assert forced.modes == len(forced.f0_hat) == 421 > setup.modes
    assert forced.two_q_powers.shape == (9, 421)
    assert np.isinf(terminal_bounds(forced)).all()
    assert len(solve_terminal(forced, HAT_RATES).derivative()) == 421


@pytest.mark.parametrize("problem, n_steps", [
    (cut_problem(), CUT_STEPS),
    (drift_free_problem(840, 0.02, HAT_RATES, 1.0, 10, 840), 800)])
def test_the_cut_drops_most_modes(problem, n_steps):
    """On `cut_problem`, the shape of the `@example`s above, and on the
    fine benchmark's shape, the powers take fewer than half the modes, and
    their derivative is over those alone: the rest are exact zeros."""
    setup = problem_setup(problem, n_steps, force=False)
    slope = solve_terminal(setup, HAT_RATES).derivative()
    assert 0 < len(slope) == setup.modes < len(setup.f0_hat) / 2
    assert slope[-1] != 0.0


@pytest.mark.skipif(not X87, reason="the counts of x87 long double")
@pytest.mark.parametrize("n_space, n_time, kept, modes, floor", [
    pytest.param(420, 250, 94, 211, 1e-12, id="420-250"),
    pytest.param(840, 800, 92, 421, 1e-12, id="840-800"),
    pytest.param(420, 250, 86, 211, 1e-6, id="420-250-floor1e-6"),
    pytest.param(840, 800, 84, 421, 1e-6, id="840-800-floor1e-6"),
    pytest.param(420, 250, 133, 211, 1e-24, id="420-250-floor1e-24"),
    pytest.param(840, 800, 105, 421, 1e-24, id="840-800-floor1e-24")])
def test_the_cut_keeps_the_benchmark_modes(n_space, n_time, kept, modes,
                                           floor):
    """At the default config's full-sweep and fine-grid shapes and 5 hats,
    the setup keeps exactly the modes over which the benchmark fits take
    their powers, whatever their rates: a looser bound would keep more, a
    wrong one fewer.  The cut reads the setup's objective floor, which
    weights what it drops: a higher floor drops more modes, a lower one
    keeps more.  The counts are those of x87 long double's eps."""
    config = RunConfig(n_space=n_space, n_time=n_time, objective_floor=floor)
    setup = calibration_setup(config, len(HAT_RATES))
    assert (setup.modes, len(setup.f0_hat)) == (kept, modes)
    slope = solve_terminal(setup, HAT_RATES).derivative()
    assert len(slope) == kept and slope[-1] != 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("mode", [-1, -2])
def test_a_non_finite_mode_past_the_cut_is_refused(bad, mode):
    """A NaN or an inf in f0_hat, at the last mode (which decides whether
    the cut is tried) or the one before, both of which the cut would drop
    were they finite, keeps its mode and still raises.  No density has
    such a spectrum, so it is put into a copy of the setup."""
    setup = problem_setup(cut_problem(), CUT_STEPS, force=False)
    f0_hat = setup.f0_hat.copy()
    f0_hat[mode] = bad
    assert setup.modes <= len(f0_hat) + mode
    setup = with_f0_spectrum(setup, f0_hat)
    assert setup.modes == len(f0_hat) + mode + 1
    # the value raises, so there are no powers to take a derivative from
    with pytest.raises(SolverError), np.errstate(over="ignore",
                                                 invalid="ignore"):
        solve_terminal(setup, HAT_RATES)


def test_basis_symbols_are_the_kernel_symbol():
    """The basis' jump symbols, summed with the rates, are the rfft symbol
    of the kernel's weights, rfft(weights) - total_rate, to roundoff: the
    one symbol that the march, the powers and the gradient use."""
    rng = np.random.default_rng(5)
    for n, n_theta in ((16, 3), (33, 4), (64, 6)):
        grid = TorusGrid(0.0, 2 * np.pi, n)
        basis = make_basis(tiling_centers(n_theta, grid), grid)
        rates = rng.uniform(0.0, 5.0, n_theta)
        kernel = JumpKernel.from_rates(rates, basis)
        magnitude = 2.0 * grid.h * np.sum(rates @ np.abs(basis.samples))
        assert np.all(
            np.abs(rates @ basis.jump_symbols
                   - (np.fft.rfft(kernel.weights) - kernel.total_rate))
            <= (n_theta + n) * EPS * magnitude)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(problem=small_problems())
def test_the_kernel_symbol_is_the_basis_symbols_at_the_rates(problem):
    """`JumpKernel.from_rates` takes its symbol from the basis' rows bit for
    bit, and those rows, kept once per basis, move no mass at mode 0."""
    basis, rates = problem.basis, problem.rates
    symbols = basis.jump_symbols
    assert symbols is basis.jump_symbols and not symbols.flags.writeable
    assert symbols.shape == (basis.n_theta, basis.grid.n // 2 + 1)
    assert np.all(symbols[:, 0] == 0.0)
    assert np.array_equal(JumpKernel.from_rates(rates, basis).symbol,
                          rates @ symbols)


@pytest.mark.parametrize("n", [33, 64])
def test_gradient_is_the_weighted_pairing(n):
    """reduced_gradient, bit for bit, against the pairing over the kept
    modes weighted 1 at mode 0 and Nyquist and 2 elsewhere, at an odd and
    an even N, with the modes the rates need and, forced, with all."""
    problem = drift_free_problem(n, 0.1, HAT_RATES, 1.0, 3, n)
    rates = problem.rates
    for setup in (problem_setup(problem, 40),
                  problem_setup(problem, 40, force=True)):
        samples = samples_above(run_forward(rates, setup).terminal,
                                setup.grid, problem.rng)
        powers = solve_terminal(setup, rates)
        terminal, slope = powers.density, powers.derivative()
        data = np.fft.rfft(terminal_condition(terminal, samples,
                                              eps=setup.eps))[:len(slope)]
        weights = np.where(2 * np.arange(len(data)) % n == 0, 1.0, 2.0)
        pairs = weights * np.conj(data) * slope
        symbols = setup.basis.jump_symbols[:, :len(slope)]
        assert np.array_equal(reduced_gradient(rates, setup, samples),
                              (symbols @ pairs).real / n)


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


def same_refusal(setup, rates):
    """The one StabilityError text with which the march, the streamed march
    and the powers refuse `rates`, or None if all admit them."""
    march = refusal(solve_forward, setup, rates)
    assert (refusal(march_diagnostics, setup, rates)
            == refusal(solve_terminal, setup, rates) == march)
    return march


@settings(max_examples=30, deadline=None, derandomize=True)
@given(problem=small_problems())
def test_both_paths_refuse_the_same_steps(problem):
    """Rates scaled from far below to far above the scale s at which the
    two-step bound meets dt, and across s by one part in 1e12: the
    march, the streamed march and the powers refuse the same trials with
    the same text, which names the setup's `rate_ceiling`, and none
    refuses with force.  The ceiling is the two-step bound's (`ceilings`),
    and it is the edge to the rounding of the total rate: at 4 eps below
    it the routes admit, at 4 eps above they refuse, and so does a setup
    of another basis that `with_basis` gives, as one built on that basis."""
    cc, basis, rates, _, _, rng = problem
    # no direction to scale, or one that overflows
    if not JumpKernel.from_rates(rates, basis).total_rate > 1e-6:
        rates = np.ones_like(rates)
    f0 = random_density(rng, cc.grid)
    setups = [march_setup(problem, f0, force) for force in (False, True)]
    bdf2 = ceilings(setups[0])[0]
    assert setups[0].rate_ceiling == pytest.approx(bdf2, rel=1e-15, abs=0.0)
    edge = bdf2 / JumpKernel.from_rates(rates, basis).total_rate
    scales = [1e-3, 0.5, 1 - 1e-12, 1.0, 1 + 1e-12, 2.0, 1e3]
    outcomes = []
    for scale in scales:
        point = rates * (scale * edge if edge > 0 else scale)
        outcomes.append(same_refusal(setups[0], point))
        assert same_refusal(setups[1], point) is None
    assert outcomes[-1] is not None
    assert f"rate_ceiling = {bdf2:.4e}" in outcomes[-2]
    if edge > 0:
        assert outcomes[0] is None
        other = make_basis(tiling_centers(len(rates) + 1, cc.grid), cc.grid)
        ones = np.ones(other.n_theta)
        for setup, point in (
                (setups[0], rates), (setups[0].with_basis(other), ones),
                (march_setup(problem._replace(basis=other), f0), ones)):
            total = JumpKernel.from_rates(point, setup.basis).total_rate
            below, above = (point * (bdf2 * (1.0 + side * 4 * EPS) / total)
                            for side in (-1, 1))
            assert same_refusal(setup, below) is None
            assert same_refusal(setup, above) is not None


def assert_same_refusal(setup, rates, clause):
    """The march, the streamed march and the powers raise one
    StabilityError text, which names `clause`."""
    texts = set()
    for solve in (solve_forward, march_diagnostics, solve_terminal):
        with pytest.raises(StabilityError, match=re.escape(clause)) as refused:
            solve(setup, rates)
        texts.add(str(refused.value))
    assert len(texts) == 1
    return texts.pop()


def test_both_paths_refuse_a_negative_total_rate():
    """A small negative total rate a passes the two-step bound, and lies
    below the setup's `rate_ceiling`, but not the Euler one,
    dt_euler_positive = 1/a < 0.  It needs a negative weight, so the
    march, the streamed march and the powers refuse it with one text,
    which names the weight clause and no step bound."""
    grid = TorusGrid(0.0, 2 * np.pi, 16)
    cc = CCOperator(grid, ModelCoefficients(0.3, 0.2))
    basis = make_basis(tiling_centers(3, grid), grid)
    rates, tg = np.array([-1e-3, 0.0, 0.0]), TimeGrid(1.0, 40)
    kernel = JumpKernel.from_rates(rates, basis)
    bounds = stability_bounds(cc, kernel)
    assert tg.dt <= bounds.dt_bdf2 and bounds.dt_euler_positive < 0.0
    f0 = random_density(np.random.default_rng(16), grid)
    setup = march_setup(SmallProblem(cc, basis, rates, tg), f0)
    assert kernel.total_rate < 0.0 < setup.rate_ceiling
    text = assert_same_refusal(setup, rates, "jump weights >= 0, smallest -")
    assert "dt =" not in text and "rate_ceiling" not in text


@pytest.mark.parametrize("rates", [[-0.5, 1.0, 1.0], [-2.0, 1.0, 1.5]])
def test_both_paths_refuse_a_negative_weight(rates):
    """A negative rate whose total stays positive passes both step bounds,
    but gives the kernel negative weights, for which the positivity proof
    does not hold: the march, the streamed march and the powers refuse it
    with the same text, and with force the march runs and goes negative."""
    grid = TorusGrid(-np.pi, np.pi, 64)
    cc = CCOperator(grid, ModelCoefficients(0.0, 0.02))
    basis = make_basis(tiling_centers(3, grid), grid)
    rates, tg = np.array(rates), TimeGrid(1.0, 100)
    kernel = JumpKernel.from_rates(rates, basis)
    bounds = stability_bounds(cc, kernel)
    assert kernel.total_rate > 0.0 and kernel.weights.min() < 0.0
    assert tg.dt <= min(bounds.dt_bdf2, 10 * bounds.dt_euler_positive)
    f0 = von_mises_density(grid, 0.0, 400.0)
    problem = SmallProblem(cc, basis, rates, tg)
    assert_same_refusal(march_setup(problem, f0), rates,
                        "weights >= 0, smallest -")
    forced = march_setup(problem, f0, force=True)
    low = march_diagnostics(forced, rates)["min_density"]
    assert low == solve_forward(forced, rates).values.min() < 0.0
    assert np.isfinite(solve_terminal(forced, rates).density).all()
