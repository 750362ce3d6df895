import math
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (SmallProblem, brute_jump_apply, dense_cc_matrix,
                      dense_forward_march, march_setup, random_density)
from levyfit.errors import StabilityError
from levyfit.forward import (CCOperator, JumpKernel, apply_jump_operator,
                             bdf2_step, euler_step, march_diagnostics,
                             solve_forward, stability_bounds)
from levyfit.torus import (ModelCoefficients, TimeGrid, TorusGrid, band_centers,
                           make_basis, tiling_centers, von_mises_density)


FIFTY_DIGITS = Context(prec=50)


def reference_delta(w):
    """High-precision 1/w - 1/(e^w - 1)."""
    with localcontext(FIFTY_DIGITS):
        w = Decimal(float(w))
        return float(1 / w - 1 / (w.exp() - 1))


def reference_bands(cc):
    """(beta, beta_omega) in 50 digits: B/(e^w - 1) and B/(1 - e^-w), which
    equal C/h - delta*B and C/h + (1 - delta)*B."""
    with localcontext(FIFTY_DIGITS):
        h, b, c = (Decimal(float(x)) for x in (cc.grid.h, cc.coeffs.adv,
                                               cc.coeffs.diff))
        w = h * b / c
        return float(b / (w.exp() - 1)), float(b / (1 - (-w).exp()))


def peclet(cc):
    """The cell Peclet number w = h*B/C, as the operator forms it."""
    return cc.grid.h * cc.coeffs.adv / cc.coeffs.diff


def operator_at(w):
    """A 64-cell operator with C = 0.02 whose cell Peclet number is w."""
    grid = TorusGrid(-np.pi, np.pi, 64)
    return CCOperator(grid, ModelCoefficients(-w * 0.02 / grid.h, 0.04))


class TestCCDelta:
    """The Chang-Cooper weight delta(w) = 1/w - 1/(e^w - 1) as the bands
    carry it: beta = C/h - delta*B and beta_omega = C/h + (1 - delta)*B."""

    def test_zero_drift_limit(self):
        # delta -> 1/2: the bands leave C/h by -B/2 and +B/2
        for w in (1e-8, -1e-8):
            cc = operator_at(w)
            c_over_h = cc.coeffs.diff / cc.grid.h
            half = 0.5 * cc.coeffs.adv
            assert cc.beta == pytest.approx(c_over_h - half, rel=1e-15)
            assert cc.beta_omega == pytest.approx(c_over_h + half, rel=1e-15)

    def test_value_at_one(self):
        cc = operator_at(1.0)
        delta = (cc.coeffs.diff / cc.grid.h - cc.beta) / cc.coeffs.adv
        assert delta == pytest.approx(reference_delta(peclet(cc)), rel=1e-13)
        assert delta == pytest.approx(0.4180233, abs=5e-8)

    @pytest.mark.parametrize("w", [1e-6, -1e-6, 1e-5, 3e-5, 1e-4, 2e-4, 1e-3,
                                   0.01, 0.1, -0.1, 1.0, -3.0, 10.0, -30.0])
    def test_matches_high_precision(self, w):
        # both sides of the series switch at |w| = 1e-4
        cc = operator_at(w)
        beta, beta_omega = reference_bands(cc)
        assert cc.beta == pytest.approx(beta, rel=1e-12)
        assert cc.beta_omega == pytest.approx(beta_omega, rel=1e-12)

    def test_monotone_decreasing_between_limits(self):
        # 0 < delta < 1/w keeps both bands positive (an M-matrix); at fixed
        # C/h, beta = (C/h)*w/(e^w - 1) falls with w and beta_omega rises
        ops = [operator_at(w) for w in np.linspace(-40, 40, 401)]
        beta = np.array([cc.beta for cc in ops])
        beta_omega = np.array([cc.beta_omega for cc in ops])
        assert np.all(beta > 0) and np.all(beta_omega > 0)
        assert np.all(np.diff(beta) < 0) and np.all(np.diff(beta_omega) > 0)
        # pure upwinding in the limits: delta -> 0 (w -> +inf), 1 (-inf)
        far, near = operator_at(500.0), operator_at(-500.0)
        assert far.beta < 1e-2 * abs(far.coeffs.adv)
        assert near.beta_omega < 1e-2 * abs(near.coeffs.adv)


class TestCCOperator:
    @pytest.mark.parametrize("drift,sigma2,n", [(0.5, 0.02, 64), (-1.2, 0.1, 50),
                                                (0.0123, 0.4, 200), (2.0, 0.05, 32),
                                                (1e-6, 0.02, 64), (-3e-6, 0.1, 50)])
    def test_beta_forms_agree(self, drift, sigma2, n):
        # the last two have |w| < 1e-4, where beta comes from its series
        cc = CCOperator(TorusGrid(-np.pi, np.pi, n),
                        ModelCoefficients(drift, sigma2))
        c_over_h = cc.coeffs.diff / cc.grid.h
        flux_form = c_over_h - reference_delta(peclet(cc)) * cc.coeffs.adv
        expm1_form, _ = reference_bands(cc)
        assert abs(flux_form - expm1_form) <= 1e-12 * c_over_h
        assert cc.beta == pytest.approx(expm1_form, rel=1e-12)

    @pytest.mark.parametrize("drift", [1e6, -1e6])
    def test_strong_drift_saturates_instead_of_overflowing(self, drift):
        # |w| far beyond the overflow point of exp: the upwind band takes
        # the whole advection and the other band vanishes
        cc = CCOperator(TorusGrid(-np.pi, np.pi, 64),
                        ModelCoefficients(drift, 0.02))
        assert abs(peclet(cc)) > 1e3
        upwind, other = ((cc.beta, cc.beta_omega) if drift > 0
                         else (cc.beta_omega, cc.beta))
        assert upwind == pytest.approx(abs(cc.coeffs.adv))
        assert other == 0.0

    def test_zero_drift_limit_of_beta(self):
        cc = CCOperator(TorusGrid(-np.pi, np.pi, 64), ModelCoefficients(0.0, 0.02))
        assert cc.beta == pytest.approx(cc.coeffs.diff / cc.grid.h, rel=1e-14)
        assert cc.beta_omega == pytest.approx(cc.beta, rel=1e-14)

    def test_column_and_row_sums_vanish(self, rng):
        cc = CCOperator(TorusGrid(-np.pi, np.pi, 48), ModelCoefficients(0.8, 0.07))
        a = dense_cc_matrix(cc)
        scale = np.abs(a).max()
        assert np.abs(a.sum(axis=0)).max() < 1e-13 * scale
        assert np.abs(a.sum(axis=1)).max() < 1e-13 * scale

    def test_apply_matches_dense(self, rng):
        # (shift*I - scale*A) @ f through its Fourier symbol
        grid = TorusGrid(-np.pi, np.pi, 32)
        cc = CCOperator(grid, ModelCoefficients(-0.4, 0.09))
        f = rng.normal(size=32)
        shift, scale = 3.0, 0.02
        symbol = cc.system_solver(shift, scale).symbol
        applied = np.fft.irfft(symbol * np.fft.rfft(f), n=32)
        dense = shift * np.eye(32) - scale * dense_cc_matrix(cc)
        assert np.allclose(applied, dense @ f, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("drift,sigma2,n", [(0.5, 0.02, 64),
                                                (-3e-6, 0.1, 51),
                                                (1e6, 0.02, 64)])
    def test_symbol_is_built_once_read_only_and_moves_no_mass(self, drift,
                                                               sigma2, n):
        # the eigenvalues of the dense matrix: fft of its first column
        cc = CCOperator(TorusGrid(-np.pi, np.pi, n),
                        ModelCoefficients(drift, sigma2))
        symbol = cc.symbol
        assert cc.symbol is symbol and not symbol.flags.writeable
        assert symbol[0] == 0.0
        eigen = np.fft.fft(dense_cc_matrix(cc)[:, 0])[:n // 2 + 1]
        assert np.allclose(symbol, eigen, rtol=0, atol=1e-13 * cc.damping)

    def test_damping_coth_identity(self, rng):
        for _ in range(20):
            n = int(rng.integers(8, 200))
            drift = float(rng.uniform(-3, 3)) or 0.5
            sigma2 = float(rng.uniform(0.01, 1.0))
            cc = CCOperator(TorusGrid(-np.pi, np.pi, n),
                            ModelCoefficients(drift, sigma2))
            # closed form B*coth(h*B/(2C))/h of (beta + beta_omega)/h
            coth_form = cc.coeffs.adv / math.tanh(peclet(cc) / 2.0) / cc.grid.h
            assert cc.damping == pytest.approx(coth_form, rel=1e-12)


@pytest.fixture
def small_setup():
    grid = TorusGrid(-np.pi, np.pi, 8)
    basis = make_basis(band_centers(2, -1.5, 1.5), grid)
    return grid, basis


class TestJumpOperator:
    def test_zero_rates(self, small_setup):
        grid, basis = small_setup
        kern = JumpKernel.from_rates([0.0, 0.0], basis)
        f = np.arange(8.0)
        assert np.array_equal(apply_jump_operator(f, kern), np.zeros(8))

    def test_uniform_density_is_annihilated(self, rng):
        grid = TorusGrid(-np.pi, np.pi, 40)
        basis = make_basis(band_centers(3), grid)
        kern = JumpKernel.from_rates(rng.uniform(0, 2, 3), basis)
        q = apply_jump_operator(np.full(40, 0.7), kern)
        assert np.abs(q).max() < 1e-13

    def test_brute_force_double_sum(self, small_setup, rng):
        grid, basis = small_setup
        rates = rng.uniform(0, 3, 2)
        kern = JumpKernel.from_rates(rates, basis)
        for _ in range(10):
            f = rng.uniform(0, 1, 8)
            fast = apply_jump_operator(f, kern)
            brute = brute_jump_apply(f, rates, basis, grid)
            assert np.allclose(fast, brute, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 16])
    def test_brute_force_all_small_grids(self, n, rng):
        grid = TorusGrid(-np.pi, np.pi, n)
        n_theta = int(rng.integers(2, min(n, 5)))
        basis = make_basis(tiling_centers(n_theta, grid), grid)
        rates = rng.uniform(0, 2, n_theta)
        kern = JumpKernel.from_rates(rates, basis)
        f = rng.uniform(0, 1, n)
        assert np.allclose(apply_jump_operator(f, kern),
                           brute_jump_apply(f, rates, basis, grid),
                           rtol=1e-12, atol=1e-13)

    def test_conserves_mass(self, rng):
        grid = TorusGrid(-np.pi, np.pi, 64)
        basis = make_basis(tiling_centers(5, grid), grid)
        kern = JumpKernel.from_rates(rng.uniform(0, 2, 5), basis)
        f = rng.uniform(0, 1, 64)
        assert abs(apply_jump_operator(f, kern).sum()) <= 1e-12 * np.abs(f).sum()

    def test_mass_moves_in_the_jump_direction(self):
        # point measure at +0.8: a density spike at 0 must drift to +0.8
        grid = TorusGrid(-np.pi, np.pi, 64)
        basis = make_basis([0.8, 1.0], grid)
        kern = JumpKernel.from_rates([4.0, 0.0], basis)
        spike = np.zeros(64)
        spike[np.argmin(np.abs(grid.points))] = 1.0 / grid.h
        gain = apply_jump_operator(spike, kern) + kern.total_rate * spike
        x_gain = grid.points[np.argmax(gain)]
        assert abs(x_gain - 0.8) < 2 * basis.delta


class TestSteps:
    def test_euler_matches_dense_solve(self, rng):
        grid = TorusGrid(-np.pi, np.pi, 6)
        cc = CCOperator(grid, ModelCoefficients(0.6, 0.3))
        basis = make_basis([-1.0, 0.0, 1.0], grid)
        rates = rng.uniform(0, 2, 3)
        kern = JumpKernel.from_rates(rates, basis)
        f = rng.uniform(0, 1, 6)
        dt = 0.99 / kern.total_rate
        out = euler_step(f, dt, cc, kern)
        a = dense_cc_matrix(cc)
        rhs = f + dt * brute_jump_apply(f, rates, basis, grid)
        expected = np.linalg.solve(np.eye(6) - dt * a, rhs)
        assert np.allclose(out, expected, rtol=1e-12, atol=1e-14)

    def test_euler_pure_diffusion_mass_and_fixed_point(self):
        grid = TorusGrid(-np.pi, np.pi, 64)
        cc = CCOperator(grid, ModelCoefficients(0.0, 0.04))
        basis = make_basis([0.0, 0.5], grid)
        kern = JumpKernel.from_rates([0.0, 0.0], basis)
        f0 = von_mises_density(grid, 0.0, 50.0)
        f1 = euler_step(f0, 0.01, cc, kern)
        assert grid.h * f1.sum() == pytest.approx(grid.h * f0.sum(), abs=1e-12)
        uniform = np.full(64, 1.0 / (2 * np.pi))
        assert np.allclose(euler_step(uniform, 0.01, cc, kern), uniform,
                           rtol=1e-12)

    def test_euler_refuses_unstable_step(self, small_setup):
        grid, basis = small_setup
        cc = CCOperator(grid, ModelCoefficients(0.0, 0.02))
        kern = JumpKernel.from_rates([2.0, 2.0], basis)
        f = np.full(8, 1.0)
        with pytest.raises(StabilityError):
            euler_step(f, 1.5 / kern.total_rate, cc, kern)

    def test_euler_refuses_negative_total_rate(self, small_setup):
        # its positivity bound 1/total_rate is negative, as in solve_forward
        grid, basis = small_setup
        cc = CCOperator(grid, ModelCoefficients(0.0, 0.02))
        kern = JumpKernel.from_rates([-1.0, 0.5], basis)
        assert kern.total_rate < 0
        with pytest.raises(StabilityError, match="positivity"):
            euler_step(np.full(8, 1.0), 1e-3, cc, kern)

    def test_steps_refuse_a_negative_weight(self):
        """A negative rate whose total stays positive passes the Euler
        bound, but gives the kernel negative weights: both steps refuse
        it, as the marches do."""
        grid = TorusGrid(-np.pi, np.pi, 64)
        cc = CCOperator(grid, ModelCoefficients(0.0, 0.02))
        basis = make_basis(tiling_centers(3, grid), grid)
        kern = JumpKernel.from_rates([-2.0, 1.0, 1.5], basis)
        assert 0.001 < stability_bounds(cc, kern).dt_euler_positive
        f0 = von_mises_density(grid, 0.0, 400.0)
        with pytest.raises(StabilityError, match="weights >= 0, smallest -"):
            euler_step(f0, 0.001, cc, kern)
        with pytest.raises(StabilityError, match="weights >= 0, smallest -"):
            bdf2_step(f0, f0, cc, kern, 0.001)

    def test_bdf2_uniform_fixed_point(self):
        grid = TorusGrid(-np.pi, np.pi, 32)
        cc = CCOperator(grid, ModelCoefficients(0.0, 0.02))
        basis = make_basis([0.0, 0.5], grid)
        kern = JumpKernel.from_rates([0.0, 0.0], basis)
        uniform = np.full(32, 1.0 / (2 * np.pi))
        out = bdf2_step(uniform, uniform, cc, kern, 0.01)
        assert np.allclose(out, uniform, rtol=1e-12)

    def test_bdf2_telescoping_sum_identity(self, rng):
        grid = TorusGrid(-np.pi, np.pi, 24)
        cc = CCOperator(grid, ModelCoefficients(0.9, 0.1))
        basis = make_basis(tiling_centers(4, grid), grid)
        kern = JumpKernel.from_rates(rng.uniform(0, 1.5, 4), basis)
        f_m = rng.uniform(0, 1, 24)
        f_m1 = rng.uniform(0, 1, 24)
        out = bdf2_step(f_m, f_m1, cc, kern, 0.002)
        assert 3 * out.sum() == pytest.approx(4 * f_m.sum() - f_m1.sum(),
                                              rel=1e-12)

    def test_bdf2_matches_dense_solve(self, rng):
        grid = TorusGrid(-np.pi, np.pi, 6)
        cc = CCOperator(grid, ModelCoefficients(-0.3, 0.2))
        basis = make_basis([-1.0, 0.0, 1.0], grid)
        rates = rng.uniform(0, 2, 3)
        kern = JumpKernel.from_rates(rates, basis)
        f_m = rng.uniform(0, 1, 6)
        f_m1 = rng.uniform(0, 1, 6)
        dt = 0.004
        out = bdf2_step(f_m, f_m1, cc, kern, dt)
        m = 3 * np.eye(6) - 2 * dt * dense_cc_matrix(cc)
        rhs = 4 * f_m - f_m1 + 2 * dt * brute_jump_apply(f_m, rates, basis, grid)
        assert np.allclose(out, np.linalg.solve(m, rhs), rtol=1e-12, atol=1e-14)


class TestStabilityBounds:
    def test_rejects_xi_outside_window(self, small_setup):
        grid, basis = small_setup
        cc = CCOperator(grid, ModelCoefficients(0.0, 0.02))
        kern = JumpKernel.from_rates([1.0, 1.0], basis)
        for xi in (1.0, 3.0, 0.5, 5.0):
            with pytest.raises(ValueError):
                stability_bounds(cc, kern, xi)

    def test_pure_diffusion_closed_form(self):
        grid = TorusGrid(-np.pi, np.pi, 64)
        cc = CCOperator(grid, ModelCoefficients(0.4, 0.05))
        kern = JumpKernel(weights=np.zeros(64), total_rate=0.0,
                          symbol=np.zeros(33, dtype=complex))
        b = stability_bounds(cc, kern, xi=2.0)
        damping = cc.beta * (1.0 + math.exp(peclet(cc))) / grid.h
        assert b.dt_bdf2 == pytest.approx(1.0 / (2 * damping), rel=1e-12)
        assert b.dt_euler_positive == math.inf

    def test_rate_times_step_below_constant(self, rng):
        # a * dt_bdf2 < 4 - 2*sqrt(3) < 0.536 for every admissible xi
        cap = 4 - 2 * math.sqrt(3)
        for _ in range(50):
            n = int(rng.integers(8, 128))
            grid = TorusGrid(-np.pi, np.pi, n)
            cc = CCOperator(grid, ModelCoefficients(float(rng.uniform(-2, 2)),
                                                    float(rng.uniform(0.01, 0.5))))
            basis = make_basis(tiling_centers(3, grid), grid)
            kern = JumpKernel.from_rates(rng.uniform(0.1, 4, 3), basis)
            xi = float(rng.uniform(1.01, 2.99))
            b = stability_bounds(cc, kern, xi)
            assert kern.total_rate * b.dt_bdf2 < cap


class TestSolveForward:
    def test_symmetric_diffusion_stays_symmetric(self):
        grid = TorusGrid(-np.pi, np.pi, 128)
        cc = CCOperator(grid, ModelCoefficients(0.0, 0.04))
        basis = make_basis([0.0, 0.5], grid)
        f0 = von_mises_density(grid, 0.0, 400.0)
        problem = SmallProblem(cc, basis, [0.0, 0.0], TimeGrid(1.0, 60))
        hist = solve_forward(march_setup(problem, f0), problem.rates)
        f = hist.terminal
        asym = np.abs(f[1:] - f[1:][::-1]).sum() / np.abs(f).sum()
        assert asym < 1e-8

    def test_validates_initial_density(self):
        """The setup that the march takes refuses an f0 that is not a
        nonnegative density of mass 1."""
        grid = TorusGrid(-np.pi, np.pi, 32)
        cc = CCOperator(grid, ModelCoefficients(0.0, 0.02))
        basis = make_basis([0.0, 0.5], grid)
        problem = SmallProblem(cc, basis, [0.0, 0.0], TimeGrid(1.0, 50))
        with pytest.raises(ValueError, match="mass"):
            march_setup(problem, np.full(32, 1.0))
        bad = np.full(32, 1.0 / (2 * np.pi))
        bad[3] = -0.1
        bad /= grid.h * bad.sum()
        with pytest.raises(ValueError, match="nonnegative"):
            march_setup(problem, bad)
        nan_f0 = von_mises_density(grid, 0.0, 20.0)
        nan_f0[5] = np.nan
        with pytest.raises(ValueError, match="nonnegative"):
            march_setup(problem, nan_f0)

    def test_refuses_oversized_step_then_forced_run_reports(self, rng):
        grid = TorusGrid(-np.pi, np.pi, 48)
        cc = CCOperator(grid, ModelCoefficients(0.0, 0.02))
        basis = make_basis(tiling_centers(3, grid), grid)
        rates = [2.0, 1.0, 1.5]
        kern = JumpKernel.from_rates(rates, basis)
        bound = stability_bounds(cc, kern, 2.0).dt_bdf2
        n_steps = 6
        tg = TimeGrid(50 * bound * n_steps, n_steps)
        spike = np.zeros(48)
        spike[0] = 1.0 / grid.h
        problem = SmallProblem(cc, basis, rates, tg)
        with pytest.raises(StabilityError):
            solve_forward(march_setup(problem, spike), rates)
        forced = march_setup(problem, spike, force=True)
        assert march_diagnostics(forced, rates)["min_density"] < 0

    def test_positivity_and_norm_stability_randomized(self, rng):
        # structural guarantees across 100 random admissible configurations
        for _ in range(100):
            n = int(rng.integers(16, 129))
            grid = TorusGrid(-np.pi, np.pi, n)
            cc = CCOperator(grid, ModelCoefficients(float(rng.uniform(-2, 2)),
                                                    float(rng.uniform(0.01, 0.5))))
            n_theta = int(rng.integers(2, 7))
            basis = make_basis(tiling_centers(n_theta, grid), grid)
            rates = rng.uniform(0, 3, n_theta)
            kern = JumpKernel.from_rates(rates, basis)
            dt = 0.95 * stability_bounds(cc, kern, 2.0).dt_bdf2
            n_steps = int(rng.integers(4, 16))
            f0 = random_density(rng, grid)
            problem = SmallProblem(cc, basis, rates,
                                   TimeGrid(dt * n_steps, n_steps))
            setup = march_setup(problem, f0)
            hist = solve_forward(setup, rates)
            diagnostics = march_diagnostics(setup, rates)
            assert diagnostics["min_density"] >= -1e-13
            assert diagnostics["mass_drift"] < 1e-10
            norms = np.abs(hist.values).sum(axis=1)
            assert np.all(np.diff(norms) <= 1e-12 * norms[0])

    @pytest.mark.parametrize("n,drift", [(9, 0.7), (12, -0.9), (15, -0.4),
                                         (16, 1.3)])
    def test_matches_dense_march(self, n, drift, rng):
        """The whole history, bootstrap included, equals dense real-space
        solves; even n exercise the Nyquist mode.  The domain starts at a
        node for every n, as the brute-force jump oracle needs."""
        grid = TorusGrid(0.0, 2 * np.pi, n)
        cc = CCOperator(grid, ModelCoefficients(drift,
                                                float(rng.uniform(0.05, 0.4))))
        n_theta = int(rng.integers(2, 5))
        basis = make_basis(tiling_centers(n_theta, grid), grid)
        rates = rng.uniform(0, 2, n_theta)
        kern = JumpKernel.from_rates(rates, basis)
        n_steps, boot = int(rng.integers(2, 9)), int(rng.integers(1, 6))
        dt = 0.9 * stability_bounds(cc, kern, 2.0).dt_bdf2
        tg = TimeGrid(dt * n_steps, n_steps)
        f0 = random_density(rng, grid)
        hist = solve_forward(
            march_setup(SmallProblem(cc, basis, rates, tg, boot), f0), rates)
        values, bootstrap = dense_forward_march(f0, rates, basis, cc, tg, boot)
        atol = 1e-12 * np.abs(values).max()
        np.testing.assert_allclose(hist.values, values, rtol=1e-12, atol=atol)
        np.testing.assert_allclose(hist.bootstrap, bootstrap, rtol=1e-12,
                                   atol=atol)

    def test_first_rows_are_f0_bit_for_bit(self):
        """values[0] and bootstrap[0] are f0 itself, not its round trip
        through the rfft, which is off where f0 underflows to 0."""
        grid = TorusGrid(-np.pi, np.pi, 64)
        cc = CCOperator(grid, ModelCoefficients(0.0, 0.02))
        basis = make_basis(band_centers(3), grid)
        f0 = von_mises_density(grid, 0.0, 4000.0)
        problem = SmallProblem(cc, basis, [0.5, 0.2, 0.1], TimeGrid(1.0, 100),
                               4)
        hist = solve_forward(march_setup(problem, f0), problem.rates)
        round_trip = np.fft.irfft(np.fft.rfft(f0), n=grid.n)
        assert round_trip.tobytes() != f0.tobytes()
        assert hist.values[0].tobytes() == f0.tobytes()
        assert hist.bootstrap[0].tobytes() == f0.tobytes()

    def test_xi_condition_reported(self):
        grid = TorusGrid(-np.pi, np.pi, 64)
        cc = CCOperator(grid, ModelCoefficients(0.0, 0.02))
        basis = make_basis(band_centers(3), grid)
        f0 = von_mises_density(grid, 0.0, 400.0)
        problem = SmallProblem(cc, basis, [0.5, 0.2, 0.1], TimeGrid(1.0, 100))
        setup = march_setup(problem, f0)
        diagnostics = march_diagnostics(setup, problem.rates)
        assert diagnostics["xi_condition_min"] >= 0.0

    def test_reference_experiment_resolution(self):
        grid = TorusGrid(-np.pi, np.pi, 420)
        cc = CCOperator(grid, ModelCoefficients(0.0, 0.02))
        basis = make_basis(band_centers(5), grid)
        f0 = von_mises_density(grid, 0.0, 400.0)
        problem = SmallProblem(cc, basis, [3.0, 2.0, 1.0, 0.5, 0.25],
                               TimeGrid(1.0, 250))
        setup = march_setup(problem, f0)
        diagnostics = march_diagnostics(setup, problem.rates)
        assert diagnostics["mass_drift"] < 1e-10
        assert diagnostics["min_density"] >= -1e-13

    def test_second_order_against_fine_reference(self):
        co = ModelCoefficients(0.05, 0.02)

        def terminal(n):
            grid = TorusGrid(-np.pi, np.pi, n)
            cc = CCOperator(grid, co)
            basis = make_basis(tiling_centers(8, grid), grid)
            f0 = von_mises_density(grid, 0.0, 6.0)
            problem = SmallProblem(cc, basis, [0.0] * 8, TimeGrid(1.0, n))
            return solve_forward(march_setup(problem, f0),
                                 problem.rates).terminal

        ref = terminal(512)
        e64 = np.abs(terminal(64) - ref[::8]).sum() * (2 * np.pi / 64)
        e128 = np.abs(terminal(128) - ref[::4]).sum() * (2 * np.pi / 128)
        order = np.log2(e64 / e128)
        assert 1.6 < order < 2.4


class TestMarchProperties:
    """The certified invariants on random admissible marches."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(8, 96), drift=st.floats(-3.0, 3.0),
           sigma2=st.floats(0.01, 1.0),
           rates=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
                          min_size=2, max_size=4),
           xi=st.floats(1.0, 3.0, exclude_min=True, exclude_max=True),
           boot=st.integers(1, 12), n_steps=st.integers(2, 12),
           share=st.floats(1e-3, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_mass_and_positivity_below_dt_bdf2(self, n, drift, sigma2, rates,
                                               xi, boot, n_steps, share,
                                               seed):
        grid = TorusGrid(-np.pi, np.pi, n)
        cc = CCOperator(grid, ModelCoefficients(drift, sigma2))
        basis = make_basis(tiling_centers(len(rates), grid), grid)
        bound = stability_bounds(cc, JumpKernel.from_rates(rates, basis),
                                 xi).dt_bdf2
        tg = TimeGrid(share * bound * n_steps, n_steps)
        assume(tg.dt <= bound)
        f0 = random_density(np.random.default_rng(seed), grid)
        setup = march_setup(SmallProblem(cc, basis, rates, tg, boot), f0,
                            xi=xi)
        d = march_diagnostics(setup, rates)
        assert d["mass_drift"] < 1e-10
        # the two-step scheme's positivity needs xi*f^1 - f^0 >= 0
        if d["xi_condition_min"] >= 0.0:
            assert d["min_density"] >= -1e-13
