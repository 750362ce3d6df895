import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (dense_adjoint_march, dense_cc_matrix,
                      dense_forward_march, random_density, small_problems)
from levyfit.adjoint import solve_adjoint, terminal_condition
from levyfit.forward import (CCOperator, JumpKernel, adjoint_jump_operator,
                             apply_jump_operator)
from levyfit.samples import SampleSet
from levyfit.torus import (ModelCoefficients, TimeGrid, TorusGrid, make_basis,
                           tiling_centers)


@pytest.fixture
def grid():
    return TorusGrid(-np.pi, np.pi, 12)


def multipliers(adj, n):
    """Real-space multipliers of a sweep: levels p^2 .. p^{N_T} and
    bootstrap r^1 .. r^K."""
    return (np.fft.irfft(adj.levels, n=n, axis=1),
            np.fft.irfft(adj.bootstrap, n=n, axis=1))


def sample_set_with_counts(grid, counts):
    values = np.repeat(grid.points, counts)
    return SampleSet.from_values(values, grid)


class TestTerminalCondition:
    def test_empty_cells_are_zero(self, grid):
        counts = np.zeros(12, dtype=int)
        counts[4] = 1
        ss = sample_set_with_counts(grid, counts)
        f = np.full(12, 0.5)
        p = terminal_condition(f, ss)
        assert np.count_nonzero(p) == 1

    def test_single_sample_value(self, grid):
        counts = np.zeros(12, dtype=int)
        counts[4] = 1
        ss = sample_set_with_counts(grid, counts)
        f = np.full(12, 0.5)
        p = terminal_condition(f, ss)
        assert p[4] == pytest.approx(-2.0)

    def test_multiplicity_counts(self, grid):
        counts = np.zeros(12, dtype=int)
        counts[7] = 3
        ss = sample_set_with_counts(grid, counts)
        f = np.full(12, 0.25)
        p = terminal_condition(f, ss)
        assert p[7] == pytest.approx(-4.0)

    def test_floored_cells_contribute_zero(self, grid):
        counts = np.zeros(12, dtype=int)
        counts[2] = 5
        ss = sample_set_with_counts(grid, counts)
        f = np.full(12, 0.3)
        f[2] = 1e-14          # below the floor: objective locally flat
        p = terminal_condition(f, ss, eps=1e-12)
        assert p[2] == 0.0

    def test_nonpositive(self, grid, rng):
        counts = rng.integers(0, 4, 12)
        ss = sample_set_with_counts(grid, counts)
        f = rng.uniform(0.1, 1.0, 12)
        assert np.all(terminal_condition(f, ss) <= 0.0)


class TestAdjointJumpOperator:
    def test_zero_rates(self, grid):
        basis = make_basis(tiling_centers(3, grid), grid)
        kern = JumpKernel.from_rates([0.0] * 3, basis)
        p = np.arange(12.0)
        assert np.array_equal(adjoint_jump_operator(p, kern), np.zeros(12))

    def test_duality_with_forward_operator(self, rng):
        grid = TorusGrid(-np.pi, np.pi, 16)
        basis = make_basis(tiling_centers(4, grid), grid)
        kern = JumpKernel.from_rates(rng.uniform(0, 2, 4), basis)
        for _ in range(20):
            f = rng.normal(size=16)
            p = rng.normal(size=16)
            lhs = apply_jump_operator(f, kern) @ p
            rhs = f @ adjoint_jump_operator(p, kern)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)

    def test_brute_force_reversed_shift(self, rng):
        grid = TorusGrid(-np.pi, np.pi, 8)
        basis = make_basis(tiling_centers(2, grid), grid)
        kern = JumpKernel.from_rates([1.3, 0.4], basis)
        p = rng.normal(size=8)
        expected = np.empty(8)
        for i in range(8):
            expected[i] = sum(kern.weights[k] * p[(i + k) % 8] for k in range(8))
            expected[i] -= kern.total_rate * p[i]
        assert np.allclose(adjoint_jump_operator(p, kern), expected,
                           rtol=1e-12, atol=1e-14)


class TestSolveAdjoint:
    def test_homogeneous_terminal_data(self, rng):
        grid = TorusGrid(-np.pi, np.pi, 16)
        cc = CCOperator(grid, ModelCoefficients(0.4, 0.1))
        basis = make_basis(tiling_centers(3, grid), grid)
        adj = solve_adjoint(np.zeros(16), [1.0, 0.5, 0.2], basis, cc,
                            TimeGrid(0.1, 5), boot_substeps=3)
        levels, bootstrap = multipliers(adj, 16)
        assert np.all(levels == 0.0)
        assert np.all(bootstrap == 0.0)

    def test_terminal_slice_nonpositive(self, rng):
        grid = TorusGrid(-np.pi, np.pi, 16)
        cc = CCOperator(grid, ModelCoefficients(-0.2, 0.15))
        basis = make_basis(tiling_centers(3, grid), grid)
        data = -rng.uniform(0, 1, 16)
        adj = solve_adjoint(data, [0.5, 0.5, 0.5], basis, cc, TimeGrid(0.1, 6))
        assert np.all(multipliers(adj, 16)[0][-1] <= 1e-15)

    def test_transposed_system_matrix(self, rng):
        grid = TorusGrid(-np.pi, np.pi, 10)
        cc = CCOperator(grid, ModelCoefficients(0.9, 0.2))
        dt = 0.01
        m = 3 * np.eye(10) - 2 * dt * dense_cc_matrix(cc)
        rhs = rng.normal(size=10)
        # the adjoint sweep divides by the conjugate of the forward symbol
        symbol_t = np.conj(cc.system_solver(3.0, 2 * dt).symbol)
        solved = np.fft.irfft(np.fft.rfft(rhs) / symbol_t, n=10)
        assert np.allclose(solved, np.linalg.solve(m.T, rhs),
                           rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("n_steps,drift", [(2, 0.0), (3, 0.5), (6, -0.8),
                                               (9, 1.2)])
    def test_space_time_transposition_identity(self, n_steps, drift, rng):
        """<data, forward(f0)> == <backward(data), f0> for the full recurrence.

        backward(data) is reconstructed from the multiplier histories as
        r^1 + tau*Qt(r^1) - p^2, the sensitivity of the terminal inner
        product to the initial slice.
        """
        n, boot = 12, 4
        grid = TorusGrid(-np.pi, np.pi, n)
        tg = TimeGrid(0.05, n_steps)
        cc = CCOperator(grid, ModelCoefficients(drift, 0.3))
        basis = make_basis(tiling_centers(3, grid), grid)
        rates = rng.uniform(0, 1.5, 3)
        kern = JumpKernel.from_rates(rates, basis)
        tau = tg.dt / boot

        def forward_map(f0):
            return dense_forward_march(f0, rates, basis, cc, tg, boot)[0][-1]

        f0 = rng.uniform(0.1, 1.0, n)
        data = rng.normal(size=n)
        adj = solve_adjoint(data, rates, basis, cc, tg, boot_substeps=boot)
        levels, bootstrap = multipliers(adj, n)
        r1 = bootstrap[0]
        pullback = r1 + tau * adjoint_jump_operator(r1, kern) - levels[0]
        lhs = data @ forward_map(f0)
        rhs = pullback @ f0
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("n,drift", [(9, -0.6), (12, 0.8), (15, 1.1),
                                         (16, -1.4)])
    def test_matches_dense_transposed_march(self, n, drift, rng):
        """Every multiplier, bootstrap included, equals dense solves of the
        transposed recurrence; even n exercise the Nyquist mode.  The domain
        starts at a node for every n, as the brute-force jump oracle needs."""
        grid = TorusGrid(0.0, 2 * np.pi, n)
        cc = CCOperator(grid, ModelCoefficients(drift,
                                                float(rng.uniform(0.05, 0.4))))
        n_theta = int(rng.integers(2, 5))
        basis = make_basis(tiling_centers(n_theta, grid), grid)
        rates = rng.uniform(0, 2, n_theta)
        n_steps, boot = int(rng.integers(2, 9)), int(rng.integers(1, 6))
        tg = TimeGrid(float(rng.uniform(0.01, 0.1)), n_steps)
        data = rng.normal(size=n)
        adj = solve_adjoint(data, rates, basis, cc, tg, boot_substeps=boot)
        levels, bootstrap = dense_adjoint_march(data, rates, basis, cc, tg,
                                                boot)
        atol = 1e-12 * np.abs(levels).max()
        swept_levels, swept_bootstrap = multipliers(adj, n)
        np.testing.assert_allclose(swept_levels, levels, rtol=1e-12,
                                   atol=atol)
        np.testing.assert_allclose(swept_bootstrap, bootstrap, rtol=1e-12,
                                   atol=atol)

    def test_symmetric_case_self_adjoint_pairing(self, rng):
        # zero drift plus an even jump measure make every operator symmetric,
        # so the pullback of the terminal data pairs with f0 exactly like the
        # pullback of f0 pairs with the data
        n, boot, n_steps = 16, 5, 7
        grid = TorusGrid(-np.pi, np.pi, n)
        tg = TimeGrid(0.08, n_steps)
        cc = CCOperator(grid, ModelCoefficients(0.0, 0.2))
        basis = make_basis(tiling_centers(4, grid), grid)
        rates = np.array([0.7, 0.4, 0.9, 0.4])   # centers -pi, -pi/2, 0, pi/2
        kern = JumpKernel.from_rates(rates, basis)
        tau = tg.dt / boot
        f0 = rng.uniform(0.1, 1.0, n)
        data = rng.uniform(0.1, 1.0, n)

        adj_of_data = solve_adjoint(data, rates, basis, cc, tg,
                                    boot_substeps=boot)
        levels, bootstrap = multipliers(adj_of_data, n)
        pb_data = (bootstrap[0]
                   + tau * adjoint_jump_operator(bootstrap[0], kern)
                   - levels[0])
        adj_of_f0 = solve_adjoint(f0, rates, basis, cc, tg, boot_substeps=boot)
        levels, bootstrap = multipliers(adj_of_f0, n)
        pb_f0 = (bootstrap[0]
                 + tau * adjoint_jump_operator(bootstrap[0], kern)
                 - levels[0])
        assert pb_data @ f0 == pytest.approx(pb_f0 @ data, rel=1e-10)


class TestAdjointProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(problem=small_problems())
    def test_space_time_transposition_identity(self, problem):
        """<data, F^{N_T}(f0)> == <pullback(data), f0> on random small
        problems, the pullback built from the sweep as in
        TestSolveAdjoint.test_space_time_transposition_identity."""
        cc, basis, rates, tg, boot, rng = problem
        grid = cc.grid
        f0 = random_density(rng, grid)
        data = rng.normal(size=grid.n)
        terminal = dense_forward_march(f0, rates, basis, cc, tg, boot)[0][-1]
        adj = solve_adjoint(data, rates, basis, cc, tg, boot_substeps=boot)
        levels, bootstrap = multipliers(adj, grid.n)
        r1 = bootstrap[0]
        pullback = (r1 + tg.dt / boot * adjoint_jump_operator(
            r1, JumpKernel.from_rates(rates, basis)) - levels[0])
        assert data @ terminal == pytest.approx(pullback @ f0, rel=1e-10)
