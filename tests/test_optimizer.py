import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levyfit.optimizer as optimizer
from conftest import (STEP_COUNTS, dense_adjoint_march, dense_forward_march,
                      random_density, small_problems)
from levyfit.adjoint import AdjointHistory
from levyfit.errors import LineSearchError
from levyfit.forward import (CCOperator, DensityHistory, JumpKernel,
                             march_diagnostics, solve_terminal,
                             stability_bounds)
from levyfit.likelihood import aic_score
from levyfit.optimizer import (ALPHA0, CalibrationSetup, OptimizerParams,
                               aic_sweep, armijo_linesearch, calibrate,
                               dai_yuan_beta, gradient_from_histories,
                               objective, projected_direction,
                               reduced_gradient, run_forward)
from levyfit.samples import SampleSet
from levyfit.simulate import SimulationSpec, sample_compound_poisson
from levyfit.torus import (ModelCoefficients, TimeGrid, TorusGrid, band_centers,
                           make_basis, von_mises_density)


def make_setup(n=32, n_steps=20, n_theta=3, sigma2=0.02, drift=0.0):
    grid = TorusGrid(-np.pi, np.pi, n)
    basis = make_basis(band_centers(n_theta), grid)
    return CalibrationSetup(grid=grid, time_grid=TimeGrid(1.0, n_steps),
                            coeffs=ModelCoefficients(drift, sigma2),
                            basis=basis,
                            f0=von_mises_density(grid, 0.0, 400.0))


def synthetic_samples(setup, rates, n_samples, seed):
    spec = SimulationSpec(kind="compound_poisson", rates=tuple(rates),
                          drift=setup.coeffs.drift, sigma2=setup.coeffs.sigma2,
                          t_final=setup.time_grid.t_final, n_samples=n_samples,
                          seed=seed, init_concentration=400.0)
    return sample_compound_poisson(spec, setup.basis, setup.grid)


@pytest.mark.parametrize("setting, match", [
    ({"eps": 0.0}, "floor"), ({"eps": float("nan")}, "floor"),
    ({"xi": 3.0}, "xi"), ({"xi": 1.0}, "xi"),
    ({"boot_substeps": 0}, "boot_substeps")])
def test_setup_refuses_scheme_settings_out_of_range(setting, match):
    # the fit's setup owns the ranges of its scheme settings; the config
    # keeps no copy of them
    setup = make_setup()
    fields = {name: getattr(setup, name) for name in (
        "grid", "time_grid", "coeffs", "basis", "f0")}
    with pytest.raises(ValueError, match=match):
        CalibrationSetup(**fields, **setting)


def test_setup_refuses_a_basis_built_on_another_grid():
    # the basis' quadrature weights carry its own grid's step h
    setup = make_setup()
    other = TorusGrid(0.0, 4 * np.pi, setup.grid.n)
    fields = {name: getattr(setup, name) for name in (
        "grid", "time_grid", "coeffs", "f0")}
    with pytest.raises(ValueError, match="basis") as refused:
        CalibrationSetup(**fields, basis=make_basis(band_centers(3), other))
    assert repr(other) in str(refused.value)
    assert repr(setup.grid) in str(refused.value)
    # a setup derived from another, sharing its arrays, checks it alike
    with pytest.raises(ValueError) as derived:
        setup.with_basis(make_basis(band_centers(3), other))
    assert str(derived.value) == str(refused.value)


class TestReducedGradient:
    def test_matches_central_differences(self):
        setup = make_setup(n=32, n_steps=20, n_theta=3)
        samples = synthetic_samples(setup, [1.5, 0.7, 0.4], 50, seed=7)
        alpha = np.array([0.8, 0.5, 0.3])
        grad = reduced_gradient(alpha, setup, samples)
        step = 1e-5
        for j in range(3):
            up, dn = alpha.copy(), alpha.copy()
            up[j] += step
            dn[j] -= step
            fd = (-objective(up, setup, samples)[0].value
                  + objective(dn, setup, samples)[0].value) / (2 * step)
            assert abs(grad[j] - fd) / abs(fd) < 1e-4

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(problem=small_problems(), kappa=st.floats(1.0, 30.0),
           n_samples=st.integers(5, 40),
           n_steps=st.sampled_from(STEP_COUNTS))
    def test_matches_central_differences_on_random_problems(
            self, problem, kappa, n_samples, n_steps):
        # samples only in cells above a tenth of the peak, far from the
        # floor; force admits a rate stepped below 0 and a step above the
        # bounds, where the march is the same smooth map of the rates.
        # Fourth-order central differences keep both the truncation and
        # the roundoff error below 1e-6 of the gradient.
        cc, basis, rates, tg, boot, rng = problem
        grid = cc.grid
        setup = CalibrationSetup(
            grid=grid, time_grid=TimeGrid(tg.t_final, n_steps),
            coeffs=cc.coeffs, basis=basis,
            f0=von_mises_density(grid, float(rng.uniform(0, 2 * np.pi)),
                                 kappa),
            boot_substeps=boot, force=True)
        f = run_forward(rates, setup).terminal
        cells = rng.choice(np.flatnonzero(f > 0.1 * f.max()), n_samples)
        samples = SampleSet.from_values(grid.points[cells], grid)
        grad = reduced_gradient(rates, setup, samples)

        def minimized(j, shift):
            point = rates.copy()
            point[j] += shift
            return -objective(point, setup, samples)[0].value

        step = 1e-4
        fd = np.array([(8 * (minimized(j, step) - minimized(j, -step))
                        - minimized(j, 2 * step) + minimized(j, -2 * step))
                       / (12 * step) for j in range(len(rates))])
        assert np.linalg.norm(fd - grad) <= 1e-6 * np.linalg.norm(grad)

    @pytest.mark.parametrize("n", [9, 12, 15, 16])
    def test_assembly_matches_dense_double_sum(self, n, rng):
        """The mode-sum assembly equals h * sum_w w * sum_i sum_k theta_jk *
        u_i * (v_{i-k} - v_i) over the paired rows (u multiplier, v state)
        of dense real-space marches; even n exercise the Nyquist mode."""
        grid = TorusGrid(0.0, 2 * np.pi, n)
        cc = CCOperator(grid, ModelCoefficients(float(rng.uniform(-1, 1)),
                                                float(rng.uniform(0.05, 0.4))))
        n_theta = int(rng.integers(2, 5))
        # hats off the origin: none is even in the shift, so the test tells
        # the lag i - k from i + k
        basis = make_basis(band_centers(n_theta, 0.3, 2.9), grid)
        rates = rng.uniform(0, 2, n_theta)
        n_steps, boot = int(rng.integers(2, 9)), int(rng.integers(1, 6))
        tg = TimeGrid(float(rng.uniform(0.01, 0.1)), n_steps)
        values, substates = dense_forward_march(random_density(rng, grid),
                                                rates, basis, cc, tg, boot)
        levels, multipliers = dense_adjoint_march(rng.normal(size=n), rates,
                                                  basis, cc, tg, boot)
        pairs = ([(2 * tg.dt, u, v) for u, v in zip(levels, values[1:-1])]
                 + [(tg.dt / boot, u, v) for u, v in zip(multipliers,
                                                         substates)])
        theta = basis.samples
        expected = np.zeros(n_theta)
        for weight, u, v in pairs:
            for i in range(n):
                for k in range(n):
                    expected += (weight * theta[:, k] * u[i]
                                 * (v[(i - k) % n] - v[i]))
        expected *= grid.h

        fwd = DensityHistory(values=values, bootstrap=substates,
                             terminal=values[-1], grid=grid, time_grid=tg)
        adj = AdjointHistory(levels=np.fft.rfft(levels, axis=1),
                             bootstrap=np.fft.rfft(multipliers, axis=1))
        np.testing.assert_allclose(gradient_from_histories(fwd, adj, basis),
                                   expected, rtol=1e-12)

    def test_zero_terminal_data_gives_zero_gradient(self):
        # a sample landing where the density is floored contributes nothing
        setup = make_setup(n=24, n_steps=10)
        values = np.array([setup.grid.points[5]])
        samples = SampleSet.from_values(values, setup.grid)
        alpha = np.array([0.5, 0.2, 0.1])
        hist_free = reduced_gradient(alpha, setup, samples)
        assert np.all(np.isfinite(hist_free))
        # huge floor: every cell is flat, so the gradient vanishes
        setup_floored = CalibrationSetup(grid=setup.grid,
                                         time_grid=setup.time_grid,
                                         coeffs=setup.coeffs, basis=setup.basis,
                                         f0=setup.f0, eps=1e6)
        grad = reduced_gradient(alpha, setup_floored, samples)
        assert np.allclose(grad, 0.0)

    def test_uniform_density_has_zero_gradient(self, rng):
        # translation-invariant density: jump rates cannot change anything
        setup = make_setup(n=24, n_steps=8, drift=0.6)
        uniform = np.full(24, 1.0 / setup.grid.length)
        setup_u = CalibrationSetup(grid=setup.grid, time_grid=setup.time_grid,
                                   coeffs=setup.coeffs, basis=setup.basis,
                                   f0=uniform)
        idx = rng.integers(0, 24, 30)
        samples = SampleSet.from_values(setup.grid.points[idx], setup.grid)
        grad = reduced_gradient(np.zeros(3), setup_u, samples)
        assert np.abs(grad).max() < 1e-12


class TestArmijo:
    def test_quadratic_accepts_near_exact_minimizer(self):
        # q(a) = |a - target|^2 / 2 along the steepest direction
        target = np.array([1.0, -2.0])
        start = target + np.array([0.6, -0.8])
        d = -(start - target)
        slope = float((start - target) @ d)

        def evaluate(step):
            trial = start + step * d
            return 0.5 * float((trial - target) @ (trial - target))

        f0 = 0.5 * float((start - target) @ (start - target))
        res = armijo_linesearch(evaluate, f0, slope)
        assert res.step == 0.5            # first trial already sufficient
        assert evaluate(res.step) < f0

    def test_rejects_flat_direction(self):
        with pytest.raises(LineSearchError, match="descent"):
            armijo_linesearch(lambda s: 1.0, 1.0, 0.0)

    def test_rejects_ascent_direction(self):
        with pytest.raises(LineSearchError):
            armijo_linesearch(lambda s: 1.0, 1.0, +1.0)

    def test_exhausts_shrinks(self):
        # an objective above f_current, so that no step underflows into
        # acceptance
        trials = []
        with pytest.raises(LineSearchError, match="30 shrinks"):
            armijo_linesearch(lambda s: trials.append(s) or 2.0, 1.0, -1.0)
        assert len(trials) == 30

    def test_backtracks_past_infeasible_points(self):
        def evaluate(step):
            return np.inf if step > 0.1 else 1.0 - step

        res = armijo_linesearch(evaluate, 1.0, -1.0)
        assert res.step < 0.1
        assert np.isfinite(evaluate(res.step))


class TestDaiYuan:
    def test_zero_next_gradient(self):
        assert dai_yuan_beta(np.zeros(3), np.ones(3), np.ones(3)) == 0.0

    def test_reduces_to_fletcher_reeves_in_linear_regime(self, rng):
        g_prev = rng.normal(size=5)
        # build g_next orthogonal to g_prev
        g_next = rng.normal(size=5)
        g_next -= (g_next @ g_prev) / (g_prev @ g_prev) * g_prev
        d_prev = -g_prev
        beta = dai_yuan_beta(g_next, g_prev, d_prev)
        assert beta == pytest.approx((g_next @ g_next) / (g_prev @ g_prev),
                                     rel=1e-12)

    def test_direct_formula(self, rng):
        g_prev, g_next, d = (rng.normal(size=4) for _ in range(3))
        expected = (g_next @ g_next) / (d @ (g_next - g_prev))
        assert dai_yuan_beta(g_next, g_prev, d) == pytest.approx(expected)

    def test_degenerate_curvature_restarts(self):
        g = np.array([1.0, 0.0])
        d = np.array([0.0, 1.0])           # orthogonal to y
        assert dai_yuan_beta(g, g, d) == 0.0


def test_projection_helpers():
    alpha = np.array([0.0, 0.5, 0.0])
    d = np.array([-1.0, -1.0, 2.0])
    assert np.array_equal(projected_direction(d, alpha), [0.0, -1.0, 2.0])
    # steepest descent, the projected -g: minus the optimality residual
    g = np.array([2.0, -1.0, -3.0])
    assert np.array_equal(projected_direction(-g, alpha), [0.0, 1.0, 3.0])


class TestCalibrate:
    def test_recovers_two_rates(self):
        setup = make_setup(n=64, n_steps=40, n_theta=2)
        truth = [1.5, 0.5]
        samples = synthetic_samples(setup, truth, 8000, seed=12)
        report = calibrate(setup, samples)
        assert report.converged
        assert np.all(report.alpha_star >= 0.0)
        rel = np.abs(report.alpha_star - truth) / np.array(truth)
        assert rel.max() < 0.30
        # accepted steps never degrade the likelihood
        js = [entry["j"] for entry in report.trace]
        assert all(b >= a - 1e-12 for a, b in zip(js, js[1:]))

    def test_every_gradient_reads_the_objectives_powers(self, monkeypatch):
        """A fit solves once per objective call: each gradient reads the
        powers of the point the last objective evaluated.  It ends with the
        bytes of a fit whose every gradient solves again."""
        setup = make_setup(n=32, n_steps=20, n_theta=3)
        samples = synthetic_samples(setup, [1.5, 1.0, 0.5], 4000, seed=7)
        calls = {"objective": 0, "solve_terminal": 0, "reduced_gradient": 0}

        def count(name, real):
            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(optimizer, name, counted)

        for name in calls:
            count(name, getattr(optimizer, name))
        report = calibrate(setup, samples)
        assert calls["reduced_gradient"] == report.iterations + 1 > 1
        assert calls["solve_terminal"] == calls["objective"]

        real = optimizer.reduced_gradient
        monkeypatch.setattr(optimizer, "reduced_gradient",
                            lambda alpha, setup, samples, powers: real(
                                alpha, setup, samples))
        again = calibrate(setup, samples)
        assert again.alpha_star.tobytes() == report.alpha_star.tobytes()
        assert again.trace == report.trace

    @pytest.mark.parametrize("max_iters", [0, 500])
    def test_each_fit_reports_its_accepted_evaluation(self, max_iters):
        """Every fit of a sweep reports the value, floored count, score and
        density of the `objective` call that evaluated alpha_star: j_star
        is the last trace entry's j, or the start's J after no iteration,
        and the density has the bytes of the powers at alpha_star."""
        setup = make_setup(n=32, n_steps=12, n_theta=2)
        samples = synthetic_samples(setup, [0.8, 0.3], 500, seed=5)
        setups = [setup.with_basis(make_basis(band_centers(n_theta),
                                              setup.grid))
                  for n_theta in (2, 3, 4)]
        result = aic_sweep(setups, samples,
                           OptimizerParams(max_iters=max_iters))
        assert not result.errors
        for report, fit_setup in zip(result.reports, setups):
            assert report.iterations == len(report.trace)
            if report.iterations:
                assert report.j_star == report.trace[-1]["j"]
            else:
                assert np.array_equal(report.alpha_star,
                                      np.full(report.n_theta, ALPHA0))
            value, powers = objective(report.alpha_star, fit_setup, samples)
            assert report.j_star == value.value
            assert report.diagnostics["floored_count"] == value.floored_count
            assert report.aic == aic_score(value.value, len(samples),
                                           report.n_theta, "log")
            assert report.terminal.tobytes() == powers.density.tobytes()

    def test_refuses_samples_snapped_to_another_grid(self):
        # counts snapped to another grid have the right length and would
        # score every sample in another cell
        setup = make_setup()
        other = TorusGrid(0.0, 4 * np.pi, setup.grid.n)
        samples = SampleSet.from_values(other.points[::3], other)
        with pytest.raises(ValueError, match="snapped") as refused:
            calibrate(setup, samples)
        assert repr(other) in str(refused.value)
        assert repr(setup.grid) in str(refused.value)

    def test_pure_diffusion_data_drives_rates_to_zero(self):
        setup = make_setup(n=210, n_steps=125, n_theta=3)
        samples = synthetic_samples(setup, [0.0, 0.0, 0.0], 100_000, seed=3)
        report = calibrate(setup, samples)
        assert np.all(report.alpha_star <= 0.05)
        assert report.converged

    def test_report_diagnostics_fields(self):
        setup = make_setup(n=32, n_steps=12, n_theta=2)
        samples = synthetic_samples(setup, [0.8, 0.3], 500, seed=5)
        report = calibrate(setup, samples,
                           OptimizerParams(max_iters=15, tol=1e-9))
        d = report.diagnostics
        for key in ("floored_count", "grad_norm", "mass_drift", "min_density",
                    "bounds", "stop"):
            assert key in d
        assert d["bounds"]["dt_used"] == pytest.approx(setup.time_grid.dt)
        assert report.iterations <= 15

    def test_never_raises_on_iteration_cap(self):
        setup = make_setup(n=32, n_steps=12, n_theta=3)
        samples = synthetic_samples(setup, [1.0, 0.5, 0.2], 300, seed=9)
        report = calibrate(setup, samples,
                           OptimizerParams(max_iters=2, tol=1e-14))
        assert not report.converged

    def test_stop_and_converged_agree_at_the_iteration_cap(self):
        setup = make_setup(n=32, n_steps=12, n_theta=2)
        samples = synthetic_samples(setup, [0.8, 0.3], 500, seed=5)
        free = calibrate(setup, samples)
        n = free.iterations
        assert free.diagnostics["stop"] == "tol" and n > 1

        def outcome(params):
            report = calibrate(setup, samples, params)
            return (report.iterations, report.converged,
                    report.diagnostics["stop"])

        # the tolerance met on the last allowed iteration is a tol stop
        assert outcome(OptimizerParams(max_iters=n)) == (n, True, "tol")
        assert outcome(OptimizerParams(max_iters=n - 1)) == (
            n - 1, False, "max_iters")
        # and so is one met at the start, with no iteration allowed
        assert outcome(OptimizerParams(max_iters=0, tol=1e9)) == (
            0, True, "tol")
        assert outcome(OptimizerParams(max_iters=0)) == (
            0, False, "max_iters")


class TestLineSearchRetry:
    """The search along the conjugate direction, then along steepest descent."""

    @staticmethod
    def failing_searches(monkeypatch, fail):
        """Make calibrate's searches number n (from 0) with fail(n) raise
        after one trial evaluation; returns the slope of each search."""
        real = optimizer.armijo_linesearch
        slopes = []

        def search(evaluate, f_current, slope):
            slopes.append(slope)
            if fail(len(slopes) - 1):
                evaluate(optimizer.STEP_INIT)
                raise LineSearchError("refused by the test")
            return real(evaluate, f_current, slope)

        monkeypatch.setattr(optimizer, "armijo_linesearch", search)
        return slopes

    @staticmethod
    def problem():
        setup = make_setup(n=32, n_steps=12, n_theta=2)
        return setup, synthetic_samples(setup, [0.8, 0.3], 500, seed=5)

    def test_conjugate_failure_retries_steepest_descent(self, monkeypatch):
        # search 0 is steepest descent from alpha0; search 1 is the first
        # along a conjugate direction
        setup, samples = self.problem()
        slopes = self.failing_searches(monkeypatch, lambda n: n == 1)
        report = calibrate(setup, samples, OptimizerParams(max_iters=6,
                                                           tol=1e-9))
        assert len(slopes) >= 4 and report.iterations == 6
        assert [entry["iter"] for entry in report.trace] == list(range(6))
        # the retry searches -projected gradient: slope -||pg||^2
        pg_norm = report.trace[0]["pg_norm"]
        assert slopes[2] == pytest.approx(-pg_norm**2, rel=1e-12)
        assert slopes[1] != pytest.approx(slopes[2], rel=1e-6)

    def test_both_failures_stop_at_the_pre_search_iterate(self, monkeypatch):
        setup, samples = self.problem()
        params = OptimizerParams(max_iters=6, tol=1e-9)
        one_step = calibrate(setup, samples,
                             OptimizerParams(max_iters=1, tol=1e-9))
        slopes = self.failing_searches(monkeypatch, lambda n: n >= 1)
        report = calibrate(setup, samples, params)
        assert len(slopes) == 3
        assert report.diagnostics["stop"] == "linesearch"
        assert not report.converged
        assert report.iterations == 1
        assert np.array_equal(report.alpha_star, one_step.alpha_star)
        assert report.j_star == one_step.j_star
        # diagnostics and density belong to alpha_star, not to a trial point
        kernel = JumpKernel.from_rates(report.alpha_star, setup.basis)
        bounds = stability_bounds(setup.cc, kernel, setup.xi)
        assert report.diagnostics["bounds"] == {
            "dt_used": setup.time_grid.dt,
            "dt_euler_pos": bounds.dt_euler_positive,
            "dt_bdf2": bounds.dt_bdf2}
        powers = solve_terminal(setup, report.alpha_star)
        assert report.terminal.tobytes() == powers.density.tobytes()
        marched = march_diagnostics(setup, report.alpha_star)
        assert {key: report.diagnostics[key] for key in marched} == marched


class TestSweep:
    def test_single_entry_selected(self):
        setup = make_setup(n=32, n_steps=12, n_theta=2)
        samples = synthetic_samples(setup, [0.8, 0.3], 400, seed=2)
        result = aic_sweep([setup], samples, OptimizerParams(max_iters=25))
        assert result.selected_n_theta == 2
        assert len(result.reports) == 1

    def test_failed_entry_recorded_and_sweep_continues(self):
        good = make_setup(n=32, n_steps=12, n_theta=2)
        samples = synthetic_samples(good, [0.8, 0.3], 400, seed=2)
        # strong diffusion shrinks the two-step bound far below dt = 1/2
        bad = CalibrationSetup(grid=good.grid, time_grid=TimeGrid(1.0, 2),
                               coeffs=ModelCoefficients(0.0, 5.0),
                               basis=make_basis(band_centers(4), good.grid),
                               f0=good.f0)
        result = aic_sweep([bad, good], samples, OptimizerParams(max_iters=25))
        assert result.selected_n_theta == 2
        assert 4 in result.errors

    def test_no_report_pins_its_history(self):
        """A march's terminal and every report's are arrays of their own,
        not views that keep the march's whole history alive."""
        setup = make_setup(n=32, n_steps=12, n_theta=2)
        fwd = run_forward([0.8, 0.3], setup)
        assert fwd.terminal.flags.owndata
        assert not np.shares_memory(fwd.terminal, fwd.values)
        samples = synthetic_samples(setup, [0.8, 0.3], 400, seed=2)
        other = make_setup(n=32, n_steps=12, n_theta=3)
        result = aic_sweep([setup, other], samples,
                           OptimizerParams(max_iters=5))
        assert len(result.reports) == 2
        for report in result.reports:
            assert report.terminal.flags.owndata
