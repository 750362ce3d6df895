"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is fixed
here; the experiments are deterministic (seeded).  The full-resolution
experiment is opt-in: `pytest -m full_scale -s`.
"""

import math
import time

import numpy as np
import pytest

from conftest import SmallProblem, march_setup, random_density
from levyfit.config import RunConfig
from levyfit.errors import StabilityError
from levyfit.experiment import empirical_histogram, run_experiment
from levyfit.forward import (CCOperator, JumpKernel, march_diagnostics,
                             solve_forward, stability_bounds)
from levyfit.optimizer import (CalibrationSetup, OptimizerParams, aic_sweep,
                               calibrate, objective, reduced_gradient,
                               run_forward)
from levyfit.preprocess import PreprocessSpec, torus_diffusion, torus_drift
from levyfit.samples import SampleSet
from levyfit.simulate import SimulationSpec, sample_bigamma, sample_compound_poisson
from levyfit.torus import (ModelCoefficients, TimeGrid, TorusGrid, band_centers,
                           make_basis, tiling_centers, von_mises_density)

CONSISTENCY_RATES = np.array([3.0, 2.0, 1.0, 0.5, 0.25])


def desk_setup(n_theta, n=210, n_steps=125):
    grid = TorusGrid(-np.pi, np.pi, n)
    return CalibrationSetup(grid=grid, time_grid=TimeGrid(1.0, n_steps),
                            coeffs=ModelCoefficients(0.0, 0.02),
                            basis=make_basis(band_centers(n_theta), grid),
                            f0=von_mises_density(grid, 0.0, 400.0))


@pytest.fixture(scope="module")
def consistency_sweep():
    """Desk-scale consistency data fitted for every basis size 3..7."""
    setup5 = desk_setup(5)
    spec = SimulationSpec(kind="compound_poisson", rates=tuple(CONSISTENCY_RATES),
                          sigma2=0.02, t_final=1.0, n_samples=20_000, seed=43,
                          init_concentration=400.0)
    samples = sample_compound_poisson(spec, setup5.basis, setup5.grid)
    setups = [desk_setup(n) for n in (3, 4, 5, 6, 7)]
    t0 = time.perf_counter()
    sweep = aic_sweep(setups, samples, OptimizerParams())
    elapsed = time.perf_counter() - t0
    return sweep, samples, elapsed


def test_criterion_1_solver_structure_suite():
    """Mass conservation, positivity, 1-norm stability on 50 random configs."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = {"drift": 0.0, "min": 0.0, "norm": 0.0}
    for _ in range(50):
        n = int(rng.integers(16, 129))
        grid = TorusGrid(-np.pi, np.pi, n)
        cc = CCOperator(grid, ModelCoefficients(float(rng.uniform(-2, 2)),
                                                float(rng.uniform(0.01, 0.5))))
        n_theta = int(rng.integers(2, 7))
        basis = make_basis(tiling_centers(n_theta, grid), grid)
        rates = rng.uniform(0, 3, n_theta)
        kern = JumpKernel.from_rates(rates, basis)
        dt = 0.95 * stability_bounds(cc, kern, 2.0).dt_bdf2
        n_steps = int(rng.integers(5, 20))
        problem = SmallProblem(cc, basis, rates,
                               TimeGrid(dt * n_steps, n_steps))
        setup = march_setup(problem, random_density(rng, grid))
        hist = solve_forward(setup, rates)
        d = march_diagnostics(setup, rates)
        norms = np.abs(hist.values).sum(axis=1)
        norm_growth = float(np.max(np.diff(norms), initial=-np.inf))
        worst["drift"] = max(worst["drift"], d["mass_drift"])
        worst["min"] = min(worst["min"], d["min_density"])
        worst["norm"] = max(worst["norm"], norm_growth)
        assert d["mass_drift"] < 1e-10
        assert d["min_density"] >= -1e-13
        assert norm_growth <= 1e-12
    print(f"\ncriterion 1 PASS: 50 configs, worst mass drift {worst['drift']:.2e}, "
          f"min density {worst['min']:.2e}, norm growth {worst['norm']:.2e} "
          f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_2_bound_sharpness():
    """0.9x the two-step bound preserves positivity; 50x with adversarial
    data does not (the bound is doing real work)."""
    rng = np.random.default_rng(7)
    negatives = 0
    for _ in range(20):
        n = int(rng.integers(24, 96))
        grid = TorusGrid(-np.pi, np.pi, n)
        cc = CCOperator(grid, ModelCoefficients(float(rng.uniform(-1, 1)),
                                                float(rng.uniform(0.02, 0.3))))
        n_theta = int(rng.integers(2, 6))
        basis = make_basis(tiling_centers(n_theta, grid), grid)
        rates = rng.uniform(0.5, 3, n_theta)
        kern = JumpKernel.from_rates(rates, basis)
        bound = stability_bounds(cc, kern, 2.0).dt_bdf2

        safe = march_diagnostics(march_setup(
            SmallProblem(cc, basis, rates, TimeGrid(0.9 * bound * 12, 12)),
            random_density(rng, grid)), rates)
        assert safe["min_density"] >= -1e-13

        spike = np.zeros(n)
        spike[int(rng.integers(0, n))] = 1.0 / grid.h
        wild = march_diagnostics(march_setup(
            SmallProblem(cc, basis, rates, TimeGrid(50 * bound * 6, 6)),
            spike, force=True), rates)
        negatives += wild["min_density"] < 0
    assert negatives >= 1
    print(f"\ncriterion 2 PASS: 20/20 positive at 0.9x bound, "
          f"{negatives}/20 configs negative at 50x bound")


def test_criterion_3_convergence_order():
    """Self-convergence order across N in {64,128,256} with dt ~ h."""
    t0 = time.perf_counter()

    def terminal(n, n_steps, rates, kappa):
        grid = TorusGrid(-np.pi, np.pi, n)
        cc = CCOperator(grid, ModelCoefficients(0.05, 0.02))
        basis = make_basis(tiling_centers(8, grid), grid)
        f0 = von_mises_density(grid, 0.0, kappa)
        problem = SmallProblem(cc, basis, rates, TimeGrid(1.0, n_steps))
        return solve_forward(march_setup(problem, f0), rates).terminal

    def observed_order(rates, kappa, steps_per_cell):
        sols = {n: terminal(n, steps_per_cell * n, rates, kappa)
                for n in (64, 128, 256)}
        d1 = np.abs(sols[64] - sols[128][::2]).sum() * (2 * np.pi / 64)
        d2 = np.abs(sols[128] - sols[256][::2]).sum() * (2 * np.pi / 128)
        return math.log2(d1 / d2)

    diffusion_order = observed_order([0.0] * 8, 6.0, 1)
    jump_rates = 0.25 * np.array([0.6, 0.2, 0.1, 0.05, 0.3, 0.1, 0.4, 0.2])
    jump_order = observed_order(jump_rates, 16.0, 4)
    assert 1.7 <= diffusion_order <= 2.2
    assert 1.7 <= jump_order <= 2.2
    print(f"\ncriterion 3 PASS: order {diffusion_order:.3f} (pure diffusion), "
          f"{jump_order:.3f} (jump-diffusion) in [1.7, 2.2] "
          f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_4_gradient_exactness():
    """Adjoint gradient vs central differences, componentwise < 1e-4."""
    t0 = time.perf_counter()
    grid = TorusGrid(-np.pi, np.pi, 32)
    setup = CalibrationSetup(grid=grid, time_grid=TimeGrid(1.0, 20),
                             coeffs=ModelCoefficients(0.0, 0.02),
                             basis=make_basis(band_centers(3), grid),
                             f0=von_mises_density(grid, 0.0, 400.0))
    spec = SimulationSpec(kind="compound_poisson", rates=(1.5, 0.7, 0.4),
                          sigma2=0.02, t_final=1.0, n_samples=50, seed=7,
                          init_concentration=400.0)
    samples = sample_compound_poisson(spec, setup.basis, grid)
    alpha = np.array([0.8, 0.5, 0.3])         # interior point, no active bounds
    grad = reduced_gradient(alpha, setup, samples)
    step = 1e-5
    worst = 0.0
    for j in range(3):
        up, dn = alpha.copy(), alpha.copy()
        up[j] += step
        dn[j] -= step
        fd = (-objective(up, setup, samples)[0].value
              + objective(dn, setup, samples)[0].value) / (2 * step)
        rel = abs(grad[j] - fd) / abs(fd)
        worst = max(worst, rel)
        assert rel < 1e-4
    print(f"\ncriterion 4 PASS: max relative gradient error {worst:.2e} "
          f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_5_consistency_recovery(consistency_sweep):
    """Desk-scale recovery of the generating rates within 20% per component."""
    sweep, _, elapsed = consistency_sweep
    report = next(r for r in sweep.reports if r.n_theta == 5)
    assert report.converged
    rel = np.abs(report.alpha_star - CONSISTENCY_RATES) / CONSISTENCY_RATES
    print(f"\ncriterion 5: recovered {np.round(report.alpha_star, 4)} "
          f"vs {CONSISTENCY_RATES}, relative errors {np.round(rel, 3)} "
          f"(sweep took {elapsed:.0f}s)")
    assert rel.max() < 0.20
    print("criterion 5 PASS: all components within 20%")


def test_criterion_6_aic_selection(consistency_sweep):
    """Sweep 3..7 selects a size in {5,6,7}; the top three scores are close."""
    sweep, _, _ = consistency_sweep
    aic = {r.n_theta: r.aic for r in sweep.reports}
    assert sweep.selected_n_theta in (5, 6, 7)
    spread = max(aic[n] for n in (5, 6, 7)) - min(aic[n] for n in (5, 6, 7))
    allowed = 0.01 * abs(aic[5])
    assert spread <= allowed
    print(f"\ncriterion 6 PASS: selected n_theta={sweep.selected_n_theta}, "
          f"AIC spread(5..7) {spread:.2f} <= {allowed:.2f}")


def test_criterion_7_gamma_fit():
    """Even jump measure: mirror-symmetric rates, and a closer histogram fit
    than the best pure-Gaussian model."""
    t0 = time.perf_counter()
    grid = TorusGrid(-np.pi, np.pi, 210)
    setup = CalibrationSetup(grid=grid, time_grid=TimeGrid(1.0, 125),
                             coeffs=ModelCoefficients(0.0, 0.02),
                             basis=make_basis(tiling_centers(9, grid), grid),
                             f0=von_mises_density(grid, 0.0, 400.0))
    spec = SimulationSpec(kind="bigamma", gamma_shape=0.5, gamma_rate=1.0,
                          sigma2=0.02, t_final=1.0, n_samples=20_000, seed=1,
                          init_concentration=400.0)
    samples = sample_bigamma(spec, grid)
    report = calibrate(setup, samples)
    a = report.alpha_star

    # centers tile the torus from -pi; mirror images pair (2,9),(3,8),(4,7),
    # (5,6) in 1-based indexing, the -pi center being its own mirror
    worst_pair = 0.0
    for i, j in ((1, 8), (2, 7), (3, 6), (4, 5)):
        big = max(a[i], a[j])
        rel = abs(a[i] - a[j]) / big if big > 0 else 0.0
        worst_pair = max(worst_pair, rel)
        assert rel <= 0.30

    heights, edges = empirical_histogram(samples, 40)
    centers = 0.5 * (edges[:-1] + edges[1:])
    width = edges[1] - edges[0]
    terminal = run_forward(a, setup).terminal
    idx = np.clip(((grid.points - grid.lower) / width).astype(int), 0, 39)
    model = np.bincount(idx, weights=terminal, minlength=40)
    model /= np.bincount(idx, minlength=40)
    l1_fit = float(np.abs(model - heights).sum() * width)

    # maximum-likelihood wrapped normal via circular moments
    z = np.exp(1j * samples.values)
    mu = float(np.angle(z.mean()))
    s2 = float(-2.0 * np.log(np.abs(z.mean())))
    gauss = np.zeros(40)
    for k in range(-6, 7):
        gauss += np.exp(-((centers - mu + 2 * np.pi * k) ** 2)
                        / (2 * s2)) / math.sqrt(2 * math.pi * s2)
    l1_gauss = float(np.abs(gauss - heights).sum() * width)

    assert l1_fit < l1_gauss
    print(f"\ncriterion 7 PASS: rates {np.round(a, 4)}, worst mirror "
          f"asymmetry {worst_pair:.2f} <= 0.30, L1 {l1_fit:.3f} < Gaussian "
          f"{l1_gauss:.3f} ({time.perf_counter() - t0:.0f}s)")


def test_criterion_8a_financial_drift_value():
    """Quoted raw drift 6.787e-4 under the pi/0.03 rescale gives 0.07107.

    The band-to-torus map x = s*(y - c), s = pi/0.03, is affine: it sends a
    Levy process with drift b and diffusion sigma^2 to one with drift s*b
    and diffusion s^2*sigma^2; the center c only shifts the start.
    torus_drift takes only the raw drift and the spec, so no correction
    that depends on the variance can enter it.  Criterion 8b pins the
    stretch: its quote 0.2372 +- 1e-4 allows s in [104.680, 104.724], that
    is a drift in [0.07105, 0.07108] for this input.  6.787e-4 * pi/0.03 =
    0.0710733, quoted to 4 significant digits, truncated, as 8b quotes
    0.237282 as 0.2372.
    """
    spec = PreprocessSpec(band_lo=-0.03, band_hi=0.03, diffusion_fraction=0.25)
    drift = torus_drift(6.787e-4, spec)
    print(f"\ncriterion 8a: drift from quoted inputs = {drift:.6f}, "
          f"target 0.07107, difference {abs(drift - 0.07107):.2e} "
          f"(tolerance 1e-4)")
    assert drift == pytest.approx(0.07107, abs=1e-4)
    print("criterion 8a PASS")


def test_criterion_8b_financial_diffusion_value():
    spec = PreprocessSpec(band_lo=-0.03, band_hi=0.03, diffusion_fraction=0.25)
    diffusion = torus_diffusion(8.655e-5, spec)
    assert diffusion == pytest.approx(0.2372, abs=1e-4)
    print(f"\ncriterion 8b PASS: diffusion coefficient {diffusion:.6f} "
          f"within 1e-4 of 0.2372")


def test_criterion_9_determinism(tmp_path):
    """Identical config and seed produce byte-identical report JSON."""
    cfg = RunConfig(n_space=64, n_time=30, sample_count=2000, seed=11,
                    sim_kind="compound_poisson", sim_rates=(1.0, 0.5),
                    n_theta_list=(2, 3), max_iters=80)
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b")
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    assert a == b
    print(f"\ncriterion 9 PASS: two runs, byte-identical reports ({len(a)} bytes)")


@pytest.mark.full_scale
def test_full_resolution_consistency_table():
    """Full-resolution run (L=1e5, N=420, N_T=250): the five-rate fit must
    land within 10% of the frozen reference estimates for this setup."""
    grid = TorusGrid(-np.pi, np.pi, 420)
    f0 = von_mises_density(grid, 0.0, 400.0)
    spec = SimulationSpec(kind="compound_poisson", rates=tuple(CONSISTENCY_RATES),
                          sigma2=0.02, t_final=1.0, n_samples=100_000, seed=0,
                          init_concentration=400.0)
    basis5 = make_basis(band_centers(5), grid)
    samples = sample_compound_poisson(spec, basis5, grid)

    def fit(n_theta):
        setup = CalibrationSetup(grid=grid, time_grid=TimeGrid(1.0, 250),
                                 coeffs=ModelCoefficients(0.0, 0.02),
                                 basis=make_basis(band_centers(n_theta), grid),
                                 f0=f0)
        return calibrate(setup, samples)

    target5 = np.array([2.9746, 1.8100, 1.0198, 0.4951, 0.2490])
    report5 = fit(5)
    rel = np.abs(report5.alpha_star - target5) / target5
    print(f"\nfull scale n_theta=5: {np.round(report5.alpha_star, 4)} "
          f"vs {target5} (rel {np.round(rel, 3)})")
    assert rel.max() < 0.10

    # the 3-hat fit is misspecified and its center rate is weakly identified;
    # reported for reference only (the optimum is realization-dependent)
    report3 = fit(3)
    print(f"full scale n_theta=3: {np.round(report3.alpha_star, 4)} "
          f"(J = {report3.j_star:.6f})")
