import math

import numpy as np
import pytest

from levyfit.simulate import (SimulationSpec, sample_bigamma,
                              sample_compound_poisson)
from levyfit.torus import TorusGrid, band_centers, make_basis


@pytest.fixture
def grid():
    return TorusGrid(-np.pi, np.pi, 128)


def cp_spec(**kw):
    base = dict(kind="compound_poisson", rates=(3.0, 2.0, 1.0, 0.5, 0.25),
                sigma2=0.02, t_final=1.0, n_samples=20_000, seed=0)
    base.update(kw)
    return SimulationSpec(**base)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SimulationSpec(kind="levy_flight")

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            cp_spec(rates=())
        with pytest.raises(ValueError):
            cp_spec(rates=(1.0, -0.1))
        with pytest.raises(ValueError):
            SimulationSpec(kind="bigamma", gamma_shape=0.0)
        with pytest.raises(ValueError):
            cp_spec(sigma2=-1.0)
        with pytest.raises(ValueError):
            cp_spec(n_samples=0)
        for bad in [dict(rates=(1.0, math.nan)), dict(rates=(math.inf, 1.0)),
                    dict(gamma_shape=math.nan), dict(gamma_rate=math.inf),
                    dict(seed=-1)]:
            for kind in ("compound_poisson", "bigamma"):
                with pytest.raises(ValueError):
                    SimulationSpec(kind=kind, **{"rates": (1.0, 0.5), **bad})


class TestCompoundPoisson:
    def test_reproducible_bit_identical(self, grid):
        basis = make_basis(band_centers(5), grid)
        a = sample_compound_poisson(cp_spec(seed=99), basis, grid)
        b = sample_compound_poisson(cp_spec(seed=99), basis, grid)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.jump_counts, b.jump_counts)
        c = sample_compound_poisson(cp_spec(seed=100), basis, grid)
        assert not np.array_equal(a.values, c.values)

    def test_no_jumps_gives_wrapped_gaussian(self, grid):
        basis = make_basis(band_centers(2), grid)
        spec = cp_spec(rates=(0.0, 0.0), n_samples=50_000, seed=1)
        ss = sample_compound_poisson(spec, basis, grid)
        assert np.all(ss.jump_counts == 0)
        circ_mean = np.angle(np.mean(np.exp(1j * ss.values)))
        sigma = math.sqrt(spec.sigma2 * spec.t_final)
        assert abs(circ_mean) < 4 * sigma / math.sqrt(spec.n_samples)

    def test_jump_count_intensity(self, grid):
        basis = make_basis(band_centers(5), grid)
        spec = cp_spec(n_samples=40_000, seed=5)
        ss = sample_compound_poisson(spec, basis, grid)
        lam = basis.delta * sum(spec.rates)
        se = math.sqrt(lam / spec.n_samples)
        assert abs(ss.jump_counts.mean() - lam * spec.t_final) < 5 * se

    def test_single_hat_jump_moments(self, grid):
        # symmetric triangular sizes: mean 0, variance delta^2 / 6; the
        # second hat has rate 0, so every jump is drawn from the first
        basis = make_basis([0.0, 0.4], grid)
        spec = SimulationSpec(kind="compound_poisson", rates=(5.0, 0.0),
                              sigma2=1e-12, t_final=1.0, n_samples=30_000,
                              seed=8)
        ss = sample_compound_poisson(spec, basis, grid)
        many = ss.jump_counts >= 1
        # paths without diffusion: raw sum = sum of triangular draws
        mean_per_jump = ss.raw[many] / ss.jump_counts[many]
        one = ss.jump_counts == 1
        sizes = ss.raw[one]
        var = basis.delta**2 / 6.0
        n1 = one.sum()
        assert abs(sizes.mean()) < 5 * math.sqrt(var / n1)
        kurt_term = math.sqrt(2.0 / n1) * var     # crude se of the variance
        assert abs(sizes.var() - var) < 5 * kurt_term
        assert np.all(np.abs(mean_per_jump) <= basis.delta + 1e-12)

    def test_characteristic_function_matches_exponent(self, grid):
        """E exp(i X_raw) against exp(T * psi(1)) with psi from quadrature."""
        basis = make_basis(band_centers(5), grid)
        spec = cp_spec(n_samples=100_000, seed=13)
        ss = sample_compound_poisson(spec, basis, grid)
        s = np.linspace(-2.0, 2.0, 40_001)
        density = np.asarray(spec.rates) @ basis.evaluate(s)
        psi = (1j * spec.drift - spec.sigma2 / 2.0
               + np.trapezoid((np.exp(1j * s) - 1.0) * density, s))
        target = np.exp(spec.t_final * psi)
        empirical = np.mean(np.exp(1j * ss.raw))
        assert abs(empirical - target) < 5.0 / math.sqrt(spec.n_samples)

    def test_initial_spread_draw(self, grid):
        basis = make_basis(band_centers(2), grid)
        spec = cp_spec(rates=(0.0, 0.0), sigma2=1e-12, n_samples=30_000,
                       seed=3, init_concentration=400.0)
        ss = sample_compound_poisson(spec, basis, grid)
        # raw values are now von Mises around 0 with circular std ~ 1/sqrt(k)
        assert abs(ss.raw.std() - 1.0 / math.sqrt(400.0)) < 0.005
        with pytest.raises(ValueError):
            cp_spec(init_concentration=-1.0)


class TestBigamma:
    def test_moments(self, grid):
        spec = SimulationSpec(kind="bigamma", gamma_shape=0.5, gamma_rate=1.0,
                              sigma2=0.02, t_final=1.0, n_samples=100_000,
                              seed=4)
        ss = sample_bigamma(spec, grid)
        var = 2 * spec.gamma_shape * spec.t_final / spec.gamma_rate**2
        var += spec.sigma2 * spec.t_final
        se_mean = math.sqrt(var / spec.n_samples)
        assert abs(ss.raw.mean()) < 5 * se_mean
        # difference of gammas: excess kurtosis exists, allow a generous band
        assert abs(ss.raw.var() - var) < 0.05 * var

    def test_skewness_fades_for_large_shape(self, grid):
        def skew(shape, seed):
            spec = SimulationSpec(kind="bigamma", gamma_shape=shape,
                                  gamma_rate=math.sqrt(2 * shape), sigma2=1e-12,
                                  t_final=1.0, n_samples=50_000, seed=seed)
            up = sample_bigamma(spec, grid).raw
            return abs(float(((up - up.mean())**3).mean()) / up.std()**3)

        assert skew(20.0, 6) < 0.05

    def test_rejects_wrong_kind(self, grid):
        with pytest.raises(ValueError):
            sample_bigamma(cp_spec(), grid)
