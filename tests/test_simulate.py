import math

import numpy as np
import pytest

from levyfit.simulate import (SimulationSpec, sample_bigamma,
                              sample_compound_poisson)
from levyfit.torus import TorusGrid, band_centers, make_basis


@pytest.fixture
def grid():
    return TorusGrid(-np.pi, np.pi, 128)


@pytest.fixture
def wide():
    """A torus on which no sample of these tests wraps, so the terminal
    values are the real-line sums themselves."""
    return TorusGrid(-64.0, 64.0, 1024)


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
        assert a.values.tobytes() == b.values.tobytes()
        c = sample_compound_poisson(cp_spec(seed=100), basis, grid)
        assert not np.array_equal(a.values, c.values)

    def test_no_jumps_gives_wrapped_gaussian(self, grid):
        basis = make_basis(band_centers(2), grid)
        spec = cp_spec(rates=(0.0, 0.0), n_samples=50_000, seed=1)
        ss = sample_compound_poisson(spec, basis, grid)
        first = np.mean(np.exp(1j * ss.values))
        sigma = math.sqrt(spec.sigma2 * spec.t_final)
        assert abs(np.angle(first)) < 4 * sigma / math.sqrt(spec.n_samples)
        # |E exp(iX)| = exp(-sigma^2 t / 2) for X ~ N(0, sigma^2 t)
        assert abs(abs(first) - math.exp(-sigma**2 / 2.0)) < 1e-3

    def test_jump_count_intensity(self, grid):
        # without diffusion or start spread, a path that never jumps ends
        # exactly at init_center, so the share of such values is exp(-lam t)
        basis = make_basis(band_centers(5), grid)
        spec = cp_spec(sigma2=0.0, n_samples=40_000, seed=5)
        ss = sample_compound_poisson(spec, basis, grid)
        p0 = math.exp(-basis.delta * sum(spec.rates) * spec.t_final)
        se = math.sqrt(p0 * (1.0 - p0) / spec.n_samples)
        share = np.mean(ss.values == spec.init_center)
        assert abs(share - p0) < 5 * se

    def test_single_hat_jump_moments(self, wide):
        # compound Poisson of symmetric triangular sizes on [-delta, delta]:
        # mean 0 and variance lam t delta^2 / 6, with lam = 5 * delta; the
        # second hat has rate 0, so every jump is drawn from the first
        basis = make_basis([0.0, 0.4], wide)
        spec = SimulationSpec(kind="compound_poisson", rates=(5.0, 0.0),
                              sigma2=0.0, t_final=1.0, n_samples=30_000,
                              seed=8)
        x = sample_compound_poisson(spec, basis, wide).values
        lam_t = 5.0 * basis.delta * spec.t_final
        var = lam_t * basis.delta**2 / 6.0
        kappa4 = lam_t * basis.delta**4 / 15.0    # lam t E[size^4]
        n = spec.n_samples
        assert abs(x.mean()) < 5 * math.sqrt(var / n)
        assert abs(x.var() - var) < 5 * math.sqrt((kappa4 + 2 * var**2) / n)

    def test_characteristic_function_matches_exponent(self, grid):
        """E exp(i X) against exp(T * psi(1)) with psi from quadrature; on
        the 2 pi torus exp(i * values) is exp(i X) of the unwrapped X."""
        basis = make_basis(band_centers(5), grid)
        spec = cp_spec(n_samples=100_000, seed=13)
        ss = sample_compound_poisson(spec, basis, grid)
        s = np.linspace(-2.0, 2.0, 40_001)
        density = np.asarray(spec.rates) @ basis.evaluate(s)
        psi = (1j * spec.drift - spec.sigma2 / 2.0
               + np.trapezoid((np.exp(1j * s) - 1.0) * density, s))
        target = np.exp(spec.t_final * psi)
        empirical = np.mean(np.exp(1j * ss.values))
        assert abs(empirical - target) < 5.0 / math.sqrt(spec.n_samples)

    def test_initial_spread_draw(self, wide):
        basis = make_basis(band_centers(2), wide)
        spec = cp_spec(rates=(0.0, 0.0), sigma2=0.0, n_samples=30_000,
                       seed=3, init_concentration=400.0)
        ss = sample_compound_poisson(spec, basis, wide)
        # von Mises around 0 with circular std ~ 1/sqrt(kappa), its period
        # stretched to the torus length
        stretch = wide.length / (2.0 * math.pi)
        assert abs(ss.values.std() / stretch - 1.0 / math.sqrt(400.0)) < 0.005
        with pytest.raises(ValueError):
            cp_spec(init_concentration=-1.0)


class TestBigamma:
    def test_moments(self, wide):
        spec = SimulationSpec(kind="bigamma", gamma_shape=0.5, gamma_rate=1.0,
                              sigma2=0.02, t_final=1.0, n_samples=100_000,
                              seed=4)
        x = sample_bigamma(spec, wide).values
        var = 2 * spec.gamma_shape * spec.t_final / spec.gamma_rate**2
        var += spec.sigma2 * spec.t_final
        se_mean = math.sqrt(var / spec.n_samples)
        assert abs(x.mean()) < 5 * se_mean
        # difference of gammas: excess kurtosis exists, allow a generous band
        assert abs(x.var() - var) < 0.05 * var

    def test_skewness_fades_for_large_shape(self, wide):
        def skew(shape, seed):
            spec = SimulationSpec(kind="bigamma", gamma_shape=shape,
                                  gamma_rate=math.sqrt(2 * shape), sigma2=0.0,
                                  t_final=1.0, n_samples=50_000, seed=seed)
            x = sample_bigamma(spec, wide).values
            return abs(float(((x - x.mean())**3).mean()) / x.std()**3)

        assert skew(20.0, 6) < 0.05

    def test_rejects_wrong_kind(self, grid):
        with pytest.raises(ValueError):
            sample_bigamma(cp_spec(), grid)
