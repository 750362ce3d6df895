import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levyfit.torus import (ModelCoefficients, TimeGrid, TorusGrid, band_centers,
                           make_basis, project_to_torus, tiling_centers,
                           von_mises_density)


@pytest.fixture
def grid():
    return TorusGrid(-np.pi, np.pi, 64)


class TestTorusGrid:
    def test_spacing_and_points(self, grid):
        assert grid.h == pytest.approx(2 * np.pi / 64)
        assert np.all(np.diff(grid.points) > 0)
        assert grid.points[0] == pytest.approx(-np.pi)

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            TorusGrid(1.0, 1.0, 16)
        with pytest.raises(ValueError):
            TorusGrid(0.0, 1.0, 2)
        for lower, upper in [(-math.inf, 1.0), (0.0, math.inf),
                             (math.nan, 1.0), (0.0, math.nan)]:
            with pytest.raises(ValueError, match="finite"):
                TorusGrid(lower, upper, 16)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lower, upper", [(-1e300, 1.0), (0.0, 1e300)])
    def test_rejects_edges_whose_wrap_can_overflow(self, lower, upper):
        # an edge of 1e290 or less added to any finite value stays finite
        with pytest.raises(ValueError, match="within"):
            TorusGrid(lower, upper, 16)
        grid = TorusGrid(-1e290, 1e290, 16)
        assert np.isfinite(project_to_torus(np.array(
            [np.finfo(float).max, -np.finfo(float).max]), grid)).all()

    def test_translation_nodes_are_grid_points_when_aligned(self, grid):
        # lower = -pi = -(n/2)*h, so the node set equals the point set
        assert np.allclose(np.sort(grid.translation_nodes),
                           np.sort(grid.points), atol=1e-12)


class TestProjection:
    def test_in_range_identity(self, grid):
        assert project_to_torus(0.3, grid) == pytest.approx(0.3, abs=1e-15)

    def test_one_period_wrap(self, grid):
        assert project_to_torus(np.pi + 0.1, grid) == pytest.approx(-np.pi + 0.1)

    def test_multi_period_wrap(self, grid):
        # -7.0 + 2*pi lies inside [-pi, pi)
        assert project_to_torus(-7.0, grid) == pytest.approx(-7.0 + 2 * np.pi,
                                                             abs=1e-12)

    def test_range_and_periodicity(self, grid, rng=np.random.default_rng(0)):
        y = rng.uniform(-50, 50, 500)
        x = project_to_torus(y, grid)
        assert np.all((x >= grid.lower) & (x < grid.upper))
        assert np.allclose(project_to_torus(y + grid.length, grid), x, atol=1e-12)

    def test_group_homomorphism_on_grid_values(self, grid):
        rng = np.random.default_rng(3)
        k = grid.length
        for _ in range(200):
            y1, y2 = grid.lower + grid.h * rng.integers(-200, 200, 2)
            a = project_to_torus(y1 + y2, grid)
            b = project_to_torus(project_to_torus(y1, grid)
                                 + project_to_torus(y2, grid), grid)
            diff = abs(a - b)
            assert min(diff, abs(diff - k)) < 1e-9

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(lower=st.floats(-100.0, 100.0), length=st.floats(1e-3, 100.0),
           y=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=50))
    # 2.0 + mod(y - 2.0, 0.5) rounds up to 2.5 = upper
    @example(lower=2.0, length=0.5, y=[1.4999999999999998])
    def test_lands_in_domain_and_is_periodic_on_random_grids(self, lower,
                                                             length, y):
        grid = TorusGrid(lower, lower + length, 16)
        y = np.array(y)
        x = project_to_torus(y, grid)
        assert np.all((x >= grid.lower) & (x < grid.upper))
        # K-periodic up to the roundoff of forming y + K and reducing it
        gap = np.abs(project_to_torus(y + grid.length, grid) - x)
        gap = np.minimum(gap, grid.length - gap)
        eps = np.finfo(float).eps
        assert np.all(gap <= 8 * eps * (np.abs(y) + grid.length
                                        + abs(grid.lower)))


class TestBasis:
    def test_interior_band_centers(self):
        centers = band_centers(5, -1.0, 1.0)
        assert np.allclose(centers, -1.0 + np.arange(1, 6) * (2.0 / 6.0))

    def test_tiling_centers(self, grid):
        centers = tiling_centers(9, grid)
        assert centers[0] == pytest.approx(-np.pi)
        assert np.allclose(np.diff(centers), 2 * np.pi / 9)

    def test_hat_apex_and_edges(self, grid):
        basis = make_basis(band_centers(5), grid)
        c = basis.centers[2]
        assert basis.evaluate([c])[2, 0] == pytest.approx(1.0)
        assert basis.evaluate([c - basis.delta])[2, 0] == pytest.approx(0.0)
        assert basis.evaluate([c + basis.delta])[2, 0] == pytest.approx(0.0)
        mid = basis.evaluate([c + basis.delta / 2])[2, 0]
        assert mid == pytest.approx(0.5)

    def test_rejects_nonuniform_centers(self, grid):
        with pytest.raises(ValueError, match="equally spaced"):
            make_basis([0.0, 0.5, 1.2], grid)

    def test_single_hat_needs_delta(self, grid):
        with pytest.raises(ValueError):
            make_basis([0.0], grid)
        basis = make_basis([0.0], grid, delta=0.4)
        assert basis.delta == 0.4

    def test_rejects_oversized_support(self, grid):
        with pytest.raises(ValueError):
            make_basis([0.0], grid, delta=grid.length)

    def test_rejects_hats_that_cover_no_grid_node(self):
        # 40 band hats on 32 cells: half-width 2/41 is below h/2, so some
        # hats fall between two nodes and would carry a rate nothing sees
        grid = TorusGrid(-np.pi, np.pi, 32)
        with pytest.raises(ValueError, match="cover no grid node"):
            make_basis(band_centers(40), grid)
        basis = make_basis(band_centers(40), TorusGrid(-np.pi, np.pi, 128))
        assert np.all(basis.samples.max(axis=1) > 0)

    def test_hat_wraps_across_the_seam(self, grid):
        basis = make_basis(tiling_centers(8, grid), grid)
        # the hat centered at -pi must rise again near +pi
        val = basis.evaluate([np.pi - 0.25 * basis.delta])[0, 0]
        assert val == pytest.approx(0.75)

    def test_samples_bounded(self, grid):
        basis = make_basis(band_centers(4), grid)
        assert basis.samples.min() >= 0.0
        assert basis.samples.max() <= 1.0

    def test_partition_of_unity_for_full_tiling(self, grid):
        basis = make_basis(tiling_centers(8, grid), grid)
        assert np.allclose(basis.samples.sum(axis=0), 1.0, atol=1e-12)
        x = np.linspace(-np.pi, np.pi, 333, endpoint=False)
        assert np.allclose(basis.evaluate(x).sum(axis=0), 1.0, atol=1e-12)

    def test_sampled_hat_mass_exact_when_node_aligned(self):
        grid = TorusGrid(-np.pi, np.pi, 16)
        delta = 2 * grid.h
        basis = make_basis([0.0, delta], grid)
        masses = grid.h * basis.samples.sum(axis=1)
        assert np.allclose(masses, delta, atol=1e-14)

    def test_sampled_hat_mass_quadrature_error(self, grid):
        basis = make_basis(band_centers(5), grid)  # kinks off the mesh
        masses = grid.h * basis.samples.sum(axis=1)
        assert np.all(np.abs(masses - basis.delta) < 2 * grid.h**2)


class TestVonMises:
    def test_unit_mass_and_nonnegative(self, grid):
        f = von_mises_density(grid, 0.0, 400.0)
        assert np.all(f >= 0)
        assert grid.h * f.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(np.isfinite(f))

    def test_sharply_peaked_at_center(self, grid):
        f = von_mises_density(grid, 0.0, 400.0)
        assert f.max() / np.median(f) > 1e3

    def test_flat_limit(self, grid):
        f = von_mises_density(grid, 0.0, 1e-12)
        assert np.allclose(f, 1.0 / grid.length, rtol=1e-9)

    def test_mode_at_nearest_grid_point(self, grid):
        mu = 0.37
        f = von_mises_density(grid, mu, 50.0)
        nearest = grid.points[np.argmin(np.abs(grid.points - mu))]
        assert grid.points[np.argmax(f)] == pytest.approx(nearest)

    def test_rejects_nonpositive_kappa(self, grid):
        with pytest.raises(ValueError):
            von_mises_density(grid, 0.0, 0.0)

    @pytest.mark.parametrize("mu, kappa", [
        (0.0, math.nan), (0.0, math.inf), (math.inf, 400.0), (math.nan, 400.0)])
    def test_rejects_non_finite_parameters(self, grid, mu, kappa):
        with pytest.raises(ValueError, match="finite"):
            von_mises_density(grid, mu, kappa)

    def test_rejects_a_peak_that_misses_every_node(self, grid):
        # exp underflows at every node when the peak sits between two
        with pytest.raises(ValueError, match="too sharp"):
            von_mises_density(grid, grid.h / 2, 1e300)


def test_time_grid():
    tg = TimeGrid(1.0, 250)
    assert tg.dt == pytest.approx(1.0 / 250)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1)
    for t_final in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            TimeGrid(t_final, 10)


def test_model_coefficients():
    co = ModelCoefficients(drift=0.3, sigma2=0.02)
    assert co.adv == -0.3
    assert co.diff == pytest.approx(0.01)
    # 5e-324 is positive, but C = sigma2/2 underflows to 0
    for drift, sigma2 in [(0.0, 0.0), (0.0, 5e-324), (0.0, math.nan),
                          (0.0, math.inf), (math.nan, 0.02), (-math.inf, 0.02)]:
        with pytest.raises(ValueError):
            ModelCoefficients(drift=drift, sigma2=sigma2)
