import math

import numpy as np
import pytest

from levyfit.likelihood import aic_score, evaluate_objective
from levyfit.samples import SampleSet
from levyfit.torus import TorusGrid


@pytest.fixture
def grid():
    return TorusGrid(-np.pi, np.pi, 16)


def set_from_indices(grid, indices):
    return SampleSet.from_values(grid.points[np.asarray(indices)], grid)


class TestObjective:
    def test_log_one_is_zero(self, grid):
        ss = set_from_indices(grid, [3])
        f = np.full(16, 0.2)
        f[3] = 1.0
        assert evaluate_objective(f, ss).value == pytest.approx(0.0, abs=1e-15)

    def test_mean_of_logs(self, grid):
        ss = set_from_indices(grid, [2, 9])
        f = np.full(16, 0.1)
        f[2] = f[9] = math.e
        assert evaluate_objective(f, ss).value == pytest.approx(1.0, rel=1e-14)

    def test_floor_kicks_in_at_zero_density(self, grid):
        ss = set_from_indices(grid, [5])
        f = np.full(16, 0.4)
        f[5] = 0.0
        out = evaluate_objective(f, ss, eps=1e-12)
        assert out.value == pytest.approx(math.log(1e-12), rel=1e-14)
        assert out.value == pytest.approx(-27.631, abs=1e-3)
        assert out.floored_count == 1

    def test_cell_exactly_at_the_floor_counts_as_floored(self, grid):
        # the adjoint's terminal data treats f <= eps as flat, and so does
        # the count
        ss = set_from_indices(grid, [5, 5, 9])
        f = np.full(16, 0.4)
        f[5] = 1e-12
        out = evaluate_objective(f, ss, eps=1e-12)
        assert out.floored_count == 2
        assert out.value == pytest.approx((2 * math.log(1e-12)
                                           + math.log(0.4)) / 3, rel=1e-14)

    def test_invariant_under_sample_permutation(self, grid, rng):
        idx = rng.integers(0, 16, 40)
        f = rng.uniform(0.1, 2.0, 16)
        a = evaluate_objective(f, set_from_indices(grid, idx))
        b = evaluate_objective(f, set_from_indices(grid, rng.permutation(idx)))
        assert a.value == b.value

    def test_duplicate_sample_update_identity(self, grid, rng):
        idx = list(rng.integers(0, 16, 25))
        f = rng.uniform(0.1, 2.0, 16)
        base = evaluate_objective(f, set_from_indices(grid, idx)).value
        dup = idx[7]
        grown = evaluate_objective(f, set_from_indices(grid, idx + [dup])).value
        expected_change = (math.log(f[dup]) - base) / (len(idx) + 1)
        assert grown - base == pytest.approx(expected_change, rel=1e-12)

    def test_mean_objective_stable_under_doubling_sample_size(self, grid, rng):
        # objective is a sample mean: doubling L only adds statistical noise,
        # while the score's data term L*J scales linearly by construction
        f = rng.uniform(0.05, 0.3, 16)   # logs well away from zero
        idx_small = rng.integers(0, 16, 4000)
        idx_big = np.concatenate([idx_small, rng.integers(0, 16, 4000)])
        j_small = evaluate_objective(f, set_from_indices(grid, idx_small)).value
        j_big = evaluate_objective(f, set_from_indices(grid, idx_big)).value
        per_sample_std = float(np.std(np.log(f[idx_big])))
        assert abs(j_big - j_small) < 5 * per_sample_std / math.sqrt(4000)
        data_term_small = aic_score(j_small, 4000, 3) + math.log(3)
        data_term_big = aic_score(j_big, 8000, 3) + math.log(3)
        assert data_term_big / data_term_small == pytest.approx(2.0, rel=0.02)


class TestAicScore:
    def test_trivial_value(self):
        assert aic_score(0.0, 100, 1) == 0.0

    def test_monotone_penalty(self):
        scores = [aic_score(-1.2, 1000, n) for n in range(1, 10)]
        assert all(a > b for a, b in zip(scores, scores[1:]))

    def test_log_penalty_formula(self):
        assert aic_score(-0.5, 200, 6) == pytest.approx(-100 - math.log(6))

    def test_classic_penalty(self):
        assert aic_score(-0.5, 200, 6, penalty="classic") == pytest.approx(-106.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            aic_score(0.0, 10, 0)
        with pytest.raises(ValueError):
            aic_score(0.0, 10, 3, penalty="bogus")
