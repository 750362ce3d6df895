import numpy as np
import pytest

from levyfit.errors import ConfigError, IngestError
from levyfit.preprocess import (PreprocessSpec, preprocess_financial,
                                torus_diffusion, torus_drift)
from levyfit.samples import SampleSet, ingest_samples, snap_index, write_samples_csv
from levyfit.torus import TorusGrid


@pytest.fixture
def grid():
    return TorusGrid(-np.pi, np.pi, 16)


class TestSnapping:
    def test_nearest_node(self, grid):
        x = grid.points[5] + 0.3 * grid.h
        assert snap_index(x, grid) == 5
        x = grid.points[5] + 0.7 * grid.h
        assert snap_index(x, grid) == 6

    def test_half_tie_rounds_to_lower_index(self, grid):
        x = grid.points[5] + 0.5 * grid.h
        assert snap_index(x, grid) == 5

    def test_wraps_at_the_seam(self, grid):
        x = grid.upper - 0.2 * grid.h
        assert snap_index(x, grid) == 0

    def test_counts_sum_to_sample_size(self, grid, rng):
        values = rng.uniform(grid.lower, grid.upper, 1000)
        ss = SampleSet.from_values(values, grid)
        assert ss.cell_counts.sum() == 1000
        assert len(ss) == 1000
        assert np.array_equal(np.bincount(snap_index(values, grid),
                                          minlength=16), ss.cell_counts)

    def test_rejects_out_of_range(self, grid):
        with pytest.raises(ValueError, match="wrap"):
            SampleSet.from_values(np.array([grid.upper]), grid)
        # NaN passes both range comparisons, and snapping casts it to a cell
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                SampleSet.from_values(np.array([0.1, bad]), grid)


class TestIngest:
    def test_plain_values(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("0.1\n-0.2\n")
        assert np.array_equal(ingest_samples(path), [0.1, -0.2])

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# seed = 7\n\n1.5\n# trailing\n2.5\n")
        assert np.array_equal(ingest_samples(path), [1.5, 2.5])

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("0.1\n0.2\nabc\n0.4\n")
        with pytest.raises(IngestError, match="line 3"):
            ingest_samples(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        path = tmp_path / "s.csv"
        path.write_text(f"0.1\n{bad}\n0.4\n")
        with pytest.raises(IngestError, match="non-finite .* line 2"):
            ingest_samples(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# only a comment\n")
        with pytest.raises(IngestError, match="no sample"):
            ingest_samples(path)

    def test_write_read_round_trip(self, tmp_path, rng):
        path = tmp_path / "rt.csv"
        values = rng.normal(size=50)
        write_samples_csv(path, values, metadata={"seed": 3})
        assert np.array_equal(ingest_samples(path), values)


class TestPreprocess:
    def test_drift_scaling(self):
        spec = PreprocessSpec(band_lo=-0.03, band_hi=0.03)
        assert torus_drift(6.787e-4, spec) == pytest.approx(
            6.787e-4 * np.pi / 0.03, rel=1e-14)

    def test_diffusion_scaling(self):
        spec = PreprocessSpec(band_lo=-0.03, band_hi=0.03,
                              diffusion_fraction=0.25)
        expected = 0.25 * 8.655e-5 * (np.pi / 0.03) ** 2
        got = torus_diffusion(8.655e-5, spec)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(0.2372, abs=1e-4)

    def test_wrap_counts_out_of_band_points(self, rng):
        spec = PreprocessSpec(band_lo=-0.03, band_hi=0.03)
        inside = rng.uniform(-0.02, 0.02, 997)
        outliers = np.array([-0.035, -0.04, -0.05])
        result = preprocess_financial(np.concatenate([inside, outliers]), spec)
        assert result.n_wrapped == 3
        assert result.n_discarded == 0
        assert len(result.values) == 1000
        assert np.all((result.values >= -np.pi) & (result.values < np.pi))
        # a wrapped negative outlier lands on the positive side
        wrapped = result.values[-3:]
        assert np.all(wrapped > 0)

    def test_wrap_lands_below_the_upper_edge(self):
        # just below band_lo maps to a hair below -pi; wrapped by a plain
        # modulus it rounds up to +pi, the same point as -pi but outside
        # [-pi, pi)
        raw = np.array([np.nextafter(-0.03, -1.0), 0.01, -0.01])
        result = preprocess_financial(raw, PreprocessSpec())
        assert result.n_wrapped == 1
        assert result.values[0] == -np.pi

    def test_discard_mode(self, rng):
        spec = PreprocessSpec(outside="discard")
        inside = rng.uniform(-0.02, 0.02, 50)
        result = preprocess_financial(np.concatenate([inside, [0.05]]), spec)
        assert result.n_discarded == 1
        assert len(result.values) == 50

    def test_statistics_from_raw_series(self, rng):
        spec = PreprocessSpec()
        data = rng.normal(2e-4, 0.008, 800)
        result = preprocess_financial(data, spec)
        assert result.raw_mean == pytest.approx(float(data.mean()))
        assert result.raw_variance == pytest.approx(float(data.var()))
        assert result.drift == pytest.approx(result.raw_mean * np.pi / 0.03)
        assert result.diffusion == pytest.approx(
            0.25 * result.raw_variance * (np.pi / 0.03) ** 2)

    def test_zero_variance_rejected(self):
        with pytest.raises(ConfigError, match="variance"):
            preprocess_financial(np.zeros(100), PreprocessSpec())

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            PreprocessSpec(band_lo=0.1, band_hi=0.0)
        with pytest.raises(ConfigError):
            PreprocessSpec(diffusion_fraction=0.0)
        with pytest.raises(ConfigError):
            PreprocessSpec(outside="ignore")

    @pytest.mark.parametrize("lo,hi", [
        (-0.03, np.inf), (-np.inf, 0.03),
        # the stretch 2*pi/(hi - lo) squares to 0, then overflows
        (-1e308, 1e308), (0.0, 1e-170)])
    def test_band_needs_finite_edges_and_stretch(self, lo, hi):
        with pytest.raises(ConfigError, match="band"):
            PreprocessSpec(band_lo=lo, band_hi=hi)
