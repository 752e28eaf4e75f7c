"""Core types and replicate summarization."""

import numpy as np
import pytest

from pathkf import (
    VARIANCE_FLOOR,
    GaussianEstimate,
    InvalidDataError,
    TimeGrid,
    TimeSeriesData,
    Trajectory,
    summarize_samples,
)


class TestSummarizeSamples:
    def test_identical_replicates_clamp_to_floor(self):
        est = summarize_samples([1.0, 1.0, 1.0])
        assert est.mean == 1.0
        assert est.variance == VARIANCE_FLOOR

    def test_bessel_corrected_variance(self):
        est = summarize_samples([0.0, 2.0])
        assert est.mean == 1.0
        assert est.variance == 2.0

    def test_single_replicate_uses_floor(self):
        est = summarize_samples([5.0])
        assert est.mean == 5.0
        assert est.variance == VARIANCE_FLOOR

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidDataError):
            summarize_samples([])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidDataError):
            summarize_samples([1.0, np.nan])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        values = rng.normal(3.0, 2.0, 25)
        shuffled = values.copy()
        rng.shuffle(shuffled)
        a = summarize_samples(values)
        b = summarize_samples(shuffled)
        np.testing.assert_allclose([a.mean, a.variance], [b.mean, b.variance], rtol=1e-12)

    def test_variance_floor_and_finite_for_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            est = summarize_samples(rng.normal(0.0, 10.0, n))
            assert est.variance >= VARIANCE_FLOOR
            assert np.isfinite(est.mean) and np.isfinite(est.variance)

    def test_mean_converges_at_sampling_rate(self):
        # 5-sigma band on the standard error of the mean at n = 10_000
        rng = np.random.default_rng(2)
        mu, sigma, n = 7.0, 3.0, 10_000
        est = summarize_samples(rng.normal(mu, sigma, n))
        assert abs(est.mean - mu) <= 5.0 * sigma / np.sqrt(n)


class TestTypes:
    def test_grid_requires_three_points(self):
        with pytest.raises(InvalidDataError):
            TimeGrid([0.0, 1.0])

    def test_grid_requires_strictly_increasing(self):
        with pytest.raises(InvalidDataError):
            TimeGrid([0.0, 1.0, 1.0])

    def test_grid_is_readonly(self):
        grid = TimeGrid([0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            grid.times[0] = -1.0

    def test_gaussian_estimate_rejects_negative_variance(self):
        with pytest.raises(InvalidDataError):
            GaussianEstimate(0.0, -1.0)

    def test_series_validates_lengths(self):
        grid = TimeGrid([0.0, 1.0, 2.0])
        with pytest.raises(InvalidDataError):
            TimeSeriesData("s", grid, (np.array([1.0]), np.array([2.0])))

    def test_series_rejects_empty_timepoint(self):
        grid = TimeGrid([0.0, 1.0, 2.0])
        with pytest.raises(InvalidDataError):
            TimeSeriesData("s", grid, (np.array([1.0]), np.array([]), np.array([2.0])))

    def test_series_summaries_match_scalar_op(self):
        grid = TimeGrid([0.0, 1.0, 2.0])
        data = TimeSeriesData(
            "s", grid, (np.array([0.0, 2.0]), np.array([5.0]), np.array([1.0, 1.0]))
        )
        means, variances = data.summaries()
        np.testing.assert_allclose(means, [1.0, 5.0, 1.0])
        np.testing.assert_allclose(variances, [2.0, VARIANCE_FLOOR, VARIANCE_FLOOR])

    def test_trajectory_estimates_round_trip(self):
        grid = TimeGrid([0.0, 1.0, 2.0])
        traj = Trajectory(grid, [1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
        assert traj.estimate(1) == GaussianEstimate(2.0, 0.2)
