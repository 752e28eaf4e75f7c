"""Core types and replicate summarization."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathkf.core
from pathkf import (
    VARIANCE_FLOOR,
    GaussianEstimate,
    GroundTruth,
    InvalidDataError,
    ModelKind,
    TimeGrid,
    TimeSeriesData,
    Trajectory,
    classify_regimes,
    q_ratio_summary,
    run_pkf,
    summarize_samples,
)
from pathkf.bench import ALGORITHMS, AlgorithmSpec, run_spec

from oracles import replicate_summary


def arrays_in(obj):
    """Every numpy array reachable from ``obj`` through instance attributes,
    tuples and lists."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in arrays_in(item)]
    if hasattr(obj, "__dict__"):
        return [a for value in vars(obj).values() for a in arrays_in(value)]
    return []


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

    @pytest.mark.parametrize(
        "samples, problem",
        [
            ((np.array([1.0, np.nan]), np.array([2.0]), np.array([3.0])),
             "timepoint 0 (t=0.0): samples must be finite"),
            ((np.array([1.0]), np.array([2.0]), np.array([3.0, np.inf])),
             "timepoint 2 (t=2.5): samples must be finite"),
            ((np.array([1.0]), np.ones((2, 2)), np.array([3.0])),
             "timepoint 1 (t=1.0): samples must be one-dimensional"),
            ((np.array([1.0]), np.array([]), np.array([2.0])),
             "timepoint 1 (t=1.0) has no samples"),
            ((np.array([1.0]), np.array([1e308, 1e308]), np.array([2.0])),
             "timepoint 1 (t=1.0): mean and variance must be finite"),
        ],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_series_errors_name_series_and_timepoint(self, samples, problem):
        grid = TimeGrid([0.0, 1.0, 2.5])
        with pytest.raises(InvalidDataError) as err:
            TimeSeriesData("s", grid, samples)
        assert str(err.value) == f"series 's': {problem}"

    def test_value_types_stay_read_only_when_pickled(self):
        grid = TimeGrid([0.0, 1.0, 2.0])
        samples = (np.array([1.0, 2.0]), np.array([3.0]), np.array([4.0]))
        data = TimeSeriesData("s", grid, samples)
        values = (
            grid,
            data,
            Trajectory(grid, [1.0, 2.0, 3.0], [0.1, 0.2, 0.3]),
            GroundTruth(grid, [1.0, 2.0, 3.0]),
            run_pkf(data, iterations=2, retain_history=True),
        )
        for value in values:
            back = pickle.loads(pickle.dumps(value))
            arrays = arrays_in(back)
            assert arrays, type(value).__name__
            assert not any(a.flags.writeable for a in arrays), type(value).__name__


def random_layout(n, seed, log_scale):
    """``n`` replicate groups of 1-120 values at scale ``10**log_scale``."""
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    return tuple(
        rng.normal(rng.uniform(-2.0, 2.0) * scale, scale, int(count))
        for count in rng.integers(1, 121, n)
    )


class TestSeriesSummaries:
    @settings(deadline=None, max_examples=100)
    @given(st.integers(3, 40), st.integers(0, 2**32 - 1), st.floats(-6.0, 8.0))
    def test_bitwise_equal_to_per_group_summaries(self, n, seed, log_scale):
        groups = random_layout(n, seed, log_scale)
        grid = TimeGrid(np.arange(n, dtype=float))
        means, variances = TimeSeriesData("s", grid, groups).summaries()
        one_by_one = [summarize_samples(g) for g in groups]
        assert means.tobytes() == np.array([e.mean for e in one_by_one]).tobytes()
        assert variances.tobytes() == np.array([e.variance for e in one_by_one]).tobytes()
        oracle = np.array([replicate_summary(g) for g in groups])
        assert means.tobytes() == oracle[:, 0].tobytes()
        assert variances.tobytes() == oracle[:, 1].tobytes()

    def test_summaries_are_read_only_and_computed_once(self):
        data = TimeSeriesData("s", TimeGrid(np.arange(5.0)), random_layout(5, 0, 1.0))
        means, variances = data.summaries()
        assert not means.flags.writeable and not variances.flags.writeable
        again = data.summaries()
        assert again[0] is means and again[1] is variances
        assert not any(group.flags.writeable for group in data.samples)

    def test_analysis_calls_never_summarize_again(self, monkeypatch):
        kernel = pathkf.core._summarize_replicates
        calls = []

        def spy(values, counts):
            calls.append(len(counts))
            return kernel(values, counts)

        monkeypatch.setattr(pathkf.core, "_summarize_replicates", spy)
        times = np.arange(6.0)
        samples = tuple(np.array([5.0 + t, 6.0 + t]) for t in times)
        data = TimeSeriesData("s", TimeGrid(times), samples)
        assert calls == [6]
        result = run_pkf(data, ModelKind.BIRTH_DEATH, iterations=2)
        classify_regimes(result, data)
        q_ratio_summary([("all", result, data)])
        for name in ALGORITHMS:
            run_spec(AlgorithmSpec(name, name), data, ModelKind.BIRTH_DEATH)
        assert calls == [6]
