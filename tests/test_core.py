"""Core types and replicate summarization."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathkf.core
from pathkf import (
    VARIANCE_FLOOR,
    GroundTruth,
    InvalidDataError,
    ModelKind,
    TimeGrid,
    TimeSeriesData,
    Trajectory,
    classify_regimes,
    q_ratio_summary,
    run_pkf,
)
from pathkf.bench import ALGORITHMS, AlgorithmSpec, run_spec

from oracles import replicate_summary

#: ``iterations`` counts that every iterating entry point rejects, each with
#: the message of its ``InvalidParameterError``: below 1, or not a Python or
#: numpy integer (a ``bool`` included), where ``range`` would raise a bare
#: ``TypeError`` or a ``True`` would count one pass.
BAD_ITERATIONS = [
    pytest.param(0, "^iterations must be at least 1$", id="0"),
    pytest.param(-2, "^iterations must be at least 1$", id="-2"),
    pytest.param(2.0, r"^iterations must be an integer, got 2\.0$", id="2.0"),
    pytest.param(2.5, r"^iterations must be an integer, got 2\.5$", id="2.5"),
    pytest.param("3", "^iterations must be an integer, got '3'$", id="str"),
    pytest.param(True, "^iterations must be an integer, got True$", id="True"),
]


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


def summary_of(samples) -> tuple[float, float]:
    """The summary of one replicate group, as the middle timepoint of a series."""
    grid = TimeGrid([0.0, 1.0, 2.0])
    means, variances = TimeSeriesData("s", grid, ([0.0], samples, [0.0])).summaries()
    return float(means[1]), float(variances[1])


class TestSummaries:
    def test_identical_replicates_clamp_to_floor(self):
        assert summary_of([1.0, 1.0, 1.0]) == (1.0, VARIANCE_FLOOR)

    def test_bessel_corrected_variance(self):
        assert summary_of([0.0, 2.0]) == (1.0, 2.0)

    def test_single_replicate_uses_floor(self):
        assert summary_of([5.0]) == (5.0, VARIANCE_FLOOR)

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidDataError):
            summary_of([])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidDataError):
            summary_of([1.0, np.nan])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        values = rng.normal(3.0, 2.0, 25)
        shuffled = values.copy()
        rng.shuffle(shuffled)
        np.testing.assert_allclose(summary_of(values), summary_of(shuffled), rtol=1e-12)

    def test_variance_floor_and_finite_for_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            mean, variance = summary_of(rng.normal(0.0, 10.0, n))
            assert variance >= VARIANCE_FLOOR
            assert np.isfinite(mean) and np.isfinite(variance)

    def test_mean_converges_at_sampling_rate(self):
        # 5-sigma band on the standard error of the mean at n = 10_000
        rng = np.random.default_rng(2)
        mu, sigma, n = 7.0, 3.0, 10_000
        mean, _ = summary_of(rng.normal(mu, sigma, n))
        assert abs(mean - mu) <= 5.0 * sigma / np.sqrt(n)


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

    def test_series_pickles_as_one_values_array(self):
        data = TimeSeriesData("s", TimeGrid(np.arange(14.0)), random_layout(14, 3, 2.0))
        payload = pickle.dumps(data)
        back = pickle.loads(payload)
        assert back.series_id == data.series_id
        assert back.grid.times.tobytes() == data.grid.times.tobytes()
        assert [g.tobytes() for g in back.samples] == [g.tobytes() for g in data.samples]
        for got, want in zip(back.summaries(), data.summaries()):
            assert got.tobytes() == want.tobytes()
        arrays = [*back.samples, *back.summaries(), back.grid.times]
        assert not any(a.flags.writeable for a in arrays)
        # the fields one by one, as a default dataclass pickle would ship them
        fields = (data.series_id, data.grid, data.samples, data.summaries())
        assert len(payload) < len(pickle.dumps(fields))

    def test_unpickling_skips_the_checks_and_summaries(self, monkeypatch):
        payload = pickle.dumps(TimeSeriesData("s", TimeGrid(np.arange(4.0)), random_layout(4, 1, 0.0)))
        monkeypatch.setattr(pathkf.core, "_summarize_replicates", None)
        assert pickle.loads(payload).summaries()[0].shape == (4,)


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
            run_spec(AlgorithmSpec(name, name), (data,), ModelKind.BIRTH_DEATH)[0]
        assert calls == [6]
