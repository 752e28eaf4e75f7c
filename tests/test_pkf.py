"""Pathspace filter: weights, uncertainty update, step, full runs, regimes."""

import collections
import dataclasses
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pathkf import (
    VARIANCE_FLOOR,
    BirthDeathScenario,
    InvalidConfigError,
    InvalidDataError,
    InvalidParameterError,
    ModelKind,
    NumericalOverflowError,
    PathkfError,
    PkfResult,
    PkfWeights,
    RegimeLabel,
    SplinePathModel,
    TimeGrid,
    TimeSeriesData,
    Trajectory,
    classify_regimes,
    pkf_weights,
    run_adaptive_kf,
    run_ipls,
    run_pkf,
    run_ukf,
    run_urts,
    simulate_birth_death,
    update_process_uncertainty,
)
from pathkf.baselines import FlowStepDynamics
from pathkf.bench import ALGORITHMS, BLOCK_ROWS, run_spec
from pathkf.cli import RunConfig, batch_run, result_record, write_batch_results
from pathkf.pkf import PkfState, run_pkf_block

from oracles import (
    GaussianEstimate,
    LinearPathModel,
    ModelPrediction,
    brute_force_weights,
    classify_regime,
    pkf_step,
)

POSITIVE = st.floats(1e-6, 1e6)
NON_NEGATIVE = st.floats(0.0, 1e6)


def columns(*elements):
    """Equal-length float arrays, one per element strategy."""
    return st.integers(1, 30).flatmap(
        lambda n: st.tuples(*(arrays(float, n, elements=e) for e in elements))
    )


@st.composite
def random_series(draw):
    """A positive series on an irregular grid with 1-3 replicates per point."""
    n = draw(st.integers(3, 12))
    steps = draw(arrays(float, n - 1, elements=st.floats(0.1, 1.0)))
    groups = tuple(
        np.array(draw(st.lists(st.floats(1.0, 100.0), min_size=1, max_size=3)))
        for _ in range(n)
    )
    return TimeSeriesData("random", TimeGrid(np.cumsum(np.r_[0.0, steps])), groups)


@st.composite
def random_blocks(draw):
    """1-6 series like :func:`random_series` on one shared grid."""
    n = draw(st.integers(3, 12))
    grid = TimeGrid(np.cumsum(np.r_[0.0, draw(arrays(float, n - 1, elements=st.floats(0.1, 1.0)))]))
    return tuple(
        TimeSeriesData(f"random{i}", grid, tuple(
            np.array(draw(st.lists(st.floats(1.0, 100.0), min_size=1, max_size=3)))
            for _ in range(n)
        ))
        for i in range(draw(st.integers(1, 6)))
    )


class TestPkfWeights:
    def test_symmetric_inputs(self):
        w = pkf_weights(1.0, 1.0, 1.0)
        np.testing.assert_allclose([w.w_data, w.w_model, w.w_filter], 1.0 / 3.0, rtol=1e-15)

    def test_zero_filter_variance_locks_filter(self):
        w = pkf_weights(0.0, 2.0, 3.0)
        assert (w.w_data, w.w_model, w.w_filter) == (0.0, 0.0, 1.0)

    def test_huge_data_variance_splits_model_and_filter(self):
        w = pkf_weights(1.0, 1.0, 1e12)
        bf_w, bf_wm = brute_force_weights(1.0, 1.0, 1e12)
        assert abs(w.w_data - bf_w) < 1e-3
        assert abs(w.w_model - bf_wm) < 1e-3
        np.testing.assert_allclose([w.w_model, w.w_filter], 0.5, atol=1e-6)

    def test_all_zero_denominator_uniform(self):
        w = pkf_weights(0.0, 0.0, 0.0)
        np.testing.assert_allclose([w.w_data, w.w_model, w.w_filter], 1.0 / 3.0)

    def test_negative_input_rejected(self):
        with pytest.raises(InvalidParameterError):
            pkf_weights(-1.0, 1.0, 1.0)

    def test_matches_brute_force_on_random_triples(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b, c = 10.0 ** rng.uniform(-3, 3, 3)
            w = pkf_weights(a, b, c)
            bf_w, bf_wm = brute_force_weights(a, b, c)
            assert abs(w.w_data - bf_w) <= 1e-3
            assert abs(w.w_model - bf_wm) <= 1e-3

    @settings(deadline=None, max_examples=100)
    @given(POSITIVE, POSITIVE, POSITIVE)
    def test_matches_brute_force_within_the_grid_step(self, a, b, c):
        w = pkf_weights(a, b, c)
        bf_w, bf_wm = brute_force_weights(a, b, c)  # fine step 1e-4
        assert abs(float(w.w_data) - bf_w) <= 1e-4
        assert abs(float(w.w_model) - bf_wm) <= 1e-4

    def test_weight_object_validation(self):
        with pytest.raises(InvalidParameterError):
            PkfWeights(0.5, 0.6, -0.1)
        with pytest.raises(InvalidParameterError):
            PkfWeights(0.5, 0.4, 0.2)

    def test_array_input_names_first_bad_index(self):
        with pytest.raises(InvalidParameterError, match=r"v_data\[2\]=nan must be finite"):
            pkf_weights(np.ones(4), np.ones(4), np.array([1.0, 1.0, np.nan, -1.0]))
        with pytest.raises(InvalidParameterError, match=r"^v_filter_prev=-1.0 must be"):
            pkf_weights(-1.0, 1.0, 1.0)

    def test_overflowing_products_raise_a_typed_error_naming_the_entry(self):
        # outside run_pkf numpy also warns about the overflow; silence it here
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(
                NumericalOverflowError, match=r"^the weight products overflowed at \[0\]$"
            ):
                pkf_weights([1e160, 1.0], [1e160, 1.0], [1e160, 1.0])
            # each product is 1e308, finite, but their sum is not
            block = np.array([[1.0, 1.0], [1e154, 1.0]])
            with pytest.raises(NumericalOverflowError, match=r"at \[1, 0\]$"):
                pkf_weights(block, block, block)
            with pytest.raises(NumericalOverflowError, match=r"^the weight products overflowed$"):
                pkf_weights(1e154, 1e154, 1e154)

    def test_finite_products_keep_the_closed_form_bytes(self):
        rng = np.random.default_rng(8)
        a, b, c = 10.0 ** rng.uniform(-150, 150, (3, 500))
        a[:5] = b[:5] = c[:5] = 1.0e153  # the products are near the top of the range
        w = pkf_weights(a, b, c)
        denom = a * b + b * c + c * a
        assert w.w_data.tobytes() == (a * b / denom).tobytes()
        assert w.w_model.tobytes() == (c * a / denom).tobytes()
        assert w.w_filter.tobytes() == (b * c / denom).tobytes()

    def test_weight_arrays_are_read_only_and_validated_per_entry(self):
        w = PkfWeights(np.array([1.0, 0.5]), np.array([0.0, 0.5]), np.zeros(2))
        assert not w.w_data.flags.writeable
        with pytest.raises(InvalidParameterError, match=r"w_model\[1\]=1.5 outside"):
            PkfWeights(np.array([1.0, 0.0]), np.array([0.0, 1.5]), np.array([0.0, -0.5]))
        with pytest.raises(InvalidParameterError, match="sum to one"):
            PkfWeights(np.ones(2), np.array([0.0, 0.5]), np.zeros(2))


class TestProcessUncertaintyUpdate:
    def test_zero_gain_freezes(self):
        assert update_process_uncertainty(2.0, 0.0, 0.0, 7.0) == 2.0

    def test_full_gain_jumps_to_loss(self):
        assert update_process_uncertainty(2.0, 0.6, 0.4, 7.0) == 7.0

    def test_half_gain_midpoint(self):
        assert update_process_uncertainty(2.0, 0.25, 0.25, 4.0) == 3.0

    def test_gain_out_of_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            update_process_uncertainty(2.0, 0.7, 0.7, 4.0)

    def test_result_non_negative(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            w = rng.uniform(0.0, 1.0)
            wm = rng.uniform(0.0, 1.0 - w)
            q = update_process_uncertainty(
                rng.uniform(0.0, 10.0), w, wm, rng.uniform(0.0, 10.0)
            )
            assert q >= 0.0


def make_state(grid, means, variances, q):
    n = len(grid)
    return PkfState(
        iteration=0,
        filter=Trajectory(grid, means, variances),
        process_uncertainty=q,
        weights=PkfWeights(np.ones(n), np.zeros(n), np.zeros(n)),
    )


class TestPkfStep:
    def setup_method(self):
        self.grid = TimeGrid([0.0, 1.0, 2.0])

    def test_equal_variances(self):
        state = make_state(self.grid, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.5, 0.5, 0.5])
        est, weights, q = pkf_step(
            1, state, GaussianEstimate(3.0, 1.0), ModelPrediction(GaussianEstimate(6.0, 0.5))
        )
        np.testing.assert_allclose(est.mean, 3.0, rtol=1e-14)
        np.testing.assert_allclose(est.variance, 1.0 / 3.0, rtol=1e-14)
        np.testing.assert_allclose(est.variance, weights.w_filter * 1.0, rtol=1e-14)

    def test_zero_previous_variance_freezes_output(self):
        state = make_state(self.grid, [5.0, 6.0, 7.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        est, weights, _ = pkf_step(
            2, state, GaussianEstimate(0.0, 2.0), ModelPrediction(GaussianEstimate(9.0, 1.0))
        )
        assert est.mean == 7.0
        assert est.variance == 0.0
        assert weights.w_filter == 1.0

    @settings(deadline=None, max_examples=200)
    @given(columns(POSITIVE, POSITIVE, POSITIVE))
    def test_variance_recursion_identity(self, abc):
        # V(F_i) computed from the quadratic form equals w_filter * V(F_{i-1}),
        # checked on the package's weight kernel
        a, b, c = abc
        w = pkf_weights(a, b, c)
        np.testing.assert_allclose(
            w.w_data**2 * c + w.w_model**2 * b + w.w_filter**2 * a,
            w.w_filter * a,
            rtol=1e-10,
        )


class RecordingModel:
    """Captures the reference path handed to the internal model."""

    def __init__(self):
        self.calls = []

    def predict_path(self, grid, means, variances):
        self.calls.append((means.copy(), variances.copy()))
        return means.copy(), np.full(len(grid), VARIANCE_FLOOR)


class TestRunPkf:
    def test_initialization_from_data_summaries(self):
        _, data = simulate_birth_death(BirthDeathScenario(t_end=2.0, replicates=5))
        model = RecordingModel()
        run_pkf(data, model, iterations=1)
        z_means, z_vars = data.summaries()
        np.testing.assert_array_equal(model.calls[0][0], z_means)
        np.testing.assert_array_equal(model.calls[0][1], z_vars)

    def test_structural_contract(self):
        _, data = simulate_birth_death(BirthDeathScenario(t_end=3.0, replicates=10))
        result = run_pkf(data, ModelKind.BIRTH_DEATH, iterations=4, retain_history=True)
        n = len(data.grid)
        assert len(result.final.filter.means) == n
        assert len(result.final.process_uncertainty) == n
        assert len(result.final.weights.w_data) == n
        assert len(result.history) == 4
        assert result.final.iteration == 4
        w = result.final.weights
        assert np.all(np.abs(w.w_data + w.w_model + w.w_filter - 1.0) <= 1e-12)

    def test_noiseless_model_consistent_data_drives_q_down(self):
        # exact exponential data with constant rates: the model reproduces the
        # data and the converged process uncertainty is numerically zero
        times = 0.25 * np.arange(21)
        truth = 50.0 * np.exp(0.2 * times)
        data = TimeSeriesData(
            "exact", TimeGrid(times), tuple(np.array([v]) for v in truth)
        )
        result = run_pkf(data, ModelKind.BIRTH_DEATH, iterations=10)
        assert float(np.max(result.final.process_uncertainty)) < 1e-4 * float(
            np.mean(truth) ** 2
        )

    def test_filter_variance_monotone_in_iterations(self, pkf_history_50):
        previous = None
        for state in pkf_history_50.history:
            v = state.filter.variances
            if previous is not None:
                assert np.all(v <= previous + 1e-12)
            previous = v

    def test_q_converges_on_benchmark(self, pkf_history_50):
        q_final = float(np.max(pkf_history_50.final.process_uncertainty))
        assert pkf_history_50.max_abs_dq[-1] / (q_final + VARIANCE_FLOOR) < 1e-3

    def test_gain_non_monotone_in_time(self, pkf_history_50):
        w1 = pkf_history_50.history[0].weights.w_data
        diffs = np.diff(w1)
        assert np.any(diffs > 0.0)
        assert np.any(diffs < 0.0)

    def test_fixed_point_identity_on_converged_run(self, pkf_converged, benchmark_data):
        # Q* ~= squared model/data mean gap; 10% relative with an absolute
        # floor of 1e-2 squared units for points where both sides sit at
        # noise scale (the identity's limit is approached harmonically)
        _, data = benchmark_data
        state = pkf_converged.final
        model_means, _ = SplinePathModel(ModelKind.BIRTH_DEATH).predict_path(
            data.grid, state.filter.means, state.filter.variances
        )
        z_means, _ = data.summaries()
        loss = (model_means - z_means) ** 2
        q = state.process_uncertainty
        np.testing.assert_allclose(q, loss, rtol=0.1, atol=1e-2)

    def test_linear_model_beats_sample_mean(self):
        # quick two-seed version of the optimality property
        slope, intercept = 0.9, 2.0
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            y = np.empty(15)
            y[0] = 20.0
            for t in range(1, 15):
                y[t] = slope * y[t - 1] + intercept
            data = TimeSeriesData(
                "lin",
                TimeGrid(np.arange(15.0)),
                tuple(rng.normal(y[t], 2.0, 100) for t in range(15)),
            )
            z_means, _ = data.summaries()
            result = run_pkf(data, LinearPathModel(slope, intercept), iterations=10)
            mse_pkf = float(np.mean((result.final.filter.means - y) ** 2))
            mse_mean = float(np.mean((z_means - y) ** 2))
            assert mse_pkf <= mse_mean

    def test_model_failure_carries_timepoint_context(self):
        times = np.array([0.0, 1.0, 2.0, 3.0])
        values = [1e-300, 1e280, 1e-300, 1e280]
        data = TimeSeriesData(
            "explosive", TimeGrid(times), tuple(np.array([v]) for v in values)
        )
        # the first window's prediction overflows; the model did that, not the data
        with pytest.raises(
            NumericalOverflowError,
            match=r"^series 'explosive': timepoint 0 \(t=0\.0\): the model prediction left "
            r"the finite range at iteration 1$",
        ):
            run_pkf(data, ModelKind.BIRTH_DEATH, iterations=1)

    @pytest.mark.parametrize("iterations", [1, 2])
    def test_overflowing_update_names_series_iteration_and_timepoint(self, iterations):
        # the loss (1e200 - z)^2 overflows, so Q at timepoint 3 is inf; the
        # model did that, not the data
        class SpikingModel:
            def predict_path(self, grid, means, variances):
                model_means = np.array(means, dtype=float)
                model_means[3] = 1e200
                return model_means, np.asarray(variances, dtype=float)

        data = TimeSeriesData(
            "gene7",
            TimeGrid(np.arange(6.0)),
            tuple(np.array([1.0, 2.0]) + t for t in range(6)),
        )
        with np.errstate(over="ignore"), pytest.raises(
            NumericalOverflowError,
            match=r"^series 'gene7': timepoint 3 \(t=3\.0\): the filter update left the "
            r"finite range at iteration 1$",
        ):
            run_pkf(data, SpikingModel(), iterations=iterations)

    @pytest.mark.parametrize("variance", [np.nan, -1.0, np.inf])
    def test_a_custom_model_variance_outside_the_range_is_rejected(self, variance):
        class BadVarianceModel:
            def predict_path(self, grid, means, variances):
                model_vars = np.full(len(grid), VARIANCE_FLOOR)
                model_vars[2] = variance
                return np.asarray(means, dtype=float), model_vars

        _, data = simulate_birth_death(BirthDeathScenario(t_end=2.0, replicates=3))
        if variance < 0:
            error, problem = InvalidParameterError, "the model variance is negative"
        else:  # a non-finite model variance is a model prediction that overflowed
            error, problem = NumericalOverflowError, "the model prediction left the finite range"
        with pytest.raises(
            error, match=rf"^series 'population': timepoint 2 \(t=0\.5\): {problem} at iteration 1$"
        ):
            run_pkf(data, BadVarianceModel(), iterations=2)

    def test_a_model_prediction_failure_wins_over_an_earlier_negative_variance(self):
        # the failures are checked in a fixed order, not by timepoint: a NaN
        # prediction at timepoint 3 outranks a negative variance at timepoint 1
        class NegativeThenNanModel:
            def predict_path(self, grid, means, variances):
                model_means = np.array(means, dtype=float)
                model_means[3] = np.nan
                model_vars = np.full(len(grid), VARIANCE_FLOOR)
                model_vars[1] = -1e6
                return model_means, model_vars

        _, data = simulate_birth_death(BirthDeathScenario(t_end=2.0, replicates=3))
        with pytest.raises(
            NumericalOverflowError,
            match=r"^series 'population': timepoint 3 \(t=0\.75\): the model prediction left "
            r"the finite range at iteration 1$",
        ):
            run_pkf(data, NegativeThenNanModel(), iterations=2)

    def test_an_overflowing_model_variance_plus_q_is_a_weight_overflow(self):
        # the largest float model variance plus a data variance of 2e300 is
        # inf, whose products with the other variances overflow
        class HugeVarianceModel:
            def predict_path(self, grid, means, variances):
                model_vars = np.full(len(grid), VARIANCE_FLOOR)
                model_vars[2] = np.finfo(float).max
                return np.asarray(means, dtype=float), model_vars

        groups = [np.array([1.0, 2.0]) + t for t in range(5)]
        groups[2] = np.array([0.0, 2e150])
        data = TimeSeriesData("g", TimeGrid(np.arange(5.0)), tuple(groups))
        with pytest.raises(
            NumericalOverflowError,
            match=r"^series 'g': timepoint 2 \(t=2\.0\): the weight products overflowed "
            r"at iteration 1$",
        ):
            run_pkf(data, HugeVarianceModel(), iterations=2)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_overflowing_weight_products_name_series_iteration_and_timepoint(self, kind):
        # the data variance at timepoint 2 is 2e160, so its products overflow
        with pytest.raises(
            NumericalOverflowError,
            match=r"^series 'wide': timepoint 2 \(t=2\.0\): the weight products overflowed "
            r"at iteration 1$",
        ):
            run_pkf(wide_series(), kind, iterations=3)

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("series", ["wide", "explosive"])
    def test_failing_run_emits_no_runtime_warning(self, kind, series):
        data = wide_series() if series == "wide" else TimeSeriesData(
            "explosive", TimeGrid(np.arange(4.0)),
            tuple(np.array([v]) for v in (1e-300, 1e280, 1e-300, 1e280)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PathkfError):
                run_pkf(data, kind, iterations=3)

    def test_iterations_must_be_positive(self):
        _, data = simulate_birth_death(BirthDeathScenario(t_end=2.0, replicates=3))
        with pytest.raises(InvalidParameterError):
            run_pkf(data, ModelKind.BIRTH_DEATH, iterations=0)

    def test_vectorized_run_matches_scalar_steps(self):
        # one full iteration agrees with composing pkf_step at every timepoint
        _, data = simulate_birth_death(BirthDeathScenario(t_end=3.0, replicates=8))
        result = run_pkf(data, ModelKind.BIRTH_DEATH, iterations=1)
        z_means, z_vars = data.summaries()
        grid = data.grid
        prev = make_state(grid, z_means, z_vars, z_vars)
        model_means, model_vars = SplinePathModel(ModelKind.BIRTH_DEATH).predict_path(
            grid, z_means, z_vars
        )
        for t in range(len(grid)):
            est, weights, q = pkf_step(
                t,
                prev,
                GaussianEstimate(float(z_means[t]), float(z_vars[t])),
                ModelPrediction(
                    GaussianEstimate(float(model_means[t]), float(model_vars[t]))
                ),
            )
            np.testing.assert_allclose(result.final.filter.means[t], est.mean, rtol=1e-13)
            np.testing.assert_allclose(
                result.final.filter.variances[t], est.variance, rtol=1e-13
            )
            np.testing.assert_allclose(
                result.final.process_uncertainty[t], q, rtol=1e-13
            )
            np.testing.assert_allclose(
                result.final.weights.w_filter[t], weights.w_filter, rtol=1e-13
            )


def wide_series():
    """Six timepoints whose third has replicates 0 and 2e80 (variance 2e160)."""
    groups = [np.array([1.0, 2.0]) + t for t in range(6)]
    groups[2] = np.array([0.0, 2e80])
    return TimeSeriesData("wide", TimeGrid(np.arange(6.0)), tuple(groups))


def random_grid(rng, n):
    """A random ``n``-point grid: gaps from 0.01 to 3, from a start in [-5, 5]."""
    return TimeGrid(np.cumsum(np.r_[rng.uniform(-5.0, 5.0), rng.uniform(0.01, 3.0, n - 1)]))


#: How :func:`block_panels` lays its series out on grids.
LAYOUTS = ("one grid", "one length", "mixed lengths")


@st.composite
def block_panels(draw):
    """1-40 series with 1-3 replicates per point at a scale from 1e-4 to
    1e6, in one of :data:`LAYOUTS`: all on one random 3-25 point grid; of one
    length on 2-6 random grids, so that some rows share a grid and some do
    not; or of 2-4 lengths, each on 2-6 grids, interleaved at random in input
    order. One series may carry a replicate spread near 1e80, which
    overflows the weight products, and one a single replicate spiked to
    1e150, which makes its windows degenerate."""
    layout = draw(st.sampled_from(LAYOUTS))
    count = draw(st.integers(2, 4)) if layout == "mixed lengths" else 1
    lengths = draw(st.lists(st.integers(3, 25), min_size=count, max_size=count, unique=True))
    size = draw(st.integers(1, 40))
    scale = 10.0 ** draw(st.floats(-4.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    per_length = 1 if layout == "one grid" else int(rng.integers(2, 7))
    pools = [[random_grid(rng, n) for _ in range(per_length)] for n in lengths]
    grids = [pools[rng.integers(len(pools))][rng.integers(per_length)] for _ in range(size)]
    rows = []
    for grid in grids:
        level = rng.uniform(0.2, 2.0, len(grid))
        rows.append([scale * (v + 0.1 * rng.standard_normal(rng.integers(1, 4))) for v in level])
    for spike in (np.array([0.0, 2e80]), np.array([1e150])):
        if draw(st.booleans()):
            row = rows[draw(st.integers(0, size - 1))]
            row[draw(st.integers(0, 24)) % len(row)] = spike
    event(layout)
    return tuple(
        TimeSeriesData(f"s{i}", grid, tuple(groups)) for i, (grid, groups) in enumerate(zip(grids, rows))
    )


#: The direct public call of each algorithm on one series: 3 iterations,
#: and q = 2.5 for the baselines.
LONE_RUNS = {
    "pkf": lambda data, kind, history: run_pkf(data, kind, iterations=3, retain_history=history),
    "kf": lambda data, kind, _: run_adaptive_kf(data, kind, 2.5),
    "ukf": lambda data, kind, _: run_ukf(data, kind, 2.5),
    "urts": lambda data, kind, _: run_urts(data, kind, 2.5),
    "ipls": lambda data, kind, _: run_ipls(data, kind, 2.5, 3),
}


def lone_outcome(algorithm, data, kind, retain_history):
    """The JSON record of the direct call on one series, or its error as batch reports it."""
    try:
        result = LONE_RUNS[algorithm](data, kind, retain_history)
    except PathkfError as exc:
        return f"{type(exc).__name__}: {exc}"
    return json.dumps(result_record(result))


def batch_document(summary) -> bytes:
    """The bytes ``write_batch_results`` writes for ``summary``."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "batch.json")
        write_batch_results(summary, path)
        with open(path, "rb") as handle:
            return handle.read()


class TestRunPkfBlock:
    """Series of one length run as one stacked block, on their one grid or
    on per-row times, bitwise equal to running each alone."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @settings(deadline=None, max_examples=40)
    @given(block_panels(), st.sampled_from(list(ModelKind)), st.booleans(), st.integers(0, 4))
    def test_stacked_runs_equal_lone_runs(self, algorithm, series, kind, retain_history, pool):
        retain_history &= algorithm == "pkf"  # RunConfig rejects history for a baseline
        lone = [lone_outcome(algorithm, data, kind, retain_history) for data in series]
        q = None if algorithm == "pkf" else 2.5
        iterations = 3 if algorithm in ("pkf", "ipls") else None  # the others reject it
        config = RunConfig(algorithm, kind, iterations, q, retain_history=retain_history)
        summary = batch_run(config, series)  # blocks of BLOCK_ROWS, by length
        got = [
            o.error if o.error is not None else json.dumps(result_record(o.result))
            for o in summary.outcomes
        ]
        assert got == lone
        lengths = collections.Counter(len(data.grid) for data in series)
        within = "within" if max(lengths.values()) <= BLOCK_ROWS else "over"
        event(f"{'some' if summary.n_failed else 'none'} failed, {within} one block")
        if pool == 2:  # a few examples: chunks of the length order on a pool of two
            event("jobs=2")
            pooled = batch_run(dataclasses.replace(config, jobs=2), series)
            assert batch_document(pooled) == batch_document(summary)
        outcomes = {}
        for n in lengths:  # one run_spec call per length, failing rows included
            block = tuple(data for data in series if len(data.grid) == n)
            outcomes.update(zip(block, run_spec(config.spec(), block, kind, retain_history)))
        assert [
            f"{type(o).__name__}: {o}" if isinstance(o, Exception) else json.dumps(result_record(o))
            for o in map(outcomes.get, series)
        ] == lone

    def test_a_failing_block_raises_its_earliest_error(self):
        # the earliest iteration, then the first check in the loop's order,
        # then the first row: at iteration 1, the model prediction of the last
        # row fails before the weight products of the third, and the second
        # row fails only at iteration 3
        def spiked(series_id, values):
            groups = [np.array([10.0 + t, 10.5 + t]) for t in range(8)]
            groups[4] = np.array(values)
            return TimeSeriesData(series_id, TimeGrid(np.arange(8.0)), tuple(groups))

        block = (spiked("calm", [14.0, 14.5]), spiked("late", [1e154, 1e154]),
                 spiked("products", [0.0, 2e80]), spiked("model", [1e200, 1e200]))
        kind = ModelKind.CONSTANT_REGULATION
        lone = [lone_outcome("pkf", data, kind, False) for data in block]
        assert lone[1].endswith("the model prediction left the finite range at iteration 3")
        assert lone[2].endswith("the weight products overflowed at iteration 1")
        assert lone[3].endswith("the model prediction left the finite range at iteration 1")
        with pytest.raises(NumericalOverflowError) as raised:
            run_pkf_block(block, kind, 3)
        assert f"{type(raised.value).__name__}: {raised.value}" == lone[3]

    def test_a_failing_series_fails_the_block_with_a_located_error(self):
        grid = wide_series().grid
        calm = TimeSeriesData("calm", grid, tuple(np.array([1.0, 2.0]) + t for t in range(6)))
        with pytest.raises(NumericalOverflowError, match=r"^series 'wide': timepoint 2 "):
            run_pkf_block((calm, wide_series(), calm), ModelKind.CONSTANT_REGULATION, 2)

    def test_rejects_series_on_different_grids(self):
        # series of one length stack on their own grids; mixed lengths do not
        _, data = simulate_birth_death(BirthDeathScenario(t_end=2.0, replicates=3))
        with pytest.raises(InvalidDataError, match="^the series of a block must have one "
                                                   "number of timepoints$"):
            run_pkf_block((data, wide_series()), ModelKind.BIRTH_DEATH)
        calm = tuple(np.array([1.0, 2.0]) + t for t in range(6))
        block = tuple(TimeSeriesData(f"calm{i}", TimeGrid(times), calm) for i, times in enumerate(
            (np.arange(6.0), 0.5 + 1.5 * np.arange(6.0), np.arange(6.0) ** 1.5)
        ))
        for kind in ModelKind:
            stacked = run_pkf_block(block, kind, 3)
            assert [json.dumps(result_record(r)) for r in stacked] == [
                lone_outcome("pkf", data, kind, False) for data in block
            ]
        with pytest.raises(InvalidDataError, match="at least one series"):
            run_pkf_block((), ModelKind.BIRTH_DEATH)


class TestKernelProperties:
    @settings(deadline=None, max_examples=200)
    @given(columns(POSITIVE, POSITIVE, POSITIVE))
    def test_weights_on_simplex_whatever_the_shape(self, abc):
        a, b, c = abc
        w = pkf_weights(a, b, c)
        rows = np.stack([w.w_data, w.w_model, w.w_filter], axis=1)
        assert np.all((rows >= 0.0) & (rows <= 1.0))
        assert np.all(np.abs(rows[:, 0] + rows[:, 1] + rows[:, 2] - 1.0) <= 1e-12)
        for i, row in enumerate(rows):
            single = pkf_weights(a[i], b[i], c[i])
            expected = np.array([single.w_data, single.w_model, single.w_filter])
            assert row.tobytes() == expected.tobytes()

    @settings(deadline=None, max_examples=200)
    @given(columns(POSITIVE, POSITIVE, POSITIVE, NON_NEGATIVE, NON_NEGATIVE))
    # w_data + w_model rounds to 1 + 2.2e-16 here: uncapped, Q = 1 and a
    # zero loss give -2.2e-16
    @example(columns_=tuple(np.array([v]) for v in (
        662163253.9812518, 2.5858343709885357e-05, 5.431212873550959e-09, 1.0, 0.0,
    )))
    def test_process_uncertainty_non_negative(self, columns_):
        a, b, c, q, loss = columns_
        w = pkf_weights(a, b, c)
        assert np.all(update_process_uncertainty(q, w.w_data, w.w_model, loss) >= 0.0)

    @settings(deadline=None, max_examples=100)
    @given(random_series(), st.sampled_from(list(ModelKind)), st.integers(1, 30))
    def test_one_iteration_never_raises_filter_variance(self, data, kind, iterations):
        # wf = 1 is on the simplex, so the minimized variance is at most A, the
        # previous filter variance: no iteration raises it at any timepoint
        _, z_vars = data.summaries()
        history = run_pkf(data, kind, iterations=iterations, retain_history=True).history
        previous = z_vars
        for state in history:
            assert np.all(state.filter.variances <= previous * (1.0 + 1e-12))
            assert np.all(state.process_uncertainty >= 0.0)
            previous = state.filter.variances


def replay(kind, grid, z_means, z_vars, iterations):
    """The iterations of ``run_pkf`` through the public entries, one step at
    a time: ``(means, variances, q, weights)`` after each."""
    f_means, f_vars, q = z_means, z_vars, z_vars
    for _ in range(iterations):
        m_means, m_vars = SplinePathModel(kind).predict_path(grid, f_means, f_vars)
        b = m_vars + q
        w = pkf_weights(f_vars, b, z_vars)
        q = update_process_uncertainty(q, w.w_data, w.w_model, (m_means - z_means) ** 2)
        f_means = w.w_data * z_means + w.w_model * m_means + w.w_filter * f_means
        f_vars = w.w_data**2 * z_vars + w.w_model**2 * b + w.w_filter**2 * f_vars
        yield f_means, f_vars, q, w


def state_bytes(means, variances, q, weights, row=...) -> list[bytes]:
    """The bytes of a state's arrays, or of one row of stacked ones."""
    arrays = (means, variances, q, weights.w_data, weights.w_model, weights.w_filter)
    return [a[row].tobytes() for a in arrays]


def history_bytes(state) -> list[bytes]:
    return state_bytes(
        state.filter.means, state.filter.variances, state.process_uncertainty, state.weights
    )


class TestOneFormula:
    """The loop runs the formulas of the public entries, without their checks."""

    def test_the_loop_calls_no_checked_entry(self, monkeypatch):
        import pathkf.pkf as pkf

        calls = []

        def spy(name):
            real = getattr(pkf, name)

            def wrapped(*args):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(pkf, name, wrapped)

        for name in ("pkf_weights", "update_process_uncertainty", "PkfWeights"):
            spy(name)
        _, data = simulate_birth_death(BirthDeathScenario(t_end=3.0, replicates=4))
        run_pkf(data, ModelKind.BIRTH_DEATH, iterations=5)
        assert calls == ["PkfWeights"]  # the final state's
        calls.clear()
        run_pkf(data, ModelKind.BIRTH_DEATH, iterations=5, retain_history=True)
        assert calls == ["PkfWeights"] * 5
        calls.clear()
        run_pkf_block((data, data, data), ModelKind.BIRTH_DEATH, iterations=5)
        assert calls == ["PkfWeights"] * 3

    @settings(deadline=None, max_examples=60)
    @given(random_blocks(), st.sampled_from(list(ModelKind)), st.integers(1, 6))
    def test_public_entries_reproduce_the_history_bitwise(self, block, kind, iterations):
        grid = block[0].grid
        lone = run_pkf(block[0], kind, iterations, retain_history=True).history
        replayed = replay(kind, grid, *block[0].summaries(), iterations)
        assert [history_bytes(s) for s in lone] == [state_bytes(*step) for step in replayed]
        stacked = run_pkf_block(block, kind, iterations, retain_history=True)
        z_means = np.stack([data.summaries()[0] for data in block])
        z_vars = np.stack([data.summaries()[1] for data in block])
        for i, step in enumerate(replay(kind, grid, z_means, z_vars, iterations)):
            for row, result in enumerate(stacked):
                assert history_bytes(result.history[i]) == state_bytes(*step, row=row)


class TestNonUniformGrid:
    def test_filters_run_on_irregular_times(self):
        rng = np.random.default_rng(33)
        times = np.array([0.0, 0.4, 1.1, 1.3, 2.9, 3.0, 4.8, 5.5])
        truth = 40.0 * np.exp(0.15 * times)
        data = TimeSeriesData(
            "irregular",
            TimeGrid(times),
            tuple(rng.normal(v, 1.0, 6) for v in truth),
        )
        result = run_pkf(data, ModelKind.BIRTH_DEATH, iterations=5)
        assert np.all(np.isfinite(result.final.filter.means))
        assert np.all(result.final.process_uncertainty >= 0.0)
        w = result.final.weights
        assert np.all(np.abs(w.w_data + w.w_model + w.w_filter - 1.0) <= 1e-12)
        # smooth exponential data: the fitted filter stays near the truth
        rel = np.abs(result.final.filter.means - truth) / truth
        assert float(np.max(rel)) < 0.05


@st.composite
def noisy_series(draw):
    """A positive series of 5-14 timepoints, 0.5-3 apart, starting anywhere
    in [-20, 20]: a random walk in log level from 5-100 with 2-4 replicates
    at a relative noise of 1-20%, so no data variance sits at the floor."""
    n = draw(st.integers(5, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = np.cumsum(np.r_[draw(st.floats(-20.0, 20.0)), rng.uniform(0.5, 3.0, n - 1)])
    level = rng.uniform(5.0, 100.0) * np.exp(np.cumsum(rng.normal(0.0, 0.2, n)))
    noise = draw(st.floats(0.01, 0.2))
    groups = tuple(v * (1.0 + noise * rng.standard_normal(rng.integers(2, 5))) for v in level)
    return TimeSeriesData("noisy", TimeGrid(times), groups)


def shifted(data, value=0.0, time=0.0):
    """``data`` with every replicate moved by ``value`` and every time by ``time``."""
    return TimeSeriesData(
        data.series_id, TimeGrid(data.grid.times + time), tuple(g + value for g in data.samples)
    )


def assert_equivariant(result, moved, value_shift, scale):
    """The final states agree up to rounding: means within ``1e-8 * scale``
    after ``value_shift`` is taken off, variances and Q within 1e-6 relative
    plus ``VARIANCE_FLOOR`` absolute."""
    a, b = result.final, moved.final
    np.testing.assert_allclose(
        b.filter.means - value_shift, a.filter.means, rtol=0.0, atol=1e-8 * scale
    )
    for got, want in ((b.filter.variances, a.filter.variances),
                      (b.process_uncertainty, a.process_uncertainty)):
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=VARIANCE_FLOOR)


class TestEquivariance:
    """The model flows are autonomous, and the constant-regulation flow maps
    ``x + b`` onto ``x + b`` with ``k_exp`` raised by ``k_deg * b``, so the
    filter commutes with time shifts (both models) and with value shifts
    (constant regulation), up to rounding at the scale of the shifted values.
    Scaling is not asserted: the absolute ``VARIANCE_FLOOR`` breaks it."""

    @settings(deadline=None, max_examples=60)
    @given(noisy_series(), st.floats(-1e3, 1e3), st.integers(1, 10))
    def test_const_reg_commutes_with_value_shifts(self, data, b, iterations):
        result = run_pkf(data, ModelKind.CONSTANT_REGULATION, iterations)
        moved = run_pkf(shifted(data, value=b), ModelKind.CONSTANT_REGULATION, iterations)
        scale = float(np.max(np.abs(data.summaries()[0]))) + abs(b)
        assert_equivariant(result, moved, b, scale)

    @settings(deadline=None, max_examples=60)
    @given(noisy_series(), st.floats(-100.0, 100.0), st.sampled_from(list(ModelKind)),
           st.integers(1, 10))
    def test_both_models_commute_with_time_shifts(self, data, c, kind, iterations):
        result = run_pkf(data, kind, iterations)
        moved = run_pkf(shifted(data, time=c), kind, iterations)
        assert_equivariant(result, moved, 0.0, float(np.max(np.abs(data.summaries()[0]))))


@st.composite
def regime_cases(draw):
    """A series and a final Q drawn from a few values each, so that many
    entries tie with their median, and with Q's median now and then at or
    below ``VARIANCE_FLOOR``, where the threshold is clamped."""
    n = draw(st.integers(3, 15))
    # variances: the floor (one replicate, or equal ones), 0.005, 0.5, 2
    groups = [[1.0], [2.0, 2.0], [0.0, 0.1], [0.0, 1.0], [0.0, 2.0]]
    data = TimeSeriesData("regimes", TimeGrid(np.arange(float(n))), tuple(
        np.array(draw(st.sampled_from(groups))) for _ in range(n)
    ))
    values = st.sampled_from([0.0, 1e-12, VARIANCE_FLOOR, 0.5, 2.0, 7.0])
    q = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    return data, q


class TestRegimes:
    def test_quadrants(self):
        assert classify_regime(0.1, 0.1, 1.0, 1.0) is RegimeLabel.ACCURATE_MODEL_RELIABLE_DATA
        assert classify_regime(5.0, 0.1, 1.0, 1.0) is RegimeLabel.INACCURATE_MODEL_RELIABLE_DATA
        assert classify_regime(0.1, 5.0, 1.0, 1.0) is RegimeLabel.ACCURATE_MODEL_NOISY_DATA
        assert classify_regime(5.0, 5.0, 1.0, 1.0) is RegimeLabel.INACCURATE_MODEL_NOISY_DATA

    def test_boundary_counts_as_high(self):
        assert classify_regime(1.0, 0.5, 1.0, 1.0) is RegimeLabel.INACCURATE_MODEL_RELIABLE_DATA

    def test_thresholds_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            classify_regime(1.0, 1.0, 0.0, 1.0)

    @settings(deadline=None, max_examples=300)
    @given(regime_cases())
    def test_selection_equals_the_scalar_oracle(self, case):
        data, q = case
        n = len(q)
        result = PkfResult(
            make_state(data.grid, np.zeros(n), np.ones(n), q), None, np.zeros(1), np.ones(1)
        )
        _, z_vars = data.summaries()
        q_thr = max(float(np.median(q)), VARIANCE_FLOOR)
        v_thr = max(float(np.median(z_vars)), VARIANCE_FLOOR)
        event(f"Q threshold {'clamped' if q_thr == VARIANCE_FLOOR else 'at the median'}")
        event(f"{'some' if np.any(q == q_thr) else 'no'} Q ties")
        expected = tuple(classify_regime(a, b, q_thr, v_thr) for a, b in zip(q, z_vars))
        assert classify_regimes(result, data) == expected

    def test_series_level_defaults_to_medians(self, pkf_converged, benchmark_data):
        _, data = benchmark_data
        labels = classify_regimes(pkf_converged, data)
        assert len(labels) == len(data.grid)
        assert len(set(labels)) >= 2

    @pytest.mark.parametrize("times", [np.arange(7.0), np.arange(6.0) + 0.5],
                             ids=["other-length", "other-times"])
    def test_a_series_on_another_grid_is_rejected(self, times):
        samples = tuple(np.array([5.0 + t, 6.0 + t]) for t in range(6))
        result = run_pkf(TimeSeriesData("a", TimeGrid(np.arange(6.0)), samples), iterations=1)
        other = TimeSeriesData("b", TimeGrid(times), (samples * 2)[:len(times)])
        with pytest.raises(InvalidDataError, match="series 'b': the result and series grids"):
            classify_regimes(result, other)


def _kind_series():
    samples = tuple(np.array([5.0 + t, 6.0 + t]) for t in range(6))
    return TimeSeriesData("s", TimeGrid(np.arange(6.0)), samples)


class _Custom:
    """A model object with neither ``predict_path`` nor ``step_map``."""


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda d: SplinePathModel("birth-death"), InvalidParameterError),
        (lambda d: FlowStepDynamics("birth-death", *d.summaries()), InvalidParameterError),
        (lambda d: run_pkf_block((d,), "birth-death", 2), InvalidParameterError),
        (lambda d: run_pkf_block((d,), RecordingModel()), InvalidParameterError),
        (lambda d: RunConfig(model="birth-death"), InvalidConfigError),
        (lambda d: run_adaptive_kf(d, "birth-death"), InvalidParameterError),
        (lambda d: run_pkf(d, "birth-death"), InvalidParameterError),
        (lambda d: run_pkf(d, _Custom()), InvalidParameterError),
        (lambda d: run_ukf(d, "birth-death"), InvalidParameterError),
        (lambda d: run_ipls(d, _Custom(), iterations=2), InvalidParameterError),
    ],
    ids=["spline-model", "step-dynamics", "block-string", "block-predictor", "run-config",
         "kf-string", "pkf-string", "pkf-object", "ukf-string", "ipls-object"],
)
def test_a_model_that_is_not_a_model_kind_is_rejected(call, error):
    # a string is never coerced, and a custom model needs the method its
    # algorithm calls: none of these runs the const-reg model instead
    with pytest.raises(error, match="birth-death|_Custom|RecordingModel"):
        call(_kind_series())
