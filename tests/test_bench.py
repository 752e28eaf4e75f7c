"""Benchmark harness: metric, report determinism, ratio summary."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pathkf import (
    AlgorithmSpec,
    BirthDeathScenario,
    GroundTruth,
    InvalidDataError,
    InvalidParameterError,
    ModelKind,
    PkfWeights,
    TimeGrid,
    TimeSeriesData,
    Trajectory,
    mse,
    q_ratio_summary,
    run_adaptive_kf,
    run_benchmark,
    run_ipls,
    run_pkf,
    run_ukf,
    run_urts,
    simulate_birth_death,
    simulate_gene_panel,
    GenePanelScenario,
    panel_labels,
)
from pathkf.bench import ALGORITHMS, QRatioEntry, _decile_edges, _group_ratios, run_spec
from pathkf.pkf import PkfResult, PkfState

from oracles import q_ratio_groups


def small_scenario(seed=1):
    return BirthDeathScenario(t_end=4.0, dt=0.5, replicates=15, seed=seed)


class TestMse:
    def setup_method(self):
        self.grid = TimeGrid([0.0, 1.0, 2.0, 3.0])
        self.truth = GroundTruth(self.grid, [1.0, 2.0, 3.0, 4.0])

    def test_perfect_filter_scores_zero(self):
        traj = Trajectory(self.grid, [1.0, 2.0, 3.0, 4.0], np.ones(4))
        assert mse(traj, self.truth) == 0.0

    def test_constant_offset(self):
        traj = Trajectory(self.grid, [3.0, 4.0, 5.0, 6.0], np.ones(4))
        assert mse(traj, self.truth) == 4.0

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(21)
        means = rng.normal(0, 5, 4)
        traj = Trajectory(self.grid, means, np.ones(4))
        expected = sum((float(m) - float(y)) ** 2 for m, y in zip(means, self.truth.values)) / 4
        np.testing.assert_allclose(mse(traj, self.truth), expected, rtol=1e-14)

    def test_grid_mismatch_rejected(self):
        other = GroundTruth(TimeGrid([0.0, 1.0, 2.0, 3.5]), [1.0, 2.0, 3.0, 4.0])
        traj = Trajectory(self.grid, np.ones(4), np.ones(4))
        with pytest.raises(InvalidDataError):
            mse(traj, other)

    def test_invariant_under_common_shift(self):
        rng = np.random.default_rng(22)
        means = rng.normal(0, 5, 4)
        traj = Trajectory(self.grid, means, np.ones(4))
        shifted_traj = Trajectory(self.grid, means + 11.0, np.ones(4))
        shifted_truth = GroundTruth(self.grid, self.truth.values + 11.0)
        np.testing.assert_allclose(
            mse(traj, self.truth), mse(shifted_traj, shifted_truth), rtol=1e-12
        )


class TestRunBenchmark:
    def test_same_seed_identical_report(self):
        specs = (AlgorithmSpec("kf-q1", "kf", q=1.0), AlgorithmSpec("pkf-i2", "pkf", iterations=2))
        a = run_benchmark(small_scenario(), specs)
        b = run_benchmark(small_scenario(), specs)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.mse == rb.mse
            np.testing.assert_array_equal(ra.trajectory.means, rb.trajectory.means)

    def test_rows_independent_of_order(self):
        specs = (
            AlgorithmSpec("kf-q1", "kf", q=1.0),
            AlgorithmSpec("ukf-q1", "ukf", q=1.0),
            AlgorithmSpec("pkf-i2", "pkf", iterations=2),
        )
        forward = run_benchmark(small_scenario(), specs)
        backward = run_benchmark(small_scenario(), tuple(reversed(specs)))
        for label in ("kf-q1", "ukf-q1", "pkf-i2"):
            assert forward.mse_of(label) == backward.mse_of(label)

    def test_failures_isolated_per_row(self):
        specs = (
            AlgorithmSpec("kf-q1", "kf", q=1.0),
            AlgorithmSpec("broken", "nope", q=1.0),
        )
        report = run_benchmark(small_scenario(), specs)
        assert report.row("kf-q1").mse is not None
        assert report.row("broken").error is not None
        assert report.row("broken").mse is None
        assert report.row("broken").error == "InvalidConfigError: unknown algorithm 'nope'"

    def test_pkf_rows_carry_full_result(self):
        report = run_benchmark(small_scenario(), (AlgorithmSpec("pkf-i2", "pkf", iterations=2),))
        assert isinstance(report.row("pkf-i2").pkf_result, PkfResult)
        assert report.row("pkf-i2").sq_errors is not None


class TestRunSpec:
    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_matches_direct_call(self, algorithm, kind):
        _, data = simulate_birth_death(small_scenario(seed=3))
        spec = AlgorithmSpec(algorithm, algorithm, q=2.5, iterations=3)
        direct = {
            "pkf": lambda: run_pkf(data, kind, iterations=3).final.filter,
            "kf": lambda: run_adaptive_kf(data, kind, 2.5),
            "ukf": lambda: run_ukf(data, kind, 2.5),
            "urts": lambda: run_urts(data, kind, 2.5),
            "ipls": lambda: run_ipls(data, kind, 2.5, 3),
        }[algorithm]()
        result = run_spec(spec, (data,), kind)[0]
        got = result.final.filter if isinstance(result, PkfResult) else result
        assert got.means.tobytes() == direct.means.tobytes()
        assert got.variances.tobytes() == direct.variances.tobytes()

    def test_pkf_keeps_history_on_request(self):
        _, data = simulate_birth_death(small_scenario())
        spec = AlgorithmSpec("pkf-i2", "pkf", iterations=2)
        assert run_spec(spec, (data,), ModelKind.BIRTH_DEATH)[0].history is None
        kept = run_spec(spec, (data,), ModelKind.BIRTH_DEATH, retain_history=True)[0]
        assert len(kept.history) == 2

    @pytest.mark.parametrize(
        "params",
        [{"q": -1.0}, {"q": float("nan")}, {"iterations": 0},
         pytest.param({"q": 10**400}, id="q-int-past-float")],
    )
    def test_spec_rejects_bad_parameters(self, params):
        with pytest.raises(InvalidParameterError):
            AlgorithmSpec("bad", "kf", **params)


@st.composite
def shifted_dyadic_series(draw):
    """One series on a grid of multiples of 1/8, and the same series on that
    grid shifted by a multiple of 1/8; every time difference is exact in both."""
    n = draw(st.integers(3, 19))
    steps = draw(st.lists(st.integers(1, 16), min_size=n - 1, max_size=n - 1))
    ticks = draw(st.integers(-80, 80)) + np.cumsum([0, *steps])
    shift = draw(st.integers(-80, 80).filter(bool))
    scale = 10.0 ** draw(st.floats(-3.0, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    groups = tuple(
        scale * rng.uniform(0.5, 1.5) * (1 + 0.1 * rng.standard_normal(int(rng.integers(1, 4))))
        for _ in range(n)
    )
    return tuple(
        TimeSeriesData("s", TimeGrid(t / 8), groups) for t in (ticks, ticks + shift)
    )


class TestTimeShift:
    @settings(deadline=None, max_examples=60)
    @given(shifted_dyadic_series())
    def test_results_do_not_depend_on_the_time_origin(self, pair):
        for algorithm in ALGORITHMS:
            spec = AlgorithmSpec(algorithm, algorithm, q=2.0, iterations=3)
            for kind in ModelKind:
                outcomes = []
                for data in pair:
                    try:
                        result = run_spec(spec, (data,), kind)[0]
                    except Exception as exc:  # the same failure at either origin
                        outcomes.append(type(exc))
                        continue
                    got = result.final.filter if isinstance(result, PkfResult) else result
                    outcomes.append(got.means.tobytes() + got.variances.tobytes())
                assert outcomes[0] == outcomes[1], (algorithm, kind)


class TestPublishedBands:
    """MSE bands on the default scenario; wide because the reference grid,
    seed, and scan parameters were never published."""

    def test_adaptive_kf_q1_band(self, benchmark_report):
        assert 25.0 <= benchmark_report.mse_of("kf-q1") <= 600.0

    def test_ukf_q10_band(self, benchmark_report):
        assert 4.0 <= benchmark_report.mse_of("ukf-q10") <= 80.0

    def test_urts_q1_band(self, benchmark_report):
        assert 40.0 <= benchmark_report.mse_of("urts-q1") <= 800.0

    def test_ipls_q10_i10_band(self, benchmark_report):
        assert 2.0 <= benchmark_report.mse_of("ipls-q10-i10") <= 60.0

    def test_ipls_single_iteration_matches_urts(self, benchmark_report):
        urts = benchmark_report.mse_of("urts-q1")
        ipls = benchmark_report.mse_of("ipls-q1-i1")
        assert abs(ipls - urts) <= 0.05 * urts

    def test_pkf_improves_with_iterations(self, benchmark_report):
        assert benchmark_report.mse_of("pkf-i10") < benchmark_report.mse_of("pkf-i1")
        assert benchmark_report.mse_of("pkf-i10") <= 5.0


def fabricate_result(grid, q_values):
    n = len(grid)
    state = PkfState(
        iteration=1,
        filter=Trajectory(grid, np.zeros(n), np.ones(n)),
        process_uncertainty=np.asarray(q_values, dtype=float),
        weights=PkfWeights(np.ones(n), np.zeros(n), np.zeros(n)),
    )
    return PkfResult(state, None, np.zeros(1), np.ones(1))


class TestQRatioSummary:
    def setup_method(self):
        self.grid = TimeGrid([0.0, 1.0, 2.0])
        d = 1.0  # two replicates at +-1 give sample variance 2
        self.data = TimeSeriesData(
            "s",
            self.grid,
            tuple(np.array([5.0 - d, 5.0 + d]) for _ in range(3)),
        )
        self.v = 2.0 * d * d

    def test_equal_q_and_variance_gives_zero(self):
        result = fabricate_result(self.grid, [self.v] * 3)
        summary = q_ratio_summary([("all", result, self.data)])
        np.testing.assert_allclose(summary.entries[0].log_ratio, 0.0, atol=1e-12)

    def test_e_fold_gives_one(self):
        result = fabricate_result(self.grid, [np.e * self.v] * 3)
        summary = q_ratio_summary([("all", result, self.data)])
        np.testing.assert_allclose(summary.entries[0].log_ratio, 1.0, rtol=1e-12)

    def test_grouping_and_bins(self):
        results = []
        for i, scale in enumerate((0.5, 1.0, 2.0, 4.0)):
            label = "hi" if i % 2 else "lo"
            results.append((label, fabricate_result(self.grid, [scale * self.v] * 3), self.data))
        summary = q_ratio_summary(results)
        assert set(summary.label_means) == {"hi", "lo"}
        assert len(summary.bins) == 10
        assert sum(b.count for b in summary.bins) == 4

    def test_panel_direction_small(self):
        scenario = GenePanelScenario.default(n_genes=20, seed=7)
        labels = panel_labels(scenario)
        results = []
        for truth, data in simulate_gene_panel(scenario):
            res = run_pkf(data, ModelKind.CONSTANT_REGULATION, iterations=10)
            results.append((labels[data.series_id], res, data))
        summary = q_ratio_summary(results)
        assert summary.label_means["dynamic"] > summary.label_means["static"]


#: Ratio-summary entries whose variances tie, repeat decile edges, or are
#: signed zeros or the variance floor.
RATIO_ENTRIES = st.lists(
    st.builds(
        QRatioEntry,
        series_id=st.just("s"),
        label=st.sampled_from(["a", "b", "c"]),
        log_ratio=st.floats(-30.0, 30.0),
        mean_data_variance=st.sampled_from([0.0, -0.0, 1e-9, 2.0, 3.0]) | st.floats(1e-9, 1e9),
    ),
    min_size=1,
    max_size=40,
)


class TestRatioGroups:
    """The ratio summary's label means and bins equal the list-scan oracle
    bit for bit: each variance lands in the same bin."""

    @settings(deadline=None, max_examples=300)
    @given(RATIO_ENTRIES)
    @example([QRatioEntry("s", "a", 0.5, 2.0)])  # a single series
    @example([QRatioEntry("s", "a", 1.0, -0.0), QRatioEntry("s", "b", 2.0, 0.0)] * 3)
    def test_equals_the_list_scans(self, entries):
        summary = _group_ratios(tuple(entries))
        label_means, bins = q_ratio_groups(entries)
        got = [(b.decile, b.variance_low, b.variance_high, b.count, b.label_means)
               for b in summary.bins]
        assert repr(summary.label_means) == repr(label_means)  # repr tells -0.0 from 0.0
        assert repr(got) == repr(bins)
        assert sum(b.count for b in summary.bins) == len(entries)


class TestDecileEdges:
    """The ratio summary's bin edges equal ``np.percentile`` bit for bit."""

    DECILES = np.linspace(0.0, 100.0, 11)

    @settings(deadline=None, max_examples=300)
    @given(
        st.integers(1, 60).flatmap(
            lambda n: st.one_of(
                arrays(float, n, elements=st.floats(-1e12, 1e12)),
                arrays(float, n, elements=st.floats(1e-9, 1e9)),
                arrays(float, n, elements=st.sampled_from([1e-9, 0.5, 2.0, 3.0])),  # ties
            )
        )
    )
    def test_equals_np_percentile(self, values):
        expected = np.percentile(values, self.DECILES)
        assert _decile_edges(values).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("values", [[4.2], [3.0, 1.0], [2.0, 2.0], [0.1, 0.7, 0.7, 0.2]])
    def test_short_and_tied_inputs(self, values):
        expected = np.percentile(values, self.DECILES)
        assert _decile_edges(values).tobytes() == expected.tobytes()

    def test_random_arrays(self):
        rng = np.random.default_rng(17)
        for n in range(1, 200):
            values = rng.lognormal(0.0, 3.0, n)
            if n % 3 == 0:
                values = np.round(values)  # ties
            expected = np.percentile(values, self.DECILES)
            assert _decile_edges(values).tobytes() == expected.tobytes()

    def test_signed_zero_ties(self):
        values = np.array([-0.0, -0.0, -0.0, 0.0] + [-0.0] * 9)
        assert _decile_edges(values).tobytes() == np.percentile(values, self.DECILES).tobytes()

    def test_imports_no_masked_arrays(self):
        # numpy.ma, which np.percentile and np.unique import, adds about 1.2 MB
        # to every process that writes a ratio summary
        code = (
            "import sys; from pathkf.bench import _decile_edges; _decile_edges([3.0, 1.0, 2.0]); "
            "sys.exit('numpy.ma' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), os.pardir, "src")}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
