"""Baseline filters/smoothers: unscented machinery and oracle equivalences."""

import contextlib
import logging
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathkf import (
    VARIANCE_FLOOR,
    InvalidParameterError,
    ModelKind,
    NumericalOverflowError,
    PathkfError,
    ScanGrid,
    TimeGrid,
    TimeSeriesData,
    run_adaptive_kf,
    run_ipls,
    run_ukf,
    run_urts,
)

from pathkf.baselines import (
    FlowStepDynamics,
    _sigma_moments,
    _statistical_linearization,
    _unscented_predict,
)

from oracles import AffineStepDynamics, linear_kf, linear_rts, sigma_moments


def series_from_groups(groups, times=None):
    times = np.arange(float(len(groups))) if times is None else np.asarray(times)
    return TimeSeriesData(
        "s", TimeGrid(times), tuple(np.asarray(g, dtype=float) for g in groups)
    )


def random_series(rng, n=25, loc=50.0, sd=3.0, replicates=8):
    groups = [rng.normal(loc + rng.normal(0, 10), sd, replicates) for _ in range(n)]
    return series_from_groups(groups)


def same_float(a: float, b: float) -> bool:
    """Bitwise equality of two floats up to the NaN payload: the sign of a
    zero counts, and NaN equals NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def outcome(f, *args):
    """``f(*args)``, or the type and text of the ``PathkfError`` it raised."""
    try:
        return f(*args)
    except PathkfError as exc:
        return type(exc), str(exc)


def signed_decades(lo: float, hi: float, signs=(-1.0, 1.0)):
    """Floats ``sign * 10**e`` with ``e`` uniform in ``[lo, hi]``."""
    return st.builds(lambda s, e: s * 10.0**e, st.sampled_from(signs), st.floats(lo, hi))


def affine_maps():
    return st.builds(
        lambda a, b: lambda x: a * x + b,
        st.floats(-1e3, 1e3) | signed_decades(-300, 300),
        st.floats(-1e3, 1e3) | signed_decades(-300, 300),
    )


def quadratic_map(x):
    return x * x * 0.37 + 1.3 * x


class TestSigmaMoments:
    @settings(deadline=None, max_examples=400)
    @given(
        mean=st.floats(-1e300, 1e300) | signed_decades(-300, 300),
        variance=st.floats(0.0, 1e300) | signed_decades(-300, 300, signs=(1.0,)),
        f=affine_maps() | st.sampled_from([quadratic_map, np.exp, lambda x: 1e200 * x]),
    )
    # every point maps to -0.0: numpy's sums start from +0.0, so all three
    # moments are +0.0
    @example(mean=0.0, variance=0.0, f=np.negative)
    def test_bitwise_equal_to_the_numpy_referee(self, mean, variance, f):
        with np.errstate(over="ignore", invalid="ignore"):  # as every caller runs it
            got = outcome(_sigma_moments, mean, variance, f)
        want = outcome(sigma_moments, mean, variance, f)
        if isinstance(want[0], type):
            assert got == want
        else:
            assert all(same_float(g, w) for g, w in zip(got, want, strict=True)), (got, want)

    def test_summation_order_is_numpys(self):
        # numpy adds the three weighted squares left to right; grouping the
        # last two first moves the variance by one unit in the last place
        mean, variance = -26.203537290810864, 21.773726719585117
        got = _sigma_moments(mean, variance, quadratic_map)
        assert got == sigma_moments(mean, variance, quadratic_map)
        assert got[1] == 7255.704491285207
        spread = math.sqrt(variance)
        y = quadratic_map(np.array([mean, mean + spread, mean - spread])) - got[0]
        assert 2.0 * y[0] ** 2 + (0.5 * y[1] ** 2 + 0.5 * y[2] ** 2) == 7255.704491285206

    def test_identity_preserves_moments(self):
        out = _sigma_moments(2.5, 4.0, lambda x: x)
        np.testing.assert_allclose(out, [2.5, 4.0, 4.0], rtol=1e-12)

    def test_affine_exactness(self):
        out = _sigma_moments(1.0, 4.0, lambda x: 3.0 * x + 2.0)
        np.testing.assert_allclose(out, [5.0, 36.0, 12.0], rtol=1e-12)

    def test_square_against_monte_carlo(self):
        rng = np.random.default_rng(12)
        draws = rng.standard_normal(1_000_000)
        mc_mean = float(np.mean(draws**2))
        mean, _, _ = _sigma_moments(0.0, 1.0, lambda x: x**2)
        assert abs(mean - mc_mean) <= 0.1 * mc_mean

    def test_variance_clamped_at_floor(self):
        # the UKF prediction floors the propagated variance before adding q
        data = series_from_groups([[1.0]] * 3)
        dynamics = FlowStepDynamics(ModelKind.BIRTH_DEATH, *data.summaries())
        predict = _unscented_predict(dynamics, data.grid.times, 0.0)
        _, variance, _ = predict(1, np.array([1.0, 0.0, 0.0]), np.zeros(3))
        assert variance == VARIANCE_FLOOR

    @pytest.mark.parametrize(
        "step_map, problem",
        [(math.exp, ""), (lambda x: 5.0, r"it maps shape \(3,\) to \(\)$")],
        ids=["math.exp", "constant"],
    )
    def test_step_map_must_be_elementwise_over_arrays(self, step_map, problem):
        with pytest.raises(
            InvalidParameterError, match=f"^the step map must be elementwise over arrays: {problem}"
        ):
            _sigma_moments(1.0, 0.25, step_map)


class TestStatisticalLinearization:
    def test_affine_is_exact(self):
        slope, intercept, residual = _statistical_linearization(2.0, 3.0, lambda x: 4.0 * x - 1.0)
        np.testing.assert_allclose([slope, intercept], [4.0, -1.0], rtol=1e-10)
        assert residual <= 1e-12

    def test_residual_non_negative_for_nonlinear_map(self):
        slope, _, residual = _statistical_linearization(1.0, 1.0, lambda x: x**2)
        assert residual >= 0.0
        np.testing.assert_allclose(slope, 2.0, rtol=1e-8)


class TestAdaptiveKF:
    def test_balanced_gain_when_variances_match(self):
        # flat data; at the third point V(Z) = V(M) + q forces w = 1/2
        d = 0.5
        c = 3.0
        v_z = 2 * d * d
        groups = [[1.0, 1.0], [1.0, 1.0], [c - d, c + d]]
        data = series_from_groups(groups)
        q = v_z - VARIANCE_FLOOR  # birth-death posterior variance sits at the floor
        out = run_adaptive_kf(data, ModelKind.BIRTH_DEATH, q=q)
        # model propagates the previous filter mean (1.0) along flat data
        np.testing.assert_allclose(out.means[2], 0.5 * c + 0.5 * 1.0, rtol=1e-9)

    def test_huge_q_tracks_data(self):
        rng = np.random.default_rng(13)
        data = random_series(rng)
        z_means, _ = data.summaries()
        out = run_adaptive_kf(data, ModelKind.BIRTH_DEATH, q=1e12)
        np.testing.assert_allclose(out.means, z_means, rtol=1e-6)

    def test_variances_floored_and_finite(self):
        rng = np.random.default_rng(14)
        data = random_series(rng)
        out = run_adaptive_kf(data, ModelKind.BIRTH_DEATH, q=1.0)
        assert np.all(out.variances >= VARIANCE_FLOOR)
        assert np.all(np.isfinite(out.means))


@st.composite
def affine_cases(draw):
    """A noisy series plus the affine dynamics that generated its truth."""
    slope = draw(st.floats(0.5, 1.2))
    intercept = draw(st.floats(-10.0, 10.0))
    q = draw(st.floats(0.1, 10.0))
    n = draw(st.integers(3, 30))
    replicates = draw(st.integers(2, 8))
    sd = draw(st.floats(0.5, 5.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = np.empty(n)
    y[0] = 30.0
    for t in range(1, n):
        y[t] = slope * y[t - 1] + intercept
    data = series_from_groups([rng.normal(y[t], sd, replicates) for t in range(n)])
    return data, AffineStepDynamics(slope, intercept), slope, intercept, q


affine_property = settings(deadline=None, max_examples=100)


class TestUnscentedKF:
    @affine_property
    @given(affine_cases())
    def test_affine_oracle(self, affine_case):
        data, dynamics, slope, intercept, q = affine_case
        out = run_ukf(data, dynamics, q=q)
        z_means, z_vars = data.summaries()
        m_ref, p_ref, _, _ = linear_kf(data.grid.times, z_means, z_vars, slope, intercept, q)
        np.testing.assert_allclose(out.means, m_ref, rtol=1e-8)
        np.testing.assert_allclose(out.variances, p_ref, rtol=1e-8)

    def test_constant_data_fixed_point(self):
        data = series_from_groups([[10.0, 10.0]] * 8)
        out = run_ukf(data, ModelKind.BIRTH_DEATH, q=1.0)
        np.testing.assert_allclose(out.means, 10.0, rtol=1e-8)

    def test_output_shape_and_floors(self):
        rng = np.random.default_rng(16)
        data = random_series(rng)
        out = run_ukf(data, ModelKind.BIRTH_DEATH, q=1.0)
        assert len(out.means) == len(data.grid)
        assert np.all(out.variances >= VARIANCE_FLOOR)


class TestUnscentedRTS:
    def test_backward_pass_reuses_the_forward_sigma_points(self, monkeypatch):
        # the smoother gain reads the cross-covariance of the forward
        # prediction, so each step's sigma points are propagated once
        import pathkf.baselines as baselines

        calls = []
        propagate = baselines._propagate

        def counting(points, f):
            calls.append(len(points))
            return propagate(points, f)

        monkeypatch.setattr(baselines, "_propagate", counting)
        run_urts(random_series(np.random.default_rng(19), n=12), ModelKind.BIRTH_DEATH)
        assert len(calls) == 11

    def test_last_point_equals_forward_estimate(self):
        rng = np.random.default_rng(17)
        data = random_series(rng)
        forward = run_ukf(data, ModelKind.BIRTH_DEATH, q=2.0)
        smoothed = run_urts(data, ModelKind.BIRTH_DEATH, q=2.0)
        assert smoothed.means[-1] == forward.means[-1]
        assert smoothed.variances[-1] == forward.variances[-1]

    @affine_property
    @given(affine_cases())
    def test_affine_oracle(self, affine_case):
        data, dynamics, slope, intercept, q = affine_case
        out = run_urts(data, dynamics, q=q)
        z_means, z_vars = data.summaries()
        ms_ref, ps_ref = linear_rts(data.grid.times, z_means, z_vars, slope, intercept, q)
        np.testing.assert_allclose(out.means, ms_ref, rtol=1e-8)
        np.testing.assert_allclose(out.variances, ps_ref, rtol=1e-8)


class TestIpls:
    def test_single_iteration_equals_urts(self):
        rng = np.random.default_rng(18)
        data = random_series(rng)
        urts = run_urts(data, ModelKind.BIRTH_DEATH, q=1.0)
        ipls = run_ipls(data, ModelKind.BIRTH_DEATH, q=1.0, iterations=1)
        np.testing.assert_array_equal(ipls.means, urts.means)
        np.testing.assert_array_equal(ipls.variances, urts.variances)

    @affine_property
    @given(affine_cases())
    def test_affine_iterations_are_fixed_points(self, affine_case):
        data, dynamics, slope, intercept, q = affine_case
        one = run_ipls(data, dynamics, q=q, iterations=1)
        five = run_ipls(data, dynamics, q=q, iterations=5)
        np.testing.assert_allclose(five.means, one.means, rtol=1e-8)
        np.testing.assert_allclose(five.variances, one.variances, rtol=1e-8)

    @affine_property
    @given(affine_cases())
    def test_affine_oracle(self, affine_case):
        data, dynamics, slope, intercept, q = affine_case
        out = run_ipls(data, dynamics, q=q, iterations=4)
        z_means, z_vars = data.summaries()
        ms_ref, ps_ref = linear_rts(data.grid.times, z_means, z_vars, slope, intercept, q)
        np.testing.assert_allclose(out.means, ms_ref, rtol=1e-8)
        np.testing.assert_allclose(out.variances, ps_ref, rtol=1e-8)

    def test_iterations_validated(self):
        data = random_series(np.random.default_rng(15))
        with pytest.raises(InvalidParameterError):
            run_ipls(data, ModelKind.BIRTH_DEATH, q=1.0, iterations=0)


# math.isfinite alone raises a bare OverflowError on an integer past the float range
@pytest.mark.parametrize(
    "q", [-5.0, math.nan, math.inf, pytest.param(10**400, id="int-past-float")]
)
@pytest.mark.parametrize("run", [run_adaptive_kf, run_ukf, run_urts, run_ipls])
def test_bad_q_is_rejected(run, q):
    # a NaN q would otherwise fail later as an overflow that blames the model
    data = random_series(np.random.default_rng(16))
    with pytest.raises(InvalidParameterError, match="^q must be finite and non-negative$"):
        run(data, ModelKind.BIRTH_DEATH, q=q)


class TestOverflow:
    @pytest.mark.parametrize("run", [run_adaptive_kf, run_ukf, run_urts, run_ipls])
    @pytest.mark.parametrize("spike", [50.0, 1e8])
    def test_birth_death_step_overflow_is_typed(self, run, spike):
        # a near-zero mean followed by a jump gives a growth rate near
        # log(spike / 1e-6) / 0.01, which overflows over the next, longer step
        groups = [[v, v] for v in (1.0, 1e-7, spike, 3.0, 4.0)]
        data = series_from_groups(groups, times=[0.0, 0.01, 0.02, 1.0, 2.0])
        with pytest.raises(
            NumericalOverflowError,
            match=r"series 's': timepoint 3 \(t=1\.0\): .*factor overflowed ",
        ):
            run(data, ModelKind.BIRTH_DEATH)

    @pytest.mark.parametrize("run", [run_ukf, run_urts, run_ipls])
    def test_overflowing_propagation_is_typed(self, run):
        # here the step factor is finite but the propagated sigma points are not
        groups = [[v, v] for v in (1.0, 1e-7, 1e12, 3.0, 4.0)]
        data = series_from_groups(groups, times=[0.0, 0.1, 0.2, 1.0, 2.0])
        with pytest.raises(
            NumericalOverflowError, match=r"series 's': timepoint 4 \(t=2\.0\): .*step map "
        ):
            run(data, ModelKind.BIRTH_DEATH)

    @pytest.mark.parametrize(
        "step_map, problem",
        [
            (lambda x: np.where(x > 1, np.inf, x), "the step map"),
            (lambda x: 1e200 * x, "the propagated moments"),  # d * d overflows
        ],
        ids=["step-map", "moments"],
    )
    def test_injected_overflow_names_the_timepoint(self, step_map, problem):
        dynamics = types.SimpleNamespace(step_map=lambda times, ref_means, index: step_map)
        data = series_from_groups([[4.0, 6.0]] * 3)
        with warnings.catch_warnings(), pytest.raises(
            NumericalOverflowError,
            match=f"^series 's': timepoint 1 \\(t=1\\.0\\): {problem} left the finite range$",
        ):
            warnings.simplefilter("error")
            run_ukf(data, dynamics)

    def test_linearized_pass_overflow_leaks_no_warning(self):
        # identity steps through the unscented pass, then a map whose sigma
        # points overflow in numpy once the first linearized pass starts
        calls = []

        def step_map(times, ref_means, index):
            calls.append(index)
            return (lambda x: x) if len(calls) <= 2 else (lambda x: np.exp(1000.0 * x))

        dynamics = types.SimpleNamespace(step_map=step_map)
        data = series_from_groups([[4.0, 6.0]] * 3)
        with warnings.catch_warnings(), pytest.raises(
            NumericalOverflowError,
            match=r"^series 's': timepoint 1 \(t=1\.0\): the step map left the finite range$",
        ):
            warnings.simplefilter("error")
            run_ipls(data, dynamics, iterations=2)
        assert calls == [1, 2, 1]

    def test_squared_slope_overflow_is_typed(self):
        # a slope past 1.3e154 overflows when squared, which Python's float
        # power raises as a bare OverflowError
        with np.errstate(over="ignore"), pytest.raises(
            NumericalOverflowError, match="^the linearization slope 1e\\+160 overflowed when squared$"
        ):
            _statistical_linearization(0.0, 1.0, lambda x: 1e160 * x)

    def test_ipls_slope_overflow_names_the_timepoint(self):
        # a harsh random series (scale 1e6, negative replicates) on which the
        # second IPLS pass linearizes a birth/death step with slope 5e167
        times = [-3.661572234964936, -2.220310945795246, -1.6351601806403253,
                 -0.5328172083503464, 0.4390469999524971, 0.5608061164946417, 2.096066734669735]
        groups = [
            [1457828.8227068083, -2811262.074891367, 579300.886682014],
            [539580.0896358466, -324274.1014440257],
            [7554549.111105378],
            [5797649.958461251, 9747714.405635882, 5730533.880392902],
            [7808527.1866751285, 5138033.678575799, 5475500.754097922],
            [3253599.062590794, -349804.218832487],
            [2339550.601284883],
        ]
        data = series_from_groups(groups, times=times)
        with np.errstate(all="ignore"), pytest.raises(
            NumericalOverflowError,
            match=r"^series 's': timepoint 6 \(t=2\.09[^)]*\): "
            r"the linearization slope \S+ overflowed when squared$",
        ):
            run_ipls(data, ModelKind.BIRTH_DEATH, q=10.0, iterations=3)

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("algorithm", ["kf", "ukf", "urts", "ipls"])
    def test_failing_run_emits_no_runtime_warning(self, algorithm, kind):
        # the kf's birth/death model mean overflows at timepoint 2; every run
        # either succeeds or raises a typed error, and numpy warns of nothing
        data = series_from_groups([[v] for v in (1e-300, 1e200, 1e-300, 1e200)])
        run = {"kf": run_adaptive_kf, "ukf": run_ukf, "urts": run_urts,
               "ipls": lambda *args: run_ipls(*args, iterations=3)}[algorithm]
        with warnings.catch_warnings(), contextlib.suppress(PathkfError):
            warnings.simplefilter("error")
            run(data, kind, 1.0)


def test_const_reg_step_fit_failure_names_the_timepoint():
    # anchors of opposite sign near the float limit and a high-rate scan give
    # a finite steady state but predictions that overflow: the step map
    # raises, and the filter that calls it names the timepoint. The kf stops
    # one step earlier, where the window's infinite model variance makes its
    # estimate non-finite.
    vals = [1.7e308, 1.7e308, -1.7e308, 0.0]
    data = series_from_groups([[v] for v in vals])
    z_means, z_vars = data.summaries()
    scan = ScanGrid(num=5, k_min=5.0, k_max=50.0)
    dynamics = FlowStepDynamics(ModelKind.CONSTANT_REGULATION, z_means, z_vars, scan)
    with pytest.raises(NumericalOverflowError, match=r"^the model fit left the finite range$"):
        dynamics.step_map(data.grid.times, z_means, 3)
    with pytest.raises(
        NumericalOverflowError,
        match=r"^series 's': timepoint 3 \(t=3\.0\): the model fit left the finite range$",
    ):
        run_ukf(data, ModelKind.CONSTANT_REGULATION)
    with pytest.raises(
        NumericalOverflowError,
        match=r"^series 's': timepoint 2 \(t=2\.0\): the filter estimate left the finite range$",
    ):
        run_adaptive_kf(data, ModelKind.CONSTANT_REGULATION)


def count_fitted_windows(monkeypatch):
    """Target timepoints of every window the baselines fit, in call order."""
    import pathkf.baselines as baselines

    targets = []
    fit = baselines.fit_spline_posterior

    def counting(kind, scan, times, ia, ib, window_targets, *args, **kwargs):
        targets.extend(int(t) for t in window_targets)
        return fit(kind, scan, times, ia, ib, window_targets, *args, **kwargs)

    monkeypatch.setattr(baselines, "fit_spline_posterior", counting)
    return targets


def test_adaptive_kf_fits_each_window_once(monkeypatch):
    # each const-reg window is fit exactly once, whatever the number of calls
    targets = count_fitted_windows(monkeypatch)
    data = random_series(np.random.default_rng(3), n=12)
    run_adaptive_kf(data, ModelKind.CONSTANT_REGULATION)
    assert targets == list(range(2, 12))


def test_adaptive_kf_birth_death_fits_no_window(monkeypatch):
    targets = count_fitted_windows(monkeypatch)
    run_adaptive_kf(random_series(np.random.default_rng(4), n=12), ModelKind.BIRTH_DEATH)
    assert targets == []


def test_adaptive_kf_stops_at_the_first_non_finite_estimate(monkeypatch, caplog):
    # two replicates of 1e300 at the fifth timepoint make the estimate at
    # timepoint 5 non-finite: no window past it is fitted or logged
    groups = [[1e300, 1e300] if t == 4 else [10.0 + t, 10.5 + t] for t in range(14)]
    data = series_from_groups(groups, times=2.0 * np.arange(14))
    targets = count_fitted_windows(monkeypatch)
    with caplog.at_level(logging.WARNING), pytest.raises(
        NumericalOverflowError,
        match=r"^series 's': timepoint 5 \(t=10\.0\): the filter estimate left the finite range$",
    ):
        run_adaptive_kf(data, ModelKind.CONSTANT_REGULATION)
    assert targets == [2, 3, 4, 5]
    assert [r.getMessage() for r in caplog.records] == [
        f"degenerate spline posterior at t={t}; using uniform weights" for t in (8.0, 10.0)
    ]
