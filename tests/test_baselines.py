"""Baseline filters/smoothers: the closed-form prediction and oracle equivalences."""

import contextlib
import logging
import math
import types
import warnings
from fractions import Fraction

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

from pathkf.baselines import FlowStepDynamics, _affine_predict, _Relaxation

from oracles import AffineStepDynamics, adaptive_kf, linear_kf, linear_rts


def series_from_groups(groups, times=None):
    times = np.arange(float(len(groups))) if times is None else np.asarray(times)
    return TimeSeriesData(
        "s", TimeGrid(times), tuple(np.asarray(g, dtype=float) for g in groups)
    )


def random_series(rng, n=25, loc=50.0, sd=3.0, replicates=8):
    groups = [rng.normal(loc + rng.normal(0, 10), sd, replicates) for _ in range(n)]
    return series_from_groups(groups)


def signed_decades(lo: float, hi: float, signs=(-1.0, 1.0)):
    """Floats ``sign * 10**e`` with ``e`` uniform in ``[lo, hi]``."""
    return st.builds(lambda s, e: s * 10.0**e, st.sampled_from(signs), st.floats(lo, hi))


def positive_decades(lo: float, hi: float):
    """Positive floats in ``[lo, hi]``, log-uniform or uniform."""
    return signed_decades(math.log10(lo), math.log10(hi), signs=(1.0,)) | st.floats(lo, hi)


def left_range_at(t: int) -> str:
    """The located error of a non-finite estimate at timepoint ``t``, on the grid ``0, 1, ...``."""
    return rf"^series 's': timepoint {t} \(t={t}\.0\): the filter estimate left the finite range$"


class FixedStep:
    """Dynamics whose every step is ``step``."""

    def __init__(self, step):
        self.step = step

    def step_map(self, times, ref_means, index):
        return self.step


class TestAffinePredict:
    """The one closed-form prediction of the UKF pass and the IPLS passes."""

    @settings(deadline=None, max_examples=1000)
    @given(
        mean=signed_decades(-12, 12) | st.floats(-1e12, 1e12),
        variance=positive_decades(1e-9, 1e6),
        slope=positive_decades(1e-8, 10.0),
        steady=signed_decades(-12, 12) | st.floats(-1e12, 1e12),
        ukf=st.booleans(),
    )
    # three sigma points at m and m ± sd miss these: the variance by 4 ulp,
    # and a mean of exactly 0 by 5.6e-17
    @example(mean=0.0, variance=1.0, slope=0.1, steady=1.0, ukf=False)
    @example(mean=0.0, variance=1.0, slope=1.0, steady=-1e-3, ukf=False)
    def test_moments_are_exact(self, mean, variance, slope, steady, ukf):
        # the exact moments of an affine map of a Gaussian, against rational
        # arithmetic on the same step: variance and cross-covariance within
        # 2 ulp, and the mean within 4 ulp of its larger term
        step = _Relaxation(steady, slope, VARIANCE_FLOOR)
        predict = _affine_predict(FixedStep(step), None, 0.0, None if ukf else np.zeros(2))
        got_mean, got_var, got_cross = predict(1, np.array([mean, 0.0]), np.array([variance, 0.0]))
        a, p = Fraction(slope), Fraction(variance)
        want_var = max(a * a * p, Fraction(VARIANCE_FLOOR)) if ukf else a * a * p
        term = (Fraction(mean) - Fraction(steady)) * a
        assert abs(Fraction(got_var) - want_var) <= 2 * Fraction(math.ulp(float(want_var)))
        assert abs(Fraction(got_cross) - a * p) <= 2 * Fraction(math.ulp(float(a * p)))
        larger = max(abs(steady), abs(float(term)))
        assert abs(Fraction(got_mean) - (Fraction(steady) + term)) <= 4 * Fraction(
            math.ulp(larger)
        )

    def test_variance_clamped_at_floor(self):
        # the UKF pass floors the propagated variance before adding q; the
        # IPLS passes, fitted on the smoothed means, do not
        data = series_from_groups([[1.0]] * 3)
        dynamics = FlowStepDynamics(ModelKind.BIRTH_DEATH, *data.summaries())
        m, p = np.array([1.0, 0.0, 0.0]), np.zeros(3)
        _, variance, _ = _affine_predict(dynamics, data.grid.times, 0.0)(1, m, p)
        assert variance == VARIANCE_FLOOR
        _, variance, _ = _affine_predict(dynamics, data.grid.times, 0.0, m)(1, m, p)
        assert variance == 0.0

    @pytest.mark.parametrize("run", [run_ukf, run_urts, run_ipls])
    @pytest.mark.parametrize("step", [np.exp, lambda x: 2.0 * x], ids=["exp", "lambda"])
    def test_a_step_without_a_slope_is_rejected(self, run, step):
        with pytest.raises(
            InvalidParameterError, match="^a step map must return an affine step with a slope$"
        ):
            run(series_from_groups([[4.0, 6.0]] * 3), FixedStep(step))

    def test_birth_death_steps_are_relaxations_toward_zero(self):
        data = series_from_groups([[1.0, 1.2], [2.0, 2.2], [4.0, 4.2]])
        z_means, z_vars = data.summaries()
        dynamics = FlowStepDynamics(ModelKind.BIRTH_DEATH, z_means, z_vars)
        assert dynamics.step_map(data.grid.times, z_means, 1) == _Relaxation(
            0.0, 1.0, VARIANCE_FLOOR
        )
        step = dynamics.step_map(data.grid.times, z_means, 2)
        assert (step.steady, step.variance) == (0.0, VARIANCE_FLOOR)
        assert step.slope == math.exp(math.log(z_means[1] / z_means[0]))
        assert step(3.0) == 3.0 * step.slope


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


def mild_series(rng, n):
    """Positive levels on a random grid, a few percent of noise, 2-6 replicates."""
    times = np.cumsum(np.r_[rng.uniform(-5.0, 5.0), rng.uniform(0.05, 2.0, n - 1)])
    level = rng.uniform(5.0, 100.0) * np.exp(np.cumsum(rng.normal(0.0, 0.2, n)))
    groups = [v * (1.0 + 0.05 * rng.standard_normal(rng.integers(2, 7))) for v in level]
    return series_from_groups(groups, times=times)


#: Inputs on which the kf stops for one model or both: a spike of 1e300,
#: anchors of opposite sign near the float limit, and a near-zero mean
#: before a jump.
STOPPING_KF_INPUTS = [
    ([[1e300, 1e300] if t == 4 else [10.0 + t, 10.5 + t] for t in range(14)],
     2.0 * np.arange(14)),
    ([[1e307], [-1e307], [0.0]], None),
    ([[v, v] for v in (1.0, 1e-7, 50.0, 3.0, 4.0)], [0.0, 0.01, 0.02, 1.0, 2.0]),
]


def error_text(f, *args):
    """The type and text of the ``PathkfError`` that ``f(*args)`` raised, or None."""
    try:
        f(*args)
    except PathkfError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


@pytest.mark.parametrize("q", [1.0, 10.0])
@pytest.mark.parametrize("kind", list(ModelKind))
def test_adaptive_kf_matches_the_weight_form_referee(kind, q):
    # the shared gain-form update and the referee's weight form agree up to
    # rounding on mild series, and stop at the same timepoint with the same
    # error. The means are compared on the scale of the data and of the
    # model means, which a birth/death flow can carry far past the data. The
    # gain form's 1 - g rounds by up to eps/2, which moves a variance by up
    # to eps times the prediction variance b = V(M) + q: relative to the
    # variance, b / V(Z) times eps, 1e-8 on near-equal replicates.
    rng = np.random.default_rng(21)
    eps = np.finfo(float).eps
    for _ in range(40):
        data = mild_series(rng, int(rng.integers(3, 26)))
        out = run_adaptive_kf(data, kind, q=q)
        ref_m, ref_p, ref_m_pred, ref_p_pred = adaptive_kf(data, kind, q)
        scale = max(np.max(np.abs(data.summaries()[0])), np.max(np.abs(ref_m_pred)))
        np.testing.assert_allclose(out.means, ref_m, rtol=0, atol=1e-13 * scale)
        assert np.all(np.abs(out.variances - ref_p) <= 2 * eps * (ref_p + ref_p_pred))
    stopped = 0
    for groups, times in STOPPING_KF_INPUTS:
        data = series_from_groups(groups, times)
        expected = error_text(adaptive_kf, data, kind, q)
        assert error_text(run_adaptive_kf, data, kind, q) == expected
        stopped += expected is not None
    assert stopped >= 2


def test_adaptive_kf_stops_where_data_and_prediction_straddle_the_range():
    # the gain form's z - m overflows where the data and the prediction lie
    # more than the float range apart, and the weight form w*z + (1-w)*e does
    # not: the kf shares the other baselines' update, so it stops here as
    # they do, while the weight-form referee finishes
    data = series_from_groups([[1.7e308], [1.7e308], [-1.7e308], [0.0]])
    assert np.all(np.isfinite(adaptive_kf(data, ModelKind.BIRTH_DEATH, 1.0)[0]))
    for run in (run_adaptive_kf, run_ukf):
        assert error_text(run, data, ModelKind.BIRTH_DEATH, 1.0) == (
            "NumericalOverflowError: series 's': timepoint 2 (t=2.0): "
            "the filter estimate left the finite range"
        )


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
    def test_backward_pass_fits_no_step(self, monkeypatch):
        # the smoother gain reads the cross-covariance of the forward
        # prediction, so only the forward passes fit steps: once per step
        # for the URTS, and once more per further IPLS iteration
        calls = []
        step_map = FlowStepDynamics.step_map

        def counting(self, times, ref_means, index):
            calls.append(index)
            return step_map(self, times, ref_means, index)

        monkeypatch.setattr(FlowStepDynamics, "step_map", counting)
        data = random_series(np.random.default_rng(19), n=12)
        run_urts(data, ModelKind.BIRTH_DEATH)
        assert calls == list(range(1, 12))
        calls.clear()
        run_ipls(data, ModelKind.BIRTH_DEATH, iterations=3)
        assert calls == 3 * list(range(1, 12))

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
        # a finite slope carries an estimate near the float limit past it:
        # the predicted mean overflows while its variance stays finite
        data = series_from_groups([[1.0], [1.0], [1.5e308], [1.0]])
        with warnings.catch_warnings(), pytest.raises(
            NumericalOverflowError,
            match=left_range_at(3),
        ):
            warnings.simplefilter("error")
            run(data, AffineStepDynamics(2.0))

    @pytest.mark.parametrize(
        "groups, slope",
        [([[1e308]] * 3, 2.0), ([[4.0, 6.0]] * 3, 1e200)],
        ids=["step-map", "moments"],  # the step's value, or its squared slope, overflows
    )
    def test_injected_overflow_names_the_timepoint(self, groups, slope):
        data = series_from_groups(groups)
        with warnings.catch_warnings(), pytest.raises(
            NumericalOverflowError,
            match=left_range_at(1),
        ):
            warnings.simplefilter("error")
            run_ukf(data, AffineStepDynamics(slope))

    def test_linearized_pass_overflow_leaks_no_warning(self):
        # identity steps through the unscented pass, then a step whose
        # squared slope overflows once the first linearized pass starts
        calls = []

        def step_map(times, ref_means, index):
            calls.append(index)
            return AffineStepDynamics(1.0 if len(calls) <= 2 else 1e200)

        dynamics = types.SimpleNamespace(step_map=step_map)
        data = series_from_groups([[4.0, 6.0]] * 3)
        with warnings.catch_warnings(), pytest.raises(
            NumericalOverflowError,
            match=left_range_at(1),
        ):
            warnings.simplefilter("error")
            run_ipls(data, dynamics, iterations=2)
        assert calls == [1, 2, 1]

    def test_ipls_slope_overflow_names_the_timepoint(self):
        # the IPLS passes fit a birth/death-like step with slope 5e167 into
        # timepoint 4, whose square overflows; the unscented pass had slope 1
        calls = []

        def step_map(times, ref_means, index):
            calls.append(index)
            return AffineStepDynamics(5e167 if len(calls) > 5 and index == 4 else 1.0)

        data = series_from_groups([[4.0, 6.0]] * 6)
        with np.errstate(all="ignore"), pytest.raises(
            NumericalOverflowError,
            match=left_range_at(4),
        ):
            run_ipls(data, types.SimpleNamespace(step_map=step_map), q=10.0, iterations=3)
        assert calls == [1, 2, 3, 4, 5, 1, 2, 3, 4]

    @pytest.mark.parametrize(
        "groups, times, q",
        [
            # a near-zero mean before a jump of 1e12 makes the step into
            # timepoint 3 a growth by about 1e144
            ([[v, v] for v in (1.0, 1e-7, 1e12, 3.0, 4.0)], [0.0, 0.1, 0.2, 1.0, 2.0], 1.0),
            # scale 1e6 with negative replicates: a later IPLS iteration
            # fits a step with slope 5e167 on the smoothed means
            ([[1457828.8227068083, -2811262.074891367, 579300.886682014],
              [539580.0896358466, -324274.1014440257],
              [7554549.111105378],
              [5797649.958461251, 9747714.405635882, 5730533.880392902],
              [7808527.1866751285, 5138033.678575799, 5475500.754097922],
              [3253599.062590794, -349804.218832487],
              [2339550.601284883]],
             [-3.661572234964936, -2.220310945795246, -1.6351601806403253,
              -0.5328172083503464, 0.4390469999524971, 0.5608061164946417, 2.096066734669735],
             10.0),
        ],
        ids=["jump", "scale-1e6"],
    )
    def test_a_harsh_birth_death_series_completes(self, groups, times, q):
        data = series_from_groups(groups, times=times)
        for run in (run_ukf, run_urts, lambda *args: run_ipls(*args, iterations=3)):
            out = run(data, ModelKind.BIRTH_DEATH, q)
            assert np.all(np.isfinite(out.means)) and np.all(np.isfinite(out.variances))

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
    # raises. The filters stop one step earlier, where the data pulls the
    # estimate past the float range, and the forward update names the
    # timepoint of that estimate.
    vals = [1.7e308, 1.7e308, -1.7e308, 0.0]
    data = series_from_groups([[v] for v in vals])
    z_means, z_vars = data.summaries()
    scan = ScanGrid(num=5, k_min=5.0, k_max=50.0)
    dynamics = FlowStepDynamics(ModelKind.CONSTANT_REGULATION, z_means, z_vars, scan)
    with pytest.raises(NumericalOverflowError, match=r"^the model fit left the finite range$"):
        dynamics.step_map(data.grid.times, z_means, 3)
    for run in (run_ukf, run_adaptive_kf):
        with pytest.raises(
            NumericalOverflowError,
            match=r"^series 's': timepoint 2 \(t=2\.0\): "
            r"the filter estimate left the finite range$",
        ):
            run(data, ModelKind.CONSTANT_REGULATION)


@pytest.mark.parametrize("run", [run_adaptive_kf, run_ukf, run_urts, run_ipls])
def test_const_reg_fit_failure_on_finite_estimates_names_the_timepoint(run):
    # the first two estimates stay finite, but the window on them, of
    # opposite sign near the float limit, has a posterior mean past it
    data = series_from_groups([[1e307], [-1e307], [0.0]])
    with pytest.raises(
        NumericalOverflowError,
        match=r"^series 's': timepoint 2 \(t=2\.0\): the model fit left the finite range$",
    ):
        run(data, ModelKind.CONSTANT_REGULATION)


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
