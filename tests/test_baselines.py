"""Baseline filters/smoothers: unscented machinery and oracle equivalences."""

import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathkf import (
    VARIANCE_FLOOR,
    GaussianEstimate,
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
    statistical_linearization,
    unscented_transform,
)

from pathkf.baselines import FlowStepDynamics

from oracles import AffineStepDynamics, linear_kf, linear_rts


def series_from_groups(groups, times=None):
    times = np.arange(float(len(groups))) if times is None else np.asarray(times)
    return TimeSeriesData(
        "s", TimeGrid(times), tuple(np.asarray(g, dtype=float) for g in groups)
    )


def random_series(rng, n=25, loc=50.0, sd=3.0, replicates=8):
    groups = [rng.normal(loc + rng.normal(0, 10), sd, replicates) for _ in range(n)]
    return series_from_groups(groups)


class TestUnscentedTransform:
    def test_identity_preserves_moments(self):
        est = GaussianEstimate(2.5, 4.0)
        out = unscented_transform(est, lambda x: x)
        np.testing.assert_allclose([out.mean, out.variance], [2.5, 4.0], rtol=1e-12)

    def test_affine_exactness(self):
        out = unscented_transform(GaussianEstimate(1.0, 4.0), lambda x: 3.0 * x + 2.0)
        np.testing.assert_allclose([out.mean, out.variance], [5.0, 36.0], rtol=1e-12)

    def test_square_against_monte_carlo(self):
        rng = np.random.default_rng(12)
        draws = rng.standard_normal(1_000_000)
        mc_mean = float(np.mean(draws**2))
        out = unscented_transform(GaussianEstimate(0.0, 1.0), lambda x: x**2)
        assert abs(out.mean - mc_mean) <= 0.1 * mc_mean

    def test_variance_clamped_at_floor(self):
        out = unscented_transform(GaussianEstimate(1.0, 0.0), lambda x: x)
        assert out.variance == VARIANCE_FLOOR

    @pytest.mark.parametrize(
        "step_map, problem",
        [(math.exp, ""), (lambda x: 5.0, r"it maps shape \(3,\) to \(\)$")],
        ids=["math.exp", "constant"],
    )
    def test_step_map_must_be_elementwise_over_arrays(self, step_map, problem):
        with pytest.raises(
            InvalidParameterError, match=f"^the step map must be elementwise over arrays: {problem}"
        ):
            unscented_transform(GaussianEstimate(1.0, 0.25), step_map)


class TestStatisticalLinearization:
    def test_affine_is_exact(self):
        slope, intercept, residual = statistical_linearization(2.0, 3.0, lambda x: 4.0 * x - 1.0)
        np.testing.assert_allclose([slope, intercept], [4.0, -1.0], rtol=1e-10)
        assert residual <= 1e-12

    def test_residual_non_negative_for_nonlinear_map(self):
        slope, _, residual = statistical_linearization(1.0, 1.0, lambda x: x**2)
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
        out = run_ukf(data, ModelKind.BIRTH_DEATH, q=q, dynamics=dynamics)
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
        out = run_urts(data, ModelKind.BIRTH_DEATH, q=q, dynamics=dynamics)
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
        one = run_ipls(data, ModelKind.BIRTH_DEATH, q=q, iterations=1, dynamics=dynamics)
        five = run_ipls(data, ModelKind.BIRTH_DEATH, q=q, iterations=5, dynamics=dynamics)
        np.testing.assert_allclose(five.means, one.means, rtol=1e-8)
        np.testing.assert_allclose(five.variances, one.variances, rtol=1e-8)

    @affine_property
    @given(affine_cases())
    def test_affine_oracle(self, affine_case):
        data, dynamics, slope, intercept, q = affine_case
        out = run_ipls(data, ModelKind.BIRTH_DEATH, q=q, iterations=4, dynamics=dynamics)
        z_means, z_vars = data.summaries()
        ms_ref, ps_ref = linear_rts(data.grid.times, z_means, z_vars, slope, intercept, q)
        np.testing.assert_allclose(out.means, ms_ref, rtol=1e-8)
        np.testing.assert_allclose(out.variances, ps_ref, rtol=1e-8)

    def test_iterations_validated(self):
        data = random_series(np.random.default_rng(15))
        with pytest.raises(InvalidParameterError):
            run_ipls(data, ModelKind.BIRTH_DEATH, q=1.0, iterations=0)


class TestOverflow:
    @pytest.mark.parametrize("run", [run_adaptive_kf, run_ukf, run_urts, run_ipls])
    @pytest.mark.parametrize("spike", [50.0, 1e8])
    def test_birth_death_step_overflow_is_typed(self, run, spike):
        # a near-zero mean followed by a jump gives a growth rate near
        # log(spike / 1e-6) / 0.01, which overflows over the next, longer step
        groups = [[v, v] for v in (1.0, 1e-7, spike, 3.0, 4.0)]
        data = series_from_groups(groups, times=[0.0, 0.01, 0.02, 1.0, 2.0])
        with pytest.raises(NumericalOverflowError, match="factor overflowed .* at timepoint 3 "):
            run(data, ModelKind.BIRTH_DEATH)

    @pytest.mark.parametrize("run", [run_ukf, run_urts, run_ipls])
    def test_overflowing_propagation_is_typed(self, run):
        # here the step factor is finite but the propagated sigma points are not
        groups = [[v, v] for v in (1.0, 1e-7, 1e12, 3.0, 4.0)]
        data = series_from_groups(groups, times=[0.0, 0.1, 0.2, 1.0, 2.0])
        with pytest.raises(NumericalOverflowError, match="step map .* at timepoint 4 "):
            run(data, ModelKind.BIRTH_DEATH)

    def test_squared_slope_overflow_is_typed(self):
        # a slope past 1.3e154 overflows when squared, which Python's float
        # power raises as a bare OverflowError
        with np.errstate(over="ignore"), pytest.raises(
            NumericalOverflowError, match="^the linearization slope 1e\\+160 overflowed when squared$"
        ):
            statistical_linearization(0.0, 1.0, lambda x: 1e160 * x)

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
            match=r"^the linearization slope \S+ overflowed when squared at timepoint 6 \(t=2\.09",
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
    # raises, and the filters that call it name the timepoint
    vals = [1.7e308, 1.7e308, -1.7e308, 0.0]
    data = series_from_groups([[v] for v in vals])
    z_means, z_vars = data.summaries()
    scan = ScanGrid(num=5, k_min=5.0, k_max=50.0)
    dynamics = FlowStepDynamics(ModelKind.CONSTANT_REGULATION, z_means, z_vars, scan)
    with pytest.raises(NumericalOverflowError, match=r"^the model fit left the finite range$"):
        dynamics.step_map(data.grid.times, z_means, 3)
    for run in (run_adaptive_kf, run_ukf):
        with pytest.raises(
            NumericalOverflowError,
            match=r"^the model fit left the finite range at timepoint 3 \(t=3\.0\)$",
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
