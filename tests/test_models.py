"""ODE flows, the spline-posterior kernel, and its scalar reference fit."""

import logging
import math
import zlib
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pathkf.baselines
import pathkf.models

from pathkf import (
    VARIANCE_FLOOR,
    InvalidDataError,
    InvalidParameterError,
    ModelKind,
    NumericalOverflowError,
    PathkfError,
    ScanGrid,
    SplinePathModel,
    TimeGrid,
    flow_birth_death,
    flow_const_reg,
)
from pathkf.baselines import FlowStepDynamics
from pathkf.models import fit_spline_posterior as kernel

from oracles import (
    DegeneratePosteriorError,
    FitPosition,
    GaussianEstimate,
    SplinePosterior,
    Window,
    exact_posterior,
    exact_steady,
    fit_spline_posterior,
    fit_windows,
    posterior_moments,
    right_window,
    rk4_integrate,
    scalar_predict_path,
    solve_k_birth,
    solve_k_exp,
    uniform_posterior,
    window_at,
)


def bd_window(a, b, target, variance=1.0):
    return Window(a, b, (target[0], GaussianEstimate(target[1], variance)))


class TestFlows:
    def test_birth_death_zero_net_growth(self):
        assert flow_birth_death(100.0, 0.1, 0.1, 7.0) == 100.0

    def test_birth_death_unit_exponential(self):
        np.testing.assert_allclose(flow_birth_death(1.0, 1.0, 0.0, 1.0), math.e, rtol=1e-12)

    def test_birth_death_matches_rk4(self):
        expected = rk4_integrate(lambda t, x: (0.5 - 0.2) * x, 2.0, 0.0, 3.0)
        got = flow_birth_death(2.0, 0.5, 0.2, 3.0)
        np.testing.assert_allclose(got, expected, rtol=1e-8)
        np.testing.assert_allclose(got, 2.0 * math.exp(0.9), rtol=1e-12)

    def test_birth_death_overflow(self):
        with pytest.raises(NumericalOverflowError):
            flow_birth_death(1e300, 10.0, 0.0, 1000.0)

    def test_birth_death_underflow(self):
        with pytest.raises(NumericalOverflowError, match=r"^birth-death flow underflowed \("):
            flow_birth_death(100.0, 0.0, 1000.0, 5.0)

    def test_birth_death_rejects_nonpositive_population(self):
        with pytest.raises(InvalidDataError):
            flow_birth_death(0.0, 0.1, 0.0, 1.0)

    def test_const_reg_steady_state(self):
        np.testing.assert_allclose(flow_const_reg(0.0, 1.0, 1.0, 1e6), 1.0, atol=1e-12)

    def test_const_reg_half_relaxation(self):
        np.testing.assert_allclose(flow_const_reg(0.0, 1.0, 1.0, math.log(2)), 0.5, rtol=1e-12)

    def test_const_reg_matches_rk4(self):
        expected = rk4_integrate(lambda t, x: 10.0 - 2.0 * x, 5.0, 0.0, 0.3)
        np.testing.assert_allclose(flow_const_reg(5.0, 10.0, 2.0, 0.3), expected, rtol=1e-8)

    def test_const_reg_rejects_nonpositive_k_deg(self):
        with pytest.raises(InvalidParameterError):
            flow_const_reg(1.0, 1.0, 0.0, 1.0)

    def test_flows_match_rk4_over_parameter_ranges(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n0 = rng.uniform(0.5, 200.0)
            kb, kd = rng.uniform(0.0, 2.0, 2)
            dt = rng.uniform(0.05, 4.0)
            expected = rk4_integrate(lambda t, x: (kb - kd) * x, n0, 0.0, dt)
            np.testing.assert_allclose(flow_birth_death(n0, kb, kd, dt), expected, rtol=1e-8)
        for _ in range(50):
            x0 = rng.uniform(-20.0, 50.0)
            ke = rng.uniform(0.0, 20.0)
            kdeg = rng.uniform(0.05, 3.0)
            dt = rng.uniform(0.05, 4.0)
            expected = rk4_integrate(lambda t, x: ke - kdeg * x, x0, 0.0, dt)
            np.testing.assert_allclose(flow_const_reg(x0, ke, kdeg, dt), expected, rtol=1e-8)


class TestAnchorSolvers:
    def test_k_birth_unit_growth(self):
        win = bd_window((0.0, 1.0), (1.0, math.e), (2.0, 3.0))
        np.testing.assert_allclose(
            solve_k_birth(0.0, win, FitPosition.RIGHT_ENDPOINT), 1.0, rtol=1e-12
        )

    def test_k_birth_flat_data_forces_death_rate(self):
        for pos, target_t in (
            (FitPosition.RIGHT_ENDPOINT, 6.0),
            (FitPosition.CENTER, 2.0),
            (FitPosition.LEFT_ENDPOINT, -1.0),
        ):
            win = bd_window((0.0, 100.0), (4.0, 100.0), (target_t, 100.0))
            np.testing.assert_allclose(solve_k_birth(0.3, win, pos), 0.3, rtol=1e-12)

    def test_k_birth_log_ratio(self):
        win = bd_window((0.0, 2.0), (2.0, 8.0), (3.0, 10.0))
        kb = solve_k_birth(0.0, win, FitPosition.RIGHT_ENDPOINT)
        np.testing.assert_allclose(kb, math.log(4.0) / 2.0, rtol=1e-12)
        np.testing.assert_allclose(flow_birth_death(2.0, kb, 0.0, 2.0), 8.0, rtol=1e-12)

    def test_k_birth_rejects_nonpositive_anchor(self):
        win = bd_window((0.0, -1.0), (1.0, 2.0), (2.0, 1.0))
        with pytest.raises(InvalidDataError):
            solve_k_birth(0.1, win, FitPosition.RIGHT_ENDPOINT)

    def test_k_exp_steady_window(self):
        win = bd_window((0.0, 4.0), (1.0, 4.0), (2.0, 4.0))
        np.testing.assert_allclose(
            solve_k_exp(2.0, win, FitPosition.RIGHT_ENDPOINT), 8.0, rtol=1e-12
        )

    def test_k_exp_inverts_half_relaxation(self):
        win = bd_window((0.0, 0.0), (math.log(2.0), 0.5), (2.0, 1.0))
        np.testing.assert_allclose(
            solve_k_exp(1.0, win, FitPosition.RIGHT_ENDPOINT), 1.0, rtol=1e-12
        )

    def test_k_exp_rejects_vanishing_decay(self):
        win = bd_window((0.0, 1.0), (1.0, 2.0), (2.0, 3.0))
        with pytest.raises(InvalidParameterError):
            solve_k_exp(1e-320, win, FitPosition.RIGHT_ENDPOINT)

    def test_position_mismatch_rejected(self):
        win = bd_window((0.0, 1.0), (1.0, 2.0), (0.5, 1.5))
        with pytest.raises(InvalidDataError):
            solve_k_birth(0.0, win, FitPosition.RIGHT_ENDPOINT)


def random_window(rng, kind, pos):
    """Random well-conditioned window with the target placed per position."""
    times = np.sort(rng.uniform(0.0, 10.0, 3))
    while np.min(np.diff(times)) < 0.1:
        times = np.sort(rng.uniform(0.0, 10.0, 3))
    if pos is FitPosition.LEFT_ENDPOINT:
        t_target, ta, tb = times
    elif pos is FitPosition.CENTER:
        ta, t_target, tb = times
    else:
        ta, tb, t_target = times
    if kind is ModelKind.BIRTH_DEATH:
        va, vb = np.exp(rng.uniform(-1.5, 1.5, 2)) * rng.uniform(1.0, 100.0)
    else:
        va, vb = rng.uniform(-10.0, 50.0, 2)
    target_value = rng.uniform(-10.0, 50.0)
    return Window(
        (float(ta), float(va)),
        (float(tb), float(vb)),
        (float(t_target), GaussianEstimate(float(target_value), rng.uniform(0.1, 4.0))),
    )


def roundtrip_error(window, kind, k1):
    """Error of the flow through the solved pair at the later anchor, relative
    to the window scale: an anchor near zero leaves the absolute error of
    the larger one, which cancellation makes large against the small one."""
    (ta, va), (tb, vb) = window.ordered_anchors()
    pos = window.position()
    if kind is ModelKind.BIRTH_DEATH:
        k2 = solve_k_birth(k1, window, pos)
        reproduced = flow_birth_death(va, k2, k1, tb - ta)
    else:
        k2 = solve_k_exp(k1, window, pos)
        reproduced = flow_const_reg(va, k2, k1, tb - ta)
    return abs(reproduced - vb) / max(abs(va), abs(vb), 1e-12)


def seeded_rng(*key) -> np.random.Generator:
    """A generator seeded from ``key``, the same in every process (unlike ``hash``)."""
    return np.random.default_rng(zlib.crc32(repr(key).encode()))


#: A const-reg left-endpoint window whose later anchor is near zero, and its
#: scan value: the flow from 38.8 lands on -8e-4 with an absolute error of
#: 3.3e-12, which is 4.1e-9 of that anchor but 8.5e-14 of the window scale.
CANCELLING_WINDOW = (
    Window((1.6032, 38.781), (1.7132, -0.000807), (1.2442, GaussianEstimate(5.36, 3.79))),
    0.00953,
)


class TestRoundTrips:
    def test_anchor_near_zero(self):
        window, k1 = CANCELLING_WINDOW
        assert roundtrip_error(window, ModelKind.CONSTANT_REGULATION, k1) < 1e-9

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("pos", list(FitPosition))
    def test_solver_flow_round_trip_fuzz(self, kind, pos):
        rng = seeded_rng(kind.value, pos.value)
        for _ in range(1000):
            window = random_window(rng, kind, pos)
            if kind is ModelKind.BIRTH_DEATH:
                k1 = rng.uniform(0.0, 5.0)
            else:
                k1 = 10.0 ** rng.uniform(-3.0, 0.7)
            assert roundtrip_error(window, kind, k1) < 1e-9


class TestSplinePosterior:
    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("pos", list(FitPosition))
    def test_anchoring_exactness_and_normalization(self, kind, pos):
        rng = np.random.default_rng(5)
        for _ in range(20):
            window = random_window(rng, kind, pos)
            posterior = fit_spline_posterior(window, kind, pos)
            assert abs(float(np.sum(posterior.weights)) - 1.0) <= 1e-12
            assert np.all(posterior.weights >= 0.0)
            (ta, va), (tb, vb) = window.ordered_anchors()
            for k1, k2 in zip(posterior.k1_grid, posterior.k2_values):
                if kind is ModelKind.BIRTH_DEATH:
                    reproduced = flow_birth_death(va, k2, k1, tb - ta)
                else:
                    reproduced = flow_const_reg(va, k2, k1, tb - ta)
                assert abs(reproduced - vb) / max(abs(vb), 1e-12) < 1e-9

    def test_target_on_spline_dominates(self):
        # place the target exactly on one spline's prediction; with target
        # variance at the floor, that spline must carry the largest weight
        window = Window((0.0, 10.0), (2.0, 16.0), (1.0, GaussianEstimate(0.0, 1.0)))
        probe = fit_spline_posterior(window, ModelKind.CONSTANT_REGULATION, FitPosition.CENTER)
        star = 57
        target_value = float(probe.predictions[star])
        window = Window(
            (0.0, 10.0),
            (2.0, 16.0),
            (1.0, GaussianEstimate(target_value, VARIANCE_FLOOR)),
        )
        posterior = fit_spline_posterior(
            window, ModelKind.CONSTANT_REGULATION, FitPosition.CENTER
        )
        assert int(np.argmax(posterior.weights)) == star

    def test_prior_rescaling_is_absorbed(self):
        window = bd_window((0.0, 10.0), (2.0, 16.0), (1.0, 13.0), variance=2.0)
        kind = ModelKind.CONSTANT_REGULATION
        base = fit_spline_posterior(window, kind, FitPosition.CENTER)
        scaled = fit_spline_posterior(
            window, kind, FitPosition.CENTER, prior=np.full(200, 41.5)
        )
        np.testing.assert_allclose(base.weights, scaled.weights, rtol=1e-12, atol=1e-300)

    def test_all_zero_prior_is_degenerate(self):
        window = bd_window((0.0, 10.0), (2.0, 16.0), (1.0, 13.0))
        with pytest.raises(DegeneratePosteriorError):
            fit_spline_posterior(
                window,
                ModelKind.CONSTANT_REGULATION,
                FitPosition.CENTER,
                prior=np.zeros(200),
            )

    def test_uniform_fallback_weights(self):
        window = bd_window((0.0, 10.0), (2.0, 16.0), (1.0, 13.0))
        posterior = uniform_posterior(window, ModelKind.CONSTANT_REGULATION, FitPosition.CENTER)
        np.testing.assert_allclose(posterior.weights, 1.0 / 200, rtol=1e-12)

    def test_shrinking_target_variance_concentrates_posterior(self):
        window_values = ((0.0, 10.0), (2.0, 16.0))
        previous = np.inf
        for variance in (16.0, 4.0, 1.0, 0.25, 0.0625):
            window = Window(
                *window_values, (1.0, GaussianEstimate(14.0, variance))
            )
            posterior = fit_spline_posterior(
                window, ModelKind.CONSTANT_REGULATION, FitPosition.CENTER
            )
            spread = posterior_moments(posterior).estimate.variance
            assert spread <= previous + 1e-12
            previous = spread

    def test_weights_validation(self):
        with pytest.raises(InvalidDataError):
            SplinePosterior(
                np.array([1.0, 2.0]),
                np.array([1.0, 2.0]),
                np.array([1.0, 2.0]),
                np.array([0.6, 0.6]),
            )


class TestPosteriorMoments:
    def test_delta_posterior(self):
        posterior = SplinePosterior(
            np.array([1.0]), np.array([2.0]), np.array([7.0]), np.array([1.0])
        )
        est = posterior_moments(posterior).estimate
        assert est.mean == 7.0
        assert est.variance == VARIANCE_FLOOR

    def test_two_point_variance(self):
        posterior = SplinePosterior(
            np.array([1.0, 2.0]),
            np.array([0.0, 0.0]),
            np.array([1.0, 3.0]),
            np.array([0.5, 0.5]),
        )
        est = posterior_moments(posterior).estimate
        np.testing.assert_allclose([est.mean, est.variance], [2.0, 1.0], rtol=1e-14)

    def test_random_posterior_matches_direct_recomputation(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            predictions = rng.normal(0.0, 10.0, n)
            raw = rng.uniform(0.0, 1.0, n) + 1e-6
            weights = raw / raw.sum()
            weights = weights / weights.sum()
            posterior = SplinePosterior(np.arange(1.0, n + 1), np.zeros(n), predictions, weights)
            est = posterior_moments(posterior).estimate
            mean_ref = sum(float(w) * float(p) for w, p in zip(weights, predictions))
            var_ref = sum(
                float(w) * (float(p) - mean_ref) ** 2 for w, p in zip(weights, predictions)
            )
            np.testing.assert_allclose(est.mean, mean_ref, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(
                est.variance, max(var_ref, VARIANCE_FLOOR), rtol=1e-10, atol=1e-12
            )


class TestRefinementOracle:
    def test_birth_death_moments_stable_under_refinement(self):
        window = bd_window((0.0, 100.0), (2.0, 130.0), (1.0, 118.0), variance=4.0)
        kind = ModelKind.BIRTH_DEATH
        coarse = posterior_moments(
            fit_spline_posterior(window, kind, FitPosition.CENTER, ScanGrid(200))
        ).estimate
        fine = posterior_moments(
            fit_spline_posterior(window, kind, FitPosition.CENTER, ScanGrid(2000))
        ).estimate
        np.testing.assert_allclose(coarse.mean, fine.mean, rtol=1e-4)
        np.testing.assert_allclose(coarse.variance, fine.variance, rtol=1e-4, atol=1e-15)

    def test_const_reg_moments_stable_under_refinement(self):
        # informative regime: the posterior peaks well inside the scan range
        kd, ke, x0 = 0.5, 5.0, 4.0
        curve = lambda t: ke / kd + (x0 - ke / kd) * math.exp(-kd * t)
        window = Window(
            (0.0, curve(0.0)), (2.0, curve(2.0)), (1.0, GaussianEstimate(curve(1.0), 0.01))
        )
        kind = ModelKind.CONSTANT_REGULATION
        coarse = posterior_moments(
            fit_spline_posterior(window, kind, FitPosition.CENTER, ScanGrid(200))
        ).estimate
        fine = posterior_moments(
            fit_spline_posterior(window, kind, FitPosition.CENTER, ScanGrid(2000))
        ).estimate
        np.testing.assert_allclose(coarse.mean, fine.mean, rtol=1e-4)
        np.testing.assert_allclose(coarse.variance, fine.variance, rtol=1e-4)


def random_path(rng, kind):
    n = int(rng.integers(3, 26))
    times = np.cumsum(rng.uniform(0.01, 3.0, n)) - rng.uniform(0.0, 5.0)
    scale = 10.0 ** rng.uniform(-4.0, 6.0)
    low = 0.2 if kind is ModelKind.BIRTH_DEATH else -1.0
    means = scale * rng.uniform(low, 2.0, n)
    variances = (scale * rng.uniform(0.01, 0.5, n)) ** 2
    return TimeGrid(times), means, variances


class TestPathKernel:
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_matches_scalar_window_fits(self, kind):
        rng = np.random.default_rng(23)
        model = SplinePathModel(kind)
        eps = np.finfo(float).eps
        for _ in range(150):
            grid, means, variances = random_path(rng, kind)
            got_means, got_vars = model.predict_path(grid, means, variances)
            ref_means, ref_vars = scalar_predict_path(kind, grid, means, variances)
            # the scalar variance of a birth/death posterior is the spread of
            # 200 copies of one value, i.e. rounding noise of order
            # (eps * mean)^2; the kernel gives the floor it approximates
            noise = 200 * (eps * np.abs(ref_means)) ** 2
            apart = (np.abs(got_means - ref_means) > 1e-12 * np.abs(ref_means)) | (
                np.abs(got_vars - ref_vars) > 1e-12 * ref_vars + noise)
            # the scalar const-reg fit predicts through the steady state, whose
            # rounding its moments can carry past 1e-12; where one parts from
            # it, the window is held to the 50-digit posterior instead, with
            # uniform weights where the scalar fit fell back to them
            for t in np.flatnonzero(apart):
                assert kind is ModelKind.CONSTANT_REGULATION
                window, pos = window_at(grid, means, variances, t, kind)
                fell_back = outcome(lambda: fit_windows(kind, grid.times, [t],
                                                        lambda _: (window, pos)))[2]
                assert_exact_moments(got_means[t], got_vars[t], window, uniform=bool(fell_back))
            if kind is ModelKind.BIRTH_DEATH:
                assert np.all(got_vars == VARIANCE_FLOOR)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_overflowing_losses_fall_back_to_uniform_weights(self, kind, caplog):
        # birth/death has one spline and scores none, so it has nothing to fall back from
        grid = TimeGrid(np.arange(6.0))
        means = np.array([1.0, 1.0, 1.0, 1e150, 1.0, 1.0])
        variances = np.full(6, VARIANCE_FLOOR)
        with caplog.at_level("WARNING", logger="pathkf.models"):
            got_means, got_vars = SplinePathModel(kind).predict_path(grid, means, variances)
        if kind is ModelKind.BIRTH_DEATH:
            assert caplog.text == ""
        else:
            assert "degenerate spline posterior at t=3.0" in caplog.text
        assert np.all(np.isfinite(got_means)) and np.all(np.isfinite(got_vars))
        with np.errstate(over="ignore"):
            ref_means, _ = scalar_predict_path(kind, grid, means, variances)
        np.testing.assert_allclose(got_means, ref_means, rtol=1e-12)

    @pytest.mark.parametrize(
        "kind, times, means, variances",
        [
            # windows 3 and 5 anchor on the NaN, and window 4 targets it
            (ModelKind.CONSTANT_REGULATION, range(6), [1, 2, 3, 4, np.nan, 5], [1] * 6),
            (ModelKind.BIRTH_DEATH, range(5), [1, 2, 3, 4, 5], [1, 1, -1, 1, 1]),
            (ModelKind.BIRTH_DEATH, [0, 1, 1.001, 2], [1, 1e-6, 1, 1], [1] * 4),
            (ModelKind.CONSTANT_REGULATION, range(5), [1, 1, 1e308, -1e308, 1], [1] * 5),
            (ModelKind.CONSTANT_REGULATION, range(5), [1, 1, 1e160, 1, 1], [1] * 5),
        ],
    )
    def test_failures_match_the_scalar_fit(self, kind, times, means, variances):
        # the kernel raises nothing: each window the scalar fit completes keeps
        # its moments, and each window whose scalar fit fails is non-finite
        grid = TimeGrid(np.asarray(times, dtype=float))
        means = np.asarray(means, dtype=float)
        variances = np.asarray(variances, dtype=float)
        got_means, got_vars = SplinePathModel(kind).predict_path(grid, means, variances)
        finite = np.isfinite(got_means) & np.isfinite(got_vars)
        failures = 0
        for t in range(len(grid)):
            ref, error, _ = outcome(lambda: fit_windows(
                kind, grid.times, [t], lambda i: window_at(grid, means, variances, i, kind)
            )[1][0])
            failures += error is not None
            if error is None:
                np.testing.assert_allclose(
                    [got_means[t], got_vars[t]], [ref.mean, ref.variance], rtol=1e-12
                )
            elif np.isfinite(means[t]) and variances[t] >= 0:
                assert not finite[t], error
            # else the scalar fit rejects the target estimate itself, which no
            # filter passes (its paths are finite, its variances floored); the
            # kernel scores it as given: a NaN target takes the uniform
            # fallback, a negative variance the floor
        assert failures

    @pytest.mark.parametrize("level", [-3.5e7, -1.0, 1e-6, 0.3, 42.0, 1e8])
    def test_a_flat_window_predicts_its_anchor(self, level):
        # with both anchors equal every spline predicts the anchor, wherever
        # the target lies; rounding may move the mean by a few hundred ulps
        rng = seeded_rng("flat", level)
        for _ in range(50):
            n = int(rng.integers(3, 26))
            times = np.cumsum(rng.uniform(0.01, 3.0, n))
            means = level * rng.uniform(-1.0, 2.0, n)
            variances = (level * rng.uniform(0.01, 0.5, n)) ** 2
            fit = kernel(CONST_REG, ScanGrid(), times, *pathkf.models._centered_windows(n),
                         np.full(n, level), means, variances)
            np.testing.assert_allclose(fit.means, level, rtol=1e-13)
            assert np.all(fit.variances == VARIANCE_FLOOR)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_a_non_finite_anchor_gives_non_finite_moments(self, value):
        times = np.arange(6.0)
        anchors = np.array([1.0, 2.0, value, 4.0, 5.0, 6.0])
        fit, error, _ = outcome(lambda: kernel(
            CONST_REG, ScanGrid(), times, *pathkf.models._centered_windows(6), anchors,
            np.arange(1.0, 7.0), np.ones(6),
        ))
        assert error is None
        finite = np.isfinite(fit.means) & np.isfinite(fit.variances)
        # windows 0, 1 and 3 anchor on timepoint 2
        assert finite.tolist() == [False, False, True, False, True, True]

    def test_an_overflowing_loss_falls_back_to_uniform_weights_once(self):
        # the second row's target is so far from every spline that its losses
        # overflow; the first row's are finite
        fit, error, messages = outcome(lambda: kernel(
            CONST_REG, ScanGrid(), np.arange(3.0), [0], [2], [1],
            np.array([[1.0, 0.0, 3.0], [1.0, 0.0, 3.0]]), np.array([[2.0], [1e200]]),
            np.ones((2, 1)),
        ))
        assert error is None
        assert messages == ["degenerate spline posterior at t=1.0; using uniform weights"]
        assert fit.weights[1, 0].tobytes() == pathkf.models.uniform_posterior(200).tobytes()
        assert fit.weights[0, 0].tobytes() != fit.weights[1, 0].tobytes()
        assert np.all(np.isfinite(fit.means)) and np.all(np.isfinite(fit.variances))

    @pytest.mark.parametrize("name, value", [
        ("k_min", np.nan), ("k_min", np.inf), ("k_max", np.nan), ("k_max", np.inf),
        ("num", 2.5), ("num", True),
    ])
    def test_a_scan_grid_it_cannot_scan_is_rejected(self, name, value):
        with pytest.raises(InvalidParameterError, match=rf"got {value!r}$"):
            ScanGrid(**{name: value})

    def test_results_do_not_depend_on_the_memo(self):
        rng = np.random.default_rng(4)
        model = SplinePathModel(ModelKind.CONSTANT_REGULATION)
        grid_a, means_a, vars_a = random_path(rng, model.kind)
        grid_b, means_b, vars_b = random_path(rng, model.kind)
        outputs = []
        for grid, means, variances in (
            (grid_a, means_a, vars_a),  # miss or hit, depending on earlier tests
            (grid_a, means_a, vars_a),  # hit
            (grid_b, means_b, vars_b),  # replaces the slot
            (grid_a, means_a, vars_a),  # miss
        ):
            m, v = model.predict_path(grid, means, variances)
            outputs.append(m.tobytes() + v.tobytes())
        assert outputs[0] == outputs[1] == outputs[3]

    @pytest.mark.parametrize("scan", [ScanGrid(), ScanGrid(num=37, k_min=1e-3, k_max=5.0)])
    def test_scan_values_of_many_spans_match_single_spans(self, scan):
        spans = 10.0 ** np.random.default_rng(8).uniform(-3.0, 3.0, 1000)
        table = scan.values(spans)
        assert table.shape == (1000, scan.num)
        for span, row in zip(spans, table):
            assert row.tobytes() == scan.values(float(span)).tobytes()


CONST_REG = ModelKind.CONSTANT_REGULATION
EPS = float(np.finfo(float).eps)
#: The spacing of subnormal floats, the absolute rounding of a result below 2.2e-308.
SUBNORMAL = float(np.finfo(float).smallest_subnormal)


def path_values(draw, n):
    """Anchors, target means and variances of a random ``n``-point path at a
    scale from 1e-4 to 1e6. Sometimes one anchor or target is spiked far out
    with a zero variance, which makes windows degenerate or fail."""
    unit = arrays(float, n, elements=st.floats(-1.0, 2.0))
    scale = 10.0 ** draw(st.floats(-4.0, 6.0))
    anchors, means = scale * draw(unit), scale * draw(unit)
    variances = (scale * draw(arrays(float, n, elements=st.floats(0.01, 0.5)))) ** 2
    if draw(st.booleans()):
        index = draw(st.integers(0, n - 1))
        value = draw(st.sampled_from([1e140, 1e150, 1e155, 1e300]))
        (means if draw(st.booleans()) else anchors)[index] = value
        variances[index] = 0.0
    return anchors, means, variances


@st.composite
def kernel_paths(draw):
    """Times and :func:`path_values` of a random 3-25 point path."""
    n = draw(st.integers(3, 25))
    gaps = draw(arrays(float, n - 1, elements=st.floats(0.01, 3.0)))
    times = np.cumsum(np.r_[draw(st.floats(-5.0, 5.0)), gaps])
    return (times, *path_values(draw, n))


@st.composite
def stacked_paths(draw):
    """Times and 1-6 rows of :func:`path_values` on them."""
    times, *first = draw(kernel_paths())
    rows = [first] + [path_values(draw, len(times)) for _ in range(draw(st.integers(0, 5)))]
    return times, rows


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def outcome(call):
    """``(result, (error type, message) or None, model warnings)`` of ``call()``."""
    handler = _Messages()
    logger = logging.getLogger("pathkf.models")
    logger.addHandler(handler)
    try:
        with np.errstate(all="ignore"):
            return call(), None, handler.messages
    except PathkfError as exc:
        return None, (type(exc), str(exc)), handler.messages
    finally:
        logger.removeHandler(handler)


def spied_kernel(owner):
    """Patch ``owner.fit_spline_posterior`` to record every fit it returns."""
    fits = []

    def spy(*args, **kwargs):
        fits.append(kernel(*args, **kwargs))
        return fits[-1]

    return mock.patch.object(owner, "fit_spline_posterior", spy), fits


#: The const-reg kernel against :func:`oracles.exact_posterior`: a mean within
#: this share of its window's scale ``max(|xa|, |xb|, |mean|)`` (an endpoint
#: window can extrapolate far past its anchors), and a variance within this
#: relative error. Measured over about 7,000 windows (this file's tests, ten
#: Hypothesis seeds), the worst were 2.9e-13 and 3.3e-11; on the windows of
#: ``TestKernelAgainstExactPosterior`` a kernel that predicts through the
#: steady state reaches 5.4e-13 and 5.0e-8.
EXACT_MEAN_ERROR = 1e-12
EXACT_VARIANCE_ERROR = 1e-9
#: The referee's weight at the kernel's argmax is within this relative
#: distance of its largest: the argmax moves only between rounding ties.
ARGMAX_TIE = 1e-9
#: The gap between a kernel weight and the scalar fit's, as a multiple of the
#: shift that rounding the scalar predictions can cause (see
#: :func:`assert_rows_match`). Measured over 27,703 windows (eight Hypothesis
#: seeds of ``TestKernelAgainstScalarFit``): at most 0.092, and the bound
#: reached 1, where it says nothing, on 1,103 of them.
WEIGHT_GAP = 1.0
#: How far the kernel's predictions may lie from the scalar fit's, as a
#: multiple of :func:`scalar_rounding`; it bounds the moments in
#: :func:`assert_moments_near`. Measured over the same windows: at most 1.
PREDICTION_GAP = 4.0


def assert_exact_moments(mean, variance, window, uniform=False):
    """A kernel mean and variance against the 50-digit posterior of
    ``window``, or against its uniform weights where the scalar fit fell back
    to them. Returns that posterior."""
    exact = exact_posterior(window, uniform=uniform)
    (_, xa), (_, xb) = window.ordered_anchors()
    scale = max(abs(mpmath.mpf(xa)), abs(mpmath.mpf(xb)), abs(exact.mean))
    floored = max(exact.variance, VARIANCE_FLOOR)
    assert abs(mpmath.mpf(mean) - exact.mean) <= EXACT_MEAN_ERROR * scale + SUBNORMAL
    assert abs(mpmath.mpf(variance) - floored) <= EXACT_VARIANCE_ERROR * floored
    return exact


def assert_exact(fit, row, window, uniform=False):
    """Kernel row ``row`` against the 50-digit posterior of ``window``: its
    moments, and its argmax at the referee's top weight within a tie."""
    exact = assert_exact_moments(fit.means[row], fit.variances[row], window, uniform)
    best = int(np.argmax(fit.weights[row]))
    assert exact.weights[best] >= max(exact.weights) * (1 - ARGMAX_TIE)


def scalar_rounding(posterior, window):
    """How far rounding can move each scalar prediction from the flow. The
    scalar fit predicts through the steady state ``(xb - xa * e) / (1 - e)``,
    whose terms reach ``(|xa| + |xb|) / (1 - e)`` and, below the normal
    range, round by the subnormal spacing each, and relaxes from ``xa`` by
    ``exp(-k * (t - ta))``, which exceeds 1 before ``ta``."""
    (ta, xa), (tb, xb) = window.ordered_anchors()
    tt, _ = window.target
    k = posterior.k1_grid
    with np.errstate(over="ignore"):
        denom = -np.expm1(-k * (tb - ta))
        terms = EPS * ((abs(xa) + abs(xb)) / denom + abs(xa)) + SUBNORMAL / denom
        return terms * np.maximum(1.0, np.exp(-k * (tt - ta)))


def assert_rows_match(fit, row, posterior, window):
    """Kernel row ``row`` against the scalar posterior of ``window``: the same
    scan values bit for bit, and weights within ``WEIGHT_GAP`` times the
    weight shift that the :func:`scalar_rounding` of the predictions can
    cause, plus the rounding of the weights themselves; a loss moves by ``2 *
    |p - mean| / scale`` per unit of prediction. Where that bound reaches 1
    it says nothing, and the check is skipped as a Hypothesis event. Returns
    whether the argmaxes agree."""
    assert fit.k_deg[row].tobytes() == posterior.k1_grid.tobytes()
    _, target = window.target
    with np.errstate(over="ignore", invalid="ignore"):
        shift = float(np.max(np.abs(posterior.predictions - target.mean)
                             * scalar_rounding(posterior, window)))
    shift /= max(target.variance, VARIANCE_FLOOR)
    # a weight exp(low - loss) rounds by up to about 745 eps where it does not vanish
    bound = WEIGHT_GAP * shift + 1024 * EPS
    if bound < 1:
        assert float(np.max(np.abs(fit.weights[row] - posterior.weights))) <= bound
    else:  # weights lie in [0, 1]; inf and nan land here too
        event("a weight bound says nothing")
    return np.argmax(fit.weights[row]) == np.argmax(posterior.weights)


def assert_moments_near(fit, row, posterior, estimate, window):
    """Kernel row ``row``'s moments against the scalar fit's ``estimate``,
    within 1e-12 of their size plus what the kernel's weights ``v`` and its
    predictions, within ``d = PREDICTION_GAP * scalar_rounding`` of the
    scalar ``p``, can move them. With the scalar weights ``w`` and mean
    ``m``, the mean moves by at most ``sum |v - w| * |p - m| + sum v * d``.
    The kernel's standard deviation is ``||p - m||_v`` within ``||d||_v``
    plus that move, and ``||p - m||_v^2`` is the scalar variance within
    ``sum |v - w| * (p - m)^2``; flooring both variances moves neither
    difference further. Splines that neither side weights are left out."""
    assert math.isfinite(fit.means[row]) and math.isfinite(fit.variances[row])
    (_, xa), (_, xb) = window.ordered_anchors()
    v, w = fit.weights[row], posterior.weights
    used = (v > 0) | (w > 0)
    v, w = v[used], w[used]
    with np.errstate(over="ignore", invalid="ignore"):
        d = PREDICTION_GAP * scalar_rounding(posterior, window)[used]
        dev = posterior.predictions[used] - estimate.mean
        gap = np.abs(v - w)
        moved = abs(fit.means[row] - estimate.mean)
        size = max(abs(xa), abs(xb), float(w @ np.abs(posterior.predictions[used])))
        mean_bound = float(gap @ np.abs(dev) + v @ d) + 1e-12 * size
        reach = math.sqrt(v @ d**2) + moved
        variance_bound = (float(gap @ dev**2) + reach * (2 * math.sqrt(v @ dev**2) + reach)
                          + 1e-12 * estimate.variance)
    if not (math.isfinite(mean_bound) and math.isfinite(variance_bound)):
        event("a moment bound is not finite")
    assert moved <= mean_bound
    assert abs(fit.variances[row] - estimate.variance) <= variance_bound


class TestKernelAgainstExactPosterior:
    """The const-reg kernel against the 50-digit posterior of the same K
    points, on one random window of each of 60 random paths of 3-25 points
    per layout, whose values run from 1e-6 to 1e8 in scale and whose target
    standard deviations run from 1e-3 to 0.5 of it."""

    @pytest.mark.parametrize("layout", ["centered", "right endpoint"])
    def test_moments_match_the_exact_posterior(self, layout):
        rng = seeded_rng("exact", layout)
        for _ in range(60):
            n = int(rng.integers(3, 26))
            times = np.cumsum(rng.uniform(0.01, 3.0, n)) - rng.uniform(0.0, 5.0)
            scale = 10.0 ** rng.uniform(-6.0, 8.0)
            means = scale * rng.uniform(-1.0, 2.0, n)
            variances = (scale * 10.0 ** rng.uniform(-3.0, -0.3, n)) ** 2
            if layout == "centered":
                row = int(rng.integers(n))
                window, _ = window_at(TimeGrid(times), means, variances, row, CONST_REG)
                fit = kernel(CONST_REG, ScanGrid(), times, *pathkf.models._centered_windows(n),
                             means, means, variances)
            else:
                index, row = int(rng.integers(2, n)), 0
                window, _ = right_window(times, means, means, variances, index, CONST_REG)
                fit = kernel(CONST_REG, ScanGrid(), times, [index - 2], [index - 1], [index],
                             means, means[[index]], variances[[index]])
            assert_exact(fit, row, window)


class TestKernelAgainstScalarFit:
    """The constant-regulation kernel against the scalar window fit on both
    window layouts: the same scan values, weights within ``WEIGHT_GAP``,
    moments within what those weights and the rounding of the predictions
    allow, and the same fallbacks and warnings wherever that fit completes;
    where it fails, the kernel's moments are non-finite. The scalar fit
    predicts through the steady state, so the moments (and the step's steady
    state) are also held to the 50-digit referee: on one drawn window of each
    path, and on every window whose argmax differs from the scalar fit's.
    Birth/death is a closed form of that fit and is compared within rounding
    in ``TestPathKernel``."""

    @settings(deadline=None, max_examples=150)
    @given(kernel_paths(), st.integers(0, 24))
    def test_centered_layout(self, path, pick):
        times, _, means, variances = path
        grid = TimeGrid(times)
        patch, fits = spied_kernel(pathkf.models)
        with patch:
            got = outcome(lambda: SplinePathModel(CONST_REG).predict_path(grid, means, variances))
        (fit,), failed, warned = fits, [], []
        for row in range(len(times)):  # each window against its own scalar fit
            ref, error, messages = outcome(lambda: fit_windows(
                CONST_REG, times, [row], lambda t: window_at(grid, means, variances, t, CONST_REG),
            ))
            if error is not None:
                failed.append("degenerate spline posterior at t=%s; using uniform weights"
                              % times[row])
                assert not (math.isfinite(fit.means[row]) and math.isfinite(fit.variances[row]))
                continue
            warned += messages
            (posterior,), (estimate,) = ref
            window, _ = window_at(grid, means, variances, row, CONST_REG)
            same_argmax = assert_rows_match(fit, row, posterior, window)
            assert_moments_near(fit, row, posterior, estimate, window)
            if row == pick % len(times) or not same_argmax:
                assert_exact(fit, row, window, uniform=bool(messages))
        event(f"{len(warned)} fallbacks, {len(failed)} failed windows")
        assert got[1] is None
        # the kernel also warns at a failed window whose weights all vanished
        assert [message for message in got[2] if message not in failed] == warned
        assert got[0][0].tobytes() == fit.means.tobytes()
        assert got[0][1].tobytes() == fit.variances.tobytes()

    @settings(deadline=None, max_examples=150)
    @given(kernel_paths(), st.integers(0, 24))
    def test_right_endpoint_layout(self, path, pick):
        times, anchors, means, variances = path
        dynamics = FlowStepDynamics(CONST_REG, means, variances)
        for index in range(2, len(times)):
            patch, fits = spied_kernel(pathkf.baselines)
            with patch:
                got = outcome(lambda: dynamics.step_map(times, anchors, index))
            ref = outcome(lambda: fit_windows(
                CONST_REG, times, [index],
                lambda t: right_window(times, anchors, means, variances, t, CONST_REG),
                moments=False,
            ))
            event(f"{len(ref[2])} fallbacks, error {ref[1] and ref[1][0].__name__}")
            if ref[1] is not None:  # the fitted mean is non-finite; the filters place it
                assert got[1] == (NumericalOverflowError, "the model fit left the finite range")
                continue
            assert got[1:] == ref[1:]
            (fit,), (posterior,), step = fits, ref[0][0], got[0]
            window, _ = right_window(times, anchors, means, variances, index, CONST_REG)
            same_argmax = assert_rows_match(fit, 0, posterior, window)
            # the step at the kernel's argmax: its slope, and its steady state
            # within a few roundings of the terms of xa - (xb - xa) / expm1(-k * (tb - ta))
            k_deg = float(fit.k_deg[0, np.argmax(fit.weights[0])])
            assert step.slope == math.exp(-k_deg * float(times[index] - times[index - 1]))
            (ta, xa), (tb, xb) = window.ordered_anchors()
            terms = abs(mpmath.mpf(xa)) + abs((xb - xa) / mpmath.mpf(math.expm1(-k_deg * (tb - ta))))
            error = abs(mpmath.mpf(step.steady) - exact_steady(window, k_deg))
            assert error <= 4 * EPS * terms + SUBNORMAL
            moments = outcome(lambda: posterior_moments(posterior).estimate)[0]
            if moments is None:
                assert not (math.isfinite(fit.means[0]) and math.isfinite(step.variance))
                continue
            assert step.variance == fit.variances[0]
            assert_moments_near(fit, 0, posterior, moments, window)
            if index == 2 + pick % (len(times) - 2) or not same_argmax:
                assert_exact(fit, 0, window, uniform=bool(ref[2]))

    @settings(deadline=None, max_examples=150)
    @given(stacked_paths(), st.sampled_from(list(ModelKind)))
    def test_stacked_paths_equal_lone_paths(self, paths, kind):
        # an (S, n) call gives each row's lone result, non-finite moments
        # included, and the rows' warnings in row order
        times, rows = paths
        grid = TimeGrid(times)
        model = SplinePathModel(kind)
        lone = [outcome(lambda: model.predict_path(grid, m, v)) for _, m, v in rows]
        stacked = outcome(lambda: model.predict_path(
            grid, np.stack([m for _, m, _ in rows]), np.stack([v for _, _, v in rows])
        ))
        assert stacked[2] == [message for _, _, messages in lone for message in messages]
        event(f"{len(rows)} rows, {sum(not np.isfinite(r[0]).all() for r, _, _ in lone)} failing")
        assert stacked[1] is None
        for k, got in enumerate(stacked[0]):  # means, then variances
            assert got.tobytes() == np.stack([result[k] for result, _, _ in lone]).tobytes()

    def test_degenerate_rows_fall_back_to_uniform_weights(self):
        times = np.arange(6.0)
        means = np.array([1.0, 1.0, 1.0, 1e150, 1.0, 1.0])
        variances = np.full(6, VARIANCE_FLOOR)
        for ia, ib, targets in (([1, 2, 4], [2, 4, 5], [0, 3, 5]), ([1], [2], [3])):
            fit, error, messages = outcome(lambda: kernel(
                CONST_REG, ScanGrid(), times, ia, ib, targets, means, means[targets],
                variances[targets],
            ))
            row = targets.index(3)
            assert error is None
            assert messages == ["degenerate spline posterior at t=3.0; using uniform weights"]
            assert np.all(fit.weights[row] == fit.weights[row][0])
            np.testing.assert_allclose(fit.weights[row], 1.0 / 200, rtol=1e-15)


@st.composite
def birth_death_layouts(draw):
    """Times, 1-3 stacked rows of harsh path values (an anchor now and then
    inf, -inf or NaN), and a window layout on them: the centered windows, or
    1-8 random windows with ``times[ia] < times[ib]`` and any target."""
    times, rows = draw(stacked_paths())
    rows = rows[:draw(st.integers(1, 3))]
    anchors, means, variances = (np.stack(parts) for parts in zip(*rows))
    for _ in range(draw(st.integers(0, 2))):
        row, index = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(times) - 1))
        anchors[row, index] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    n = len(times)
    if draw(st.booleans()):
        ia, ib, targets = pathkf.models._centered_windows(n)
    else:
        pairs = st.tuples(st.integers(0, n - 2), st.integers(1, n - 1)).filter(
            lambda pair: pair[0] < pair[1]
        )
        windows = draw(st.lists(st.tuples(pairs, st.integers(0, n - 1)), min_size=1, max_size=8))
        ia, ib, targets = (np.array(v) for v in ([a for (a, _), _ in windows],
                                                  [b for (_, b), _ in windows],
                                                  [t for _, t in windows]))
        means, variances = means[:, targets], variances[:, targets]
    return times, ia, ib, targets, anchors, means, variances


class TestBirthDeathClosedForm:
    """The birth/death kernel is its one spline, returned before any scoring."""

    @settings(deadline=None, max_examples=300)
    @given(birth_death_layouts())
    def test_fit_is_the_closed_form_without_fallback(self, layout):
        times, ia, ib, targets, anchors, means, variances = layout
        with mock.patch.object(pathkf.models, "uniform_posterior") as fallback:
            fit, error, messages = outcome(lambda: kernel(
                ModelKind.BIRTH_DEATH, ScanGrid(), times, ia, ib, targets, anchors, means,
                variances,
            ))
        assert (error, messages, fallback.call_count) == (None, [], 0)
        with np.errstate(all="ignore"):
            xa = np.maximum(anchors[:, ia], pathkf.models.POSITIVE_VALUE_FLOOR)
            xb = np.maximum(anchors[:, ib], pathkf.models.POSITIVE_VALUE_FLOOR)
            growth = np.log(xb / xa) / (times[ib] - times[ia])
            prediction = xa * np.exp(growth * (times[targets] - times[ia]))
        finite = np.isfinite(prediction)
        event(f"{np.count_nonzero(~finite)} non-finite predictions")
        assert fit.k_deg is None
        assert fit.weights.shape == (*prediction.shape, 1)
        assert fit.weights.tobytes() == np.ones(fit.weights.shape).tobytes()
        assert fit.means.tobytes() == prediction.tobytes()
        assert fit.variances[finite].tobytes() == np.full(finite.sum(), VARIANCE_FLOOR).tobytes()
        assert np.isnan(fit.variances[~finite]).all()


class TestKernelBuffers:
    """The const-reg kernel works in a few reused buffers and never writes
    into what it is given."""

    @staticmethod
    def block(rows, n):
        rng = np.random.default_rng(12)
        times = np.cumsum(rng.uniform(0.5, 2.0, n))
        means = rng.uniform(0.5, 2.0, (rows, n))
        variances = rng.uniform(0.01, 0.1, (rows, n))
        return times, means, variances

    def test_peak_allocation_is_a_few_scan_buffers(self):
        import tracemalloc

        rows, n = 32, 14
        times, means, variances = self.block(rows, n)
        model = SplinePathModel(CONST_REG)
        model.predict_path(TimeGrid(times), means, variances)  # build the memoized tables
        buffer = rows * n * model.scan.num * 8
        tracemalloc.start()
        try:
            kernel(CONST_REG, model.scan, times, *pathkf.models._centered_windows(n),
                   means, means, variances)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # measured: 2.15 buffers, the predictions turned weights and one
        # scratch buffer for the moments; the bound adds half a buffer
        assert peak <= 2.65 * buffer

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_inputs_are_read_only_and_unchanged(self, kind):
        times, means, variances = self.block(5, 9)
        means[2, 4] = 1e150  # one degenerate window, which takes the uniform fallback
        for arr in (times, means, variances):
            arr.setflags(write=False)
        before = [arr.tobytes() for arr in (times, means, variances)]
        windows = pathkf.models._centered_windows(9)
        fits = [
            kernel(kind, ScanGrid(), times, *windows, anchors, means, variances)
            for anchors in (means, means.copy())  # `anchors is means`, as predict_path calls
        ]
        assert [arr.tobytes() for arr in (times, means, variances)] == before
        for got, want in zip(fits[0], fits[1]):
            assert (got is None) == (want is None)
            if got is not None:
                assert got.tobytes() == want.tobytes()
        if kind is CONST_REG:
            # the memoized grid tables stay read-only, and so unchanged
            tables = pathkf.models._const_reg_tables(
                times.tobytes(), b"".join(i.tobytes() for i in windows), ScanGrid()
            )
            assert not any(table.flags.writeable for table in tables)
