"""Comparison filters and smoothers sharing the spline internal models.

Four algorithms: an adaptive non-linear Kalman filter (the pathspace filter
with the path feedback removed and a constant process uncertainty), an
unscented Kalman filter, an unscented Rauch-Tung-Striebel smoother, and an
iterated posterior linearization smoother. All consume the same
per-timepoint data summaries and fit their step dynamics from
right-endpoint windows of the same ODE families, so benchmark differences
isolate the algorithms themselves. The last three share one Kalman forward
update and one RTS backward pass, and differ only in the prediction step
they hand to the forward update: unscented, or statistically linearized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    VARIANCE_FLOOR,
    InvalidParameterError,
    NumericalOverflowError,
    TimeSeriesData,
    Trajectory,
)
from .models import POSITIVE_VALUE_FLOOR, ModelKind, ScanGrid, fit_spline_posterior
from .models import uniform_posterior  # noqa: F401  perfbench traces the fallback here too


def _propagate(points: np.ndarray, f) -> list[float]:
    """``f`` applied to the sigma points in one call, under the caller's
    ``np.errstate``: a point that overflowed raises here instead."""
    try:
        out = np.asarray(f(points), dtype=float)
        if out.shape != points.shape:
            raise ValueError(f"it maps shape {points.shape} to {out.shape}")
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"the step map must be elementwise over arrays: {exc}") from exc
    out = out.tolist()
    if not all(map(math.isfinite, out)):
        raise NumericalOverflowError("the step map left the finite range")
    return out


def _sigma_moments(mean: float, variance: float, f) -> tuple[float, float, float]:
    """Mean and variance of ``f(x)`` for ``x ~ N(mean, variance)``, and the
    cross-covariance of ``x`` and ``f(x)``, from three sigma points.

    This is the only sigma-point computation: the unscented prediction, the
    smoother gain and the statistical linearization all read it. Each moment
    is numpy's three-element sum ``((0.0 + a0) + a1) + a2`` in floats, bitwise
    the array reduction in ``tests/oracles.py``. Float products and sums
    overflow to ``inf``, where ``**`` and ``/`` would raise."""
    mean = float(mean)
    spread = math.sqrt(variance)
    x1, x2 = mean + spread, mean - spread
    y0, y1, y2 = _propagate(np.array([mean, x1, x2]), f)
    # mean weights (0, 1/2, 1/2) and covariance weights (2, 1/2, 1/2) of the
    # points at the mean and one sd either side (alpha=1, beta=2, kappa=0):
    # the common alpha=1e-3 collapses the spread far below the data noise
    mean_out = 0.0 + 0.0 * y0 + 0.5 * y1 + 0.5 * y2
    d0, d1, d2 = y0 - mean_out, y1 - mean_out, y2 - mean_out
    var_out = 0.0 + 2.0 * (d0 * d0) + 0.5 * (d1 * d1) + 0.5 * (d2 * d2)
    cross = 0.0 + 2.0 * (mean - mean) * d0 + 0.5 * (x1 - mean) * d1 + 0.5 * (x2 - mean) * d2
    return mean_out, var_out, cross


def _check_q(q: float) -> None:
    """Reject a constant process uncertainty ``q`` that is negative or not finite."""
    if not math.isfinite(q) or q < 0:
        raise InvalidParameterError("q must be finite and non-negative")


def _overflow_at(exc: NumericalOverflowError, times, t: int) -> NumericalOverflowError:
    """``exc`` restated for the step into timepoint ``t``."""
    return NumericalOverflowError(f"{exc} at timepoint {t} (t={times[t]})")


def _estimate_overflow(times, t: int) -> NumericalOverflowError:
    """The error of a filter estimate at timepoint ``t`` that is not finite.

    The data summaries are finite, so such an estimate was made by the model
    or the filter arithmetic, not by the input.
    """
    return NumericalOverflowError(
        f"filter estimate left the finite range at timepoint {t} (t={times[t]})"
    )


def _squared(slope: float) -> float:
    """``slope**2``, with Python's ``OverflowError`` past about 1.3e154
    raised as :class:`NumericalOverflowError`, which the filter pass places
    at its timepoint."""
    try:
        return slope**2
    except OverflowError:
        raise NumericalOverflowError(
            f"the linearization slope {slope} overflowed when squared"
        ) from None


def _statistical_linearization(mean: float, variance: float, f) -> tuple[float, float, float]:
    """Sigma-point linear regression of ``f`` around a Gaussian, the IPLS
    pass's prediction step.

    Returns ``(slope, intercept, residual_variance)`` with the slope the
    cross-covariance over the input variance and the intercept matching the
    propagated mean. Exact (zero residual) for affine maps.
    """
    var = max(variance, VARIANCE_FLOOR)
    mean_out, var_out, cross = _sigma_moments(mean, var, f)
    slope = cross / var
    intercept = mean_out - slope * mean
    residual = max(var_out - _squared(slope) * var, 0.0)
    return slope, intercept, residual


@dataclass(frozen=True)
class _Relaxation:
    """The constant-regulation step ``x -> steady + (x - steady) * decay``,
    with the posterior variance of the window it was fitted on."""

    steady: float
    decay: float
    variance: float

    def __call__(self, x):
        return self.steady + (x - self.steady) * self.decay


@dataclass(frozen=True)
class FlowStepDynamics:
    """Per-step transition maps fitted from right-endpoint windows.

    The step into timepoint ``t`` extrapolates the flow whose parameters are
    fitted to the reference trajectory at ``t-2`` and ``t-1`` (for the
    constant-regulation family the free parameter is the posterior argmax
    against the data at ``t``). The step into the second timepoint, where no
    window exists yet, is the identity.
    """

    kind: ModelKind
    z_means: np.ndarray
    z_vars: np.ndarray
    scan: ScanGrid = ScanGrid()

    def step_map(self, times: np.ndarray, ref_means: np.ndarray, index: int):
        """Transition map into ``index``, fitted on ``ref_means``. A fit whose
        posterior mean left the finite range raises :class:`NumericalOverflowError`."""
        if index < 2:
            return lambda x: x
        delta = float(times[index] - times[index - 1])
        if self.kind is ModelKind.BIRTH_DEATH:
            na = max(float(ref_means[index - 2]), POSITIVE_VALUE_FLOOR)
            nb = max(float(ref_means[index - 1]), POSITIVE_VALUE_FLOOR)
            growth = math.log(nb / na) / float(times[index - 1] - times[index - 2])
            try:
                factor = math.exp(growth * delta)
            except OverflowError:
                raise NumericalOverflowError(
                    f"birth-death step factor overflowed (growth={growth}, dt={delta})"
                ) from None
            return lambda x, _f=factor: _f * x
        into = np.array([index])
        fit = fit_spline_posterior(
            self.kind, self.scan, times, into - 2, into - 1, into, ref_means,
            self.z_means[into], self.z_vars[into],
        )
        if not math.isfinite(fit.means[0]):  # the callers name the timepoint
            raise NumericalOverflowError("the model fit left the finite range")
        best = int(np.argmax(fit.weights[0]))
        k_deg = float(fit.k_deg[0, best])
        # k_exp / k_deg as the scalar fit derived it; reading steady differs in the last bit
        steady = float(k_deg * fit.steady[0, best]) / k_deg
        decay = math.exp(-k_deg * delta)
        return _Relaxation(steady, decay, float(fit.variances[0]))


def run_adaptive_kf(
    data: TimeSeriesData,
    kind: ModelKind = ModelKind.BIRTH_DEATH,
    q: float = 1.0,
) -> Trajectory:
    """Forward-only adaptive non-linear Kalman filter with constant ``q``.

    The first two timepoints take the data summaries directly. From the
    third on, a right-endpoint window of the data trajectory supplies the
    flow parameters and the model variance; the model mean propagates the
    previous filter estimate through that flow. A birth/death prediction
    does not depend on the scanned parameter, so its window is never fit
    and its model variance is ``VARIANCE_FLOOR``. The gain
    ``w = (V(M) + q) / (V(M) + q + V(Z))`` then weights data against model,
    and the data variance is recomputed from the replicates at every
    timepoint.
    """
    _check_q(q)
    grid = data.grid
    z_means, z_vars = data.summaries()
    dynamics = FlowStepDynamics(kind, z_means, z_vars)
    n = len(grid)
    f_means = np.empty(n)
    f_vars = np.empty(n)
    f_means[:2] = z_means[:2]
    f_vars[:2] = z_vars[:2]
    with np.errstate(over="ignore", invalid="ignore"):  # checked at each step
        for t in range(2, n):
            try:
                flow = dynamics.step_map(grid.times, z_means, t)
            except NumericalOverflowError as exc:
                raise _overflow_at(exc, grid.times, t) from exc
            v_model = flow.variance if kind is ModelKind.CONSTANT_REGULATION else VARIANCE_FLOOR
            e_model = float(flow(f_means[t - 1]))
            b = v_model + q
            w = b / (b + z_vars[t])
            f_means[t] = w * z_means[t] + (1.0 - w) * e_model
            f_vars[t] = max(w**2 * z_vars[t] + (1.0 - w) ** 2 * b, VARIANCE_FLOOR)
            if not (math.isfinite(f_means[t]) and math.isfinite(f_vars[t])):
                raise _estimate_overflow(grid.times, t)
    return Trajectory(grid, f_means, f_vars)


def _kalman_forward(times: np.ndarray, z_means: np.ndarray, z_vars: np.ndarray, predict):
    """The Kalman filter over the data summaries with the prediction step
    ``predict(t, m, p) -> (m_pred, p_pred, cross)``.

    ``predict`` reads the filter means ``m`` and variances ``p`` up to
    ``t - 1`` and returns the predicted moments at ``t`` and the
    cross-covariance of the states at ``t - 1`` and ``t``. Returns the filter
    moments, the predicted moments and the cross-covariances, in the order
    ``_rts_backward`` takes them. Like the backward pass, it runs under the
    error state that :func:`_unscented` sets.
    """
    n = len(times)
    m, p, m_pred, p_pred, cross = (np.zeros(n) for _ in range(5))
    m[0] = z_means[0]
    p[0] = max(z_vars[0], VARIANCE_FLOOR)
    for t in range(1, n):
        try:
            m_pred[t], p_pred[t], cross[t] = predict(t, m, p)
        except NumericalOverflowError as exc:
            raise _overflow_at(exc, times, t) from exc
        gain = p_pred[t] / (p_pred[t] + z_vars[t])
        m[t] = m_pred[t] + gain * (z_means[t] - m_pred[t])
        p[t] = max((1.0 - gain) * p_pred[t], VARIANCE_FLOOR)
    return m, p, m_pred, p_pred, cross


def _rts_backward(m, p, m_pred, p_pred, cross) -> tuple[np.ndarray, np.ndarray]:
    """The Rauch-Tung-Striebel backward pass over a ``_kalman_forward`` run."""
    ms = m.copy()
    ps = p.copy()
    for t in range(len(m) - 2, -1, -1):
        gain = cross[t + 1] / p_pred[t + 1]
        ms[t] = m[t] + gain * (ms[t + 1] - m_pred[t + 1])
        ps[t] = max(p[t] + gain**2 * (ps[t + 1] - p_pred[t + 1]), VARIANCE_FLOOR)
    return ms, ps


def _unscented_predict(dynamics, times: np.ndarray, q: float):
    """Sigma-point prediction through the dynamics fitted on the filter's
    own past means."""

    def predict(t, m, p):
        f = dynamics.step_map(times, m, t)
        mean, variance, cross = _sigma_moments(m[t - 1], p[t - 1], f)
        if not (math.isfinite(mean) and math.isfinite(variance)):
            raise NumericalOverflowError("the propagated moments left the finite range")
        return mean, max(variance, VARIANCE_FLOOR) + q, cross

    return predict


def _linearized_predict(dynamics, times: np.ndarray, q: float, ms: np.ndarray, ps: np.ndarray):
    """Affine prediction from the statistical linearization of the dynamics,
    fitted on the smoothed means ``ms``, around the smoothed posterior
    ``(ms, ps)``; the linearization residual adds to ``q``."""

    def predict(t, m, p):
        f = dynamics.step_map(times, ms, t)
        slope, intercept, residual = _statistical_linearization(
            float(ms[t - 1]), float(ps[t - 1]), f
        )
        prior = p[t - 1]
        return slope * m[t - 1] + intercept, _squared(slope) * prior + (residual + q), slope * prior

    return predict


def _unscented(
    data: TimeSeriesData, kind: ModelKind, q: float, dynamics, smoothing_passes: int
) -> Trajectory:
    """The UKF forward pass, then ``smoothing_passes`` smoothing passes:
    the RTS pass over the UKF, then the further IPLS iterations, each a
    linearized forward pass and its RTS pass. No pass is the UKF, one the
    URTS, more the IPLS."""
    _check_q(q)
    grid = data.grid
    z_means, z_vars = data.summaries()
    if dynamics is None:
        dynamics = FlowStepDynamics(kind, z_means, z_vars)
    # what overflows here fails the next step map or the final finite check
    with np.errstate(over="ignore", invalid="ignore"):
        predict = _unscented_predict(dynamics, grid.times, q)
        forward = _kalman_forward(grid.times, z_means, z_vars, predict)
        ms, ps = forward[:2]
        if smoothing_passes:
            ms, ps = _rts_backward(*forward)
        for _ in range(1, smoothing_passes):
            predict = _linearized_predict(dynamics, grid.times, q, ms, ps)
            ms, ps = _rts_backward(*_kalman_forward(grid.times, z_means, z_vars, predict))
    bad = ~(np.isfinite(ms) & np.isfinite(ps))
    if bad.any():
        raise _estimate_overflow(grid.times, int(np.argmax(bad)))
    return Trajectory(grid, ms, ps)


def run_ukf(
    data: TimeSeriesData,
    kind: ModelKind = ModelKind.BIRTH_DEATH,
    q: float = 1.0,
    dynamics=None,
) -> Trajectory:
    """Unscented Kalman filter: sigma-point predict, Gaussian data update.

    ``dynamics`` may inject custom per-step transition maps (an object with
    ``step_map(times, ref_means, index)``, whose maps are elementwise over
    arrays); by default the ODE flows are window-fitted on the filter's own
    past means.
    """
    return _unscented(data, kind, q, dynamics, 0)


def run_urts(
    data: TimeSeriesData,
    kind: ModelKind = ModelKind.BIRTH_DEATH,
    q: float = 1.0,
    dynamics=None,
) -> Trajectory:
    """Unscented RTS smoother: UKF forward pass, sigma-point backward pass."""
    return _unscented(data, kind, q, dynamics, 1)


def run_ipls(
    data: TimeSeriesData,
    kind: ModelKind = ModelKind.BIRTH_DEATH,
    q: float = 1.0,
    iterations: int = 1,
    dynamics=None,
) -> Trajectory:
    """Iterated posterior linearization smoother.

    The first iteration is the unscented RTS smoother. Every further
    iteration statistically linearizes the step dynamics around the current
    smoothed posterior (adding the linearization residual to ``q``) and
    re-runs a linear RTS pass. When no dynamics are injected, the flows are
    refit from the current smoothed means, so the model too feeds back on
    the smoother's own path.
    """
    if iterations < 1:
        raise InvalidParameterError("iterations must be at least 1")
    return _unscented(data, kind, q, dynamics, iterations)
