"""Comparison filters and smoothers sharing the spline internal models.

Four algorithms: an adaptive non-linear Kalman filter (the pathspace filter
with the path feedback removed and a constant process uncertainty), an
unscented Kalman filter, an unscented Rauch-Tung-Striebel smoother, and an
iterated posterior linearization smoother. All consume the same
per-timepoint data summaries and fit their step dynamics from
right-endpoint windows of the same ODE families, so benchmark differences
isolate the algorithms themselves. All four share one Kalman forward
update, and the smoothers one RTS backward pass; they differ only in the
prediction step they hand to the forward update: the adaptive filter's flow
fitted on the data, unscented, or statistically linearized.
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
    _isfinite,
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
    if not _isfinite(q) or q < 0:
        raise InvalidParameterError("q must be finite and non-negative")


#: The problem of a filter estimate that is not finite. The data summaries
#: are finite, so such an estimate was made by the model or the filter
#: arithmetic, not by the input.
_ESTIMATE_LEFT_RANGE = "the filter estimate left the finite range"


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
        if not math.isfinite(fit.means[0]):  # the callers name the series and timepoint
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
    third on, the shared Kalman update weighs the data against a prediction
    whose flow is fitted on a right-endpoint window of the data means and
    propagates the previous filter estimate. The prediction variance is the
    window's model variance plus ``q``; a birth/death prediction does not
    depend on the scanned parameter, so its window is never fit and its
    model variance is ``VARIANCE_FLOOR``.
    """
    _check_q(q)
    z_means, z_vars = data.summaries()
    dynamics = FlowStepDynamics(kind, z_means, z_vars)
    times = data.grid.times

    def predict(t, m, p):
        flow = dynamics.step_map(times, z_means, t)
        v_model = flow.variance if kind is ModelKind.CONSTANT_REGULATION else VARIANCE_FLOOR
        return flow(m[t - 1]), v_model + q, 0.0

    with np.errstate(over="ignore", invalid="ignore"):  # checked at each step
        m, p = _kalman_forward(data, predict, start=2)[:2]
    return Trajectory(data.grid, m, p)


def _kalman_forward(data: TimeSeriesData, predict, start: int = 1):
    """The Kalman filter over the summaries of ``data`` with the prediction step
    ``predict(t, m, p) -> (m_pred, p_pred, cross)``, from the timepoint
    ``start`` on; the timepoints before it take the data summaries.

    ``predict`` reads the filter means ``m`` and variances ``p`` up to
    ``t - 1`` and returns the predicted moments at ``t`` and the
    cross-covariance of the states at ``t - 1`` and ``t``. Each estimate is
    checked as it is made, so the run stops at the first one that is not
    finite. Returns the filter moments, the predicted moments and the
    cross-covariances, in the order ``_rts_backward`` takes them. Like the
    backward pass, it runs under its caller's error state.
    """
    z_means, z_vars = data.summaries()
    n = len(z_means)
    m, p, m_pred, p_pred, cross = (np.zeros(n) for _ in range(5))
    m[:start] = z_means[:start]
    p[:start] = z_vars[:start]
    for t in range(start, n):
        try:
            mean, variance, cross[t] = predict(t, m, p)
        except NumericalOverflowError as exc:
            raise NumericalOverflowError(f"{data._where(t)}: {exc}") from exc
        m_pred[t], p_pred[t] = mean, variance
        gain = variance / (variance + z_vars[t])
        m[t] = estimate = mean + gain * (z_means[t] - mean)
        p[t] = spread = max((1.0 - gain) * variance, VARIANCE_FLOOR)
        if not (math.isfinite(estimate) and math.isfinite(spread)):
            raise NumericalOverflowError(f"{data._where(t)}: {_ESTIMATE_LEFT_RANGE}")
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


def _unscented(data: TimeSeriesData, model, q: float, smoothing_passes: int) -> Trajectory:
    """The UKF forward pass, then ``smoothing_passes`` smoothing passes:
    the RTS pass over the UKF, then the further IPLS iterations, each a
    linearized forward pass and its RTS pass. No pass is the UKF, one the
    URTS, more the IPLS. ``model`` is a :class:`ModelKind`, whose flows
    :class:`FlowStepDynamics` fits, or any object with a ``step_map``."""
    _check_q(q)
    grid = data.grid
    dynamics = FlowStepDynamics(model, *data.summaries()) if isinstance(model, ModelKind) else model
    # the forward passes check each estimate; only an RTS pass needs the final check
    with np.errstate(over="ignore", invalid="ignore"):
        forward = _kalman_forward(data, _unscented_predict(dynamics, grid.times, q))
        if not smoothing_passes:
            return Trajectory(grid, *forward[:2])
        ms, ps = _rts_backward(*forward)
        for _ in range(1, smoothing_passes):
            predict = _linearized_predict(dynamics, grid.times, q, ms, ps)
            ms, ps = _rts_backward(*_kalman_forward(data, predict))
    bad = ~(np.isfinite(ms) & np.isfinite(ps))
    if bad.any():
        raise NumericalOverflowError(f"{data._where(int(np.argmax(bad)))}: {_ESTIMATE_LEFT_RANGE}")
    return Trajectory(grid, ms, ps)


def run_ukf(data: TimeSeriesData, model=ModelKind.BIRTH_DEATH, q: float = 1.0) -> Trajectory:
    """Unscented Kalman filter: sigma-point predict, Gaussian data update.

    ``model`` is a :class:`~pathkf.models.ModelKind`, whose ODE flows are
    window-fitted on the filter's own past means, or any object with a
    ``step_map(times, ref_means, index)`` method whose maps are elementwise
    over arrays.
    """
    return _unscented(data, model, q, 0)


def run_urts(data: TimeSeriesData, model=ModelKind.BIRTH_DEATH, q: float = 1.0) -> Trajectory:
    """Unscented RTS smoother: UKF forward pass, sigma-point backward pass.
    ``model`` is as in :func:`run_ukf`."""
    return _unscented(data, model, q, 1)


def run_ipls(
    data: TimeSeriesData, model=ModelKind.BIRTH_DEATH, q: float = 1.0, iterations: int = 1
) -> Trajectory:
    """Iterated posterior linearization smoother.

    The first iteration is the unscented RTS smoother. Every further
    iteration statistically linearizes the step dynamics around the current
    smoothed posterior (adding the linearization residual to ``q``) and
    re-runs a linear RTS pass. ``model`` is as in :func:`run_ukf`; for a
    ``ModelKind`` the flows are refit from the current smoothed means, so
    the model too feeds back on the smoother's own path.
    """
    if iterations < 1:
        raise InvalidParameterError("iterations must be at least 1")
    return _unscented(data, model, q, iterations)
