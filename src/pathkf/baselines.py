"""Comparison filters and smoothers sharing the spline internal models.

Four algorithms: an adaptive non-linear Kalman filter (the pathspace filter
with the path feedback removed and a constant process uncertainty), an
unscented Kalman filter, an unscented Rauch-Tung-Striebel smoother, and an
iterated posterior linearization smoother. All consume the same
per-timepoint data summaries and fit their step dynamics from
right-endpoint windows of the same ODE families, so benchmark differences
isolate the algorithms themselves. All four share one Kalman forward
update, and the smoothers one RTS backward pass; they differ only in the
prediction step they hand to the forward update. Every fitted step is
affine, so the unscented transform and the statistical linearization of a
step are exact: the UKF and IPLS passes share one closed-form prediction.
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
from .models import POSITIVE_VALUE_FLOOR, ModelKind, ScanGrid, _check_kind, fit_spline_posterior
from .models import uniform_posterior  # noqa: F401  perfbench traces the fallback here too


def _check_q(q: float) -> None:
    """Reject a constant process uncertainty ``q`` that is negative or not finite."""
    if not _isfinite(q) or q < 0:
        raise InvalidParameterError("q must be finite and non-negative")


#: The problem of a filter estimate that is not finite. The data summaries
#: are finite, so such an estimate was made by the model or the filter
#: arithmetic, not by the input.
_ESTIMATE_LEFT_RANGE = "the filter estimate left the finite range"


@dataclass(frozen=True)
class _Relaxation:
    """The affine step ``x -> steady + (x - steady) * slope``, with the model
    variance of the window it was fitted on."""

    steady: float
    slope: float
    variance: float

    def __call__(self, x):
        return self.steady + (x - self.steady) * self.slope


#: The step into the second timepoint, where no window exists yet.
_IDENTITY = _Relaxation(0.0, 1.0, VARIANCE_FLOOR)


@dataclass(frozen=True)
class FlowStepDynamics:
    """Per-step transition maps fitted from right-endpoint windows.

    The step into timepoint ``t`` extrapolates the flow whose parameters are
    fitted to the reference trajectory at ``t-2`` and ``t-1`` (for the
    constant-regulation family the free parameter is the posterior argmax
    against the data at ``t``). Each step is a :class:`_Relaxation`: toward
    the fitted steady state with the window's model variance for constant
    regulation, toward 0 with the growth factor as slope and
    ``VARIANCE_FLOOR`` for birth/death, and the identity into the second
    timepoint, where no window exists yet.
    """

    kind: ModelKind
    z_means: np.ndarray
    z_vars: np.ndarray
    scan: ScanGrid = ScanGrid()

    def __post_init__(self):
        _check_kind(self.kind)

    def step_map(self, times: np.ndarray, ref_means: np.ndarray, index: int):
        """The step into ``index``, fitted on ``ref_means``. A fit whose
        posterior mean or steady state left the finite range raises
        :class:`NumericalOverflowError`."""
        if index < 2:
            return _IDENTITY
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
            return _Relaxation(0.0, factor, VARIANCE_FLOOR)
        into = np.array([index])
        fit = fit_spline_posterior(
            self.kind, self.scan, times, into - 2, into - 1, into, ref_means,
            self.z_means[into], self.z_vars[into],
        )
        k_deg = float(fit.k_deg[0, np.argmax(fit.weights[0])])
        xa, xb = ref_means[index - 2], ref_means[index - 1]
        with np.errstate(all="ignore"):
            steady = float(xa - (xb - xa) / np.expm1(-k_deg * (times[index - 1] - times[index - 2])))
        if not (math.isfinite(fit.means[0]) and math.isfinite(steady)):  # the callers place it
            raise NumericalOverflowError("the model fit left the finite range")
        return _Relaxation(steady, math.exp(-k_deg * delta), float(fit.variances[0]))


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
    step's model variance plus ``q``; a birth/death step fits no window.
    """
    _check_q(q)
    z_means, z_vars = data.summaries()
    dynamics = FlowStepDynamics(kind, z_means, z_vars)
    times = data.grid.times

    def predict(t, m, p):
        flow = dynamics.step_map(times, z_means, t)
        return flow(m[t - 1]), flow.variance + q, 0.0

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


def _affine_predict(dynamics, times: np.ndarray, q: float, ref_means=None):
    """The exact moments of the affine step into ``t``, fitted on the filter's
    own means or on ``ref_means``: mean ``step(m)``, variance ``slope**2 * p``
    plus ``q`` (floored before ``q`` in the UKF pass, which has no
    ``ref_means``) and cross-covariance ``slope * p``. The unscented transform
    and the statistical linearization of an affine step give these too."""

    def predict(t, m, p):
        step = dynamics.step_map(times, m if ref_means is None else ref_means, t)
        if not hasattr(step, "slope"):
            raise InvalidParameterError("a step map must return an affine step with a slope")
        slope, prior = step.slope, p[t - 1]
        variance = slope * slope * prior
        if ref_means is None:
            variance = max(variance, VARIANCE_FLOOR)
        return step(m[t - 1]), variance + q, slope * prior

    return predict


def _unscented(data: TimeSeriesData, model, q: float, smoothing_passes: int) -> Trajectory:
    """The UKF forward pass, then ``smoothing_passes`` smoothing passes: the
    RTS pass over the UKF, then the further IPLS iterations, each a forward
    pass with the steps fitted on the last smoothed means and its RTS pass.
    No pass is the UKF, one the URTS, more the IPLS."""
    _check_q(q)
    grid = data.grid
    dynamics = FlowStepDynamics(model, *data.summaries()) if isinstance(model, ModelKind) else model
    if not hasattr(dynamics, "step_map"):
        raise InvalidParameterError(f"model must be a ModelKind or have step_map, got {model!r}")
    # the forward passes check each estimate; only an RTS pass needs the final check
    with np.errstate(over="ignore", invalid="ignore"):
        forward = _kalman_forward(data, _affine_predict(dynamics, grid.times, q))
        if not smoothing_passes:
            return Trajectory(grid, *forward[:2])
        ms, ps = _rts_backward(*forward)
        for _ in range(1, smoothing_passes):
            predict = _affine_predict(dynamics, grid.times, q, ms)
            ms, ps = _rts_backward(*_kalman_forward(data, predict))
    bad = ~(np.isfinite(ms) & np.isfinite(ps))
    if bad.any():
        raise NumericalOverflowError(f"{data._where(int(np.argmax(bad)))}: {_ESTIMATE_LEFT_RANGE}")
    return Trajectory(grid, ms, ps)


def run_ukf(data: TimeSeriesData, model=ModelKind.BIRTH_DEATH, q: float = 1.0) -> Trajectory:
    """Unscented Kalman filter: unscented predict, Gaussian data update.

    ``model`` is a :class:`~pathkf.models.ModelKind`, whose ODE flows are
    window-fitted on the filter's own past means, or any object with a
    ``step_map(times, ref_means, index)`` method that returns an affine step:
    a callable with a ``slope`` attribute, ``x -> step(0) + slope * x``.
    Anything else raises :class:`InvalidParameterError`.
    """
    return _unscented(data, model, q, 0)


def run_urts(data: TimeSeriesData, model=ModelKind.BIRTH_DEATH, q: float = 1.0) -> Trajectory:
    """Unscented RTS smoother: UKF forward pass, RTS backward pass with the
    gain from the forward prediction's cross-covariance. ``model`` is as in
    :func:`run_ukf`."""
    return _unscented(data, model, q, 1)


def run_ipls(
    data: TimeSeriesData, model=ModelKind.BIRTH_DEATH, q: float = 1.0, iterations: int = 1
) -> Trajectory:
    """Iterated posterior linearization smoother.

    The first iteration is the unscented RTS smoother. Every further
    iteration refits the steps on the current smoothed means and re-runs
    the RTS smoother on them; an affine step is its own statistical
    linearization, with no residual. ``model`` is as in :func:`run_ukf`.
    """
    if iterations < 1:
        raise InvalidParameterError("iterations must be at least 1")
    return _unscented(data, model, q, iterations)
