"""Comparison filters and smoothers sharing the spline internal models.

Four algorithms: an adaptive non-linear Kalman filter (the pathspace filter
with the path feedback removed and a constant process uncertainty), an
unscented Kalman filter, an unscented Rauch-Tung-Striebel smoother, and an
iterated posterior linearization smoother. All consume the same
per-timepoint data summaries and fit their step dynamics from
right-endpoint windows of the same ODE families, so benchmark differences
isolate the algorithms themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    VARIANCE_FLOOR,
    GaussianEstimate,
    InvalidDataError,
    InvalidParameterError,
    NumericalOverflowError,
    TimeSeriesData,
    Trajectory,
)
from .models import POSITIVE_VALUE_FLOOR, ModelKind, ScanGrid, fit_spline_posterior
from .models import uniform_posterior  # noqa: F401  perfbench traces the fallback here too


#: Sigma-point weights of a univariate state with the points at one standard
#: deviation (alpha=1, beta=2, kappa=0): the common alpha=1e-3 collapses the
#: spread far below the data noise.
_MEAN_WEIGHTS = (0.0, 0.5, 0.5)
_COV_WEIGHTS = (2.0, 0.5, 0.5)


@dataclass(frozen=True, eq=False)
class SigmaPoints:
    """Sigma points with their mean and covariance weights."""

    points: np.ndarray
    mean_weights: np.ndarray
    cov_weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        wm = np.asarray(self.mean_weights, dtype=float)
        wc = np.asarray(self.cov_weights, dtype=float)
        if not (len(pts) == len(wm) == len(wc) == 3):
            raise InvalidDataError("a univariate state uses exactly 3 sigma points")
        if abs(float(np.sum(wm)) - 1.0) > 1e-12:
            raise InvalidDataError("mean weights must sum to one")
        for name, arr in (("points", pts), ("mean_weights", wm), ("cov_weights", wc)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def merwe_sigma_points(mean: float, variance: float) -> SigmaPoints:
    """Sigma points for a univariate Gaussian, at ``mean`` and one standard
    deviation either side."""
    if variance < 0:
        raise InvalidParameterError("variance must be non-negative")
    spread = math.sqrt(variance)
    points = np.array([mean, mean + spread, mean - spread])
    return SigmaPoints(points, _MEAN_WEIGHTS, _COV_WEIGHTS)


def _propagate(points: np.ndarray, f) -> np.ndarray:
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.asarray(f(points), dtype=float)
    except (TypeError, ValueError):
        out = np.array([float(f(x)) for x in points])
    if out.shape != points.shape:
        out = np.array([float(f(x)) for x in points])
    if not np.all(np.isfinite(out)):
        raise NumericalOverflowError("the step map left the finite range")
    return out


def _overflow_at(exc: NumericalOverflowError, times, t: int) -> NumericalOverflowError:
    """``exc`` restated for the step into timepoint ``t``."""
    return NumericalOverflowError(f"{exc} at timepoint {t} (t={times[t]})")


def _finite_trajectory(grid, means: np.ndarray, variances: np.ndarray) -> Trajectory:
    """The estimates as a trajectory; a non-finite one overflowed in the filter.

    The data summaries are finite, so an estimate that is not was made by
    the model or the filter arithmetic, not by the input.
    """
    bad = ~(np.isfinite(means) & np.isfinite(variances))
    if bad.any():
        t = int(np.argmax(bad))
        raise NumericalOverflowError(
            f"filter estimate left the finite range at timepoint {t} (t={grid.times[t]})"
        )
    return Trajectory(grid, means, variances)


def unscented_transform(estimate: GaussianEstimate, f) -> GaussianEstimate:
    """Propagate a Gaussian through ``f`` via sigma points; exact for affine maps."""
    pts = merwe_sigma_points(estimate.mean, estimate.variance)
    prop = _propagate(pts.points, f)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.sum(pts.mean_weights * prop))
        variance = float(np.sum(pts.cov_weights * (prop - mean) ** 2))
    if not (math.isfinite(mean) and math.isfinite(variance)):
        raise NumericalOverflowError("the propagated moments left the finite range")
    return GaussianEstimate(mean, max(variance, VARIANCE_FLOOR))


def _cross_covariance(pts: SigmaPoints, prop: np.ndarray, mean_in: float) -> float:
    mean_out = float(np.sum(pts.mean_weights * prop))
    return float(np.sum(pts.cov_weights * (pts.points - mean_in) * (prop - mean_out)))


def statistical_linearization(mean: float, variance: float, f) -> tuple[float, float, float]:
    """Sigma-point linear regression of ``f`` around a Gaussian.

    Returns ``(slope, intercept, residual_variance)`` with the slope the
    cross-covariance over the input variance and the intercept matching the
    propagated mean. Exact (zero residual) for affine maps.
    """
    var = max(variance, VARIANCE_FLOOR)
    pts = merwe_sigma_points(mean, var)
    prop = _propagate(pts.points, f)
    mean_out = float(np.sum(pts.mean_weights * prop))
    var_out = float(np.sum(pts.cov_weights * (prop - mean_out) ** 2))
    cross = _cross_covariance(pts, prop, mean)
    slope = cross / var
    intercept = mean_out - slope * mean
    residual = max(var_out - slope**2 * var, 0.0)
    return slope, intercept, residual


@dataclass(frozen=True)
class _Relaxation:
    """The constant-regulation step ``x -> steady + (x - steady) * decay``,
    with the posterior moments of the window it was fitted on."""

    steady: float
    decay: float
    mean: float
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
        """Transition map into ``index``, fitted on ``ref_means``."""
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
            self.z_means[into], self.z_vars[into], check_moments=False,
        )
        best = int(np.argmax(fit.weights[0]))
        k_deg = float(fit.k_deg[0, best])
        # k_exp / k_deg as the scalar fit derived it; reading steady differs in the last bit
        steady = float(k_deg * fit.steady[0, best]) / k_deg
        decay = math.exp(-k_deg * delta)
        return _Relaxation(steady, decay, float(fit.means[0]), float(fit.variances[0]))


@dataclass(frozen=True)
class AffineStepDynamics:
    """Fixed affine transition ``x -> slope * x + intercept`` for every step."""

    slope: float
    intercept: float = 0.0

    def step_map(self, times, ref_means, index):
        return lambda x: self.slope * x + self.intercept


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
    grid = data.grid
    z_means, z_vars = data.summaries()
    dynamics = FlowStepDynamics(kind, z_means, z_vars)
    n = len(grid)
    f_means = np.empty(n)
    f_vars = np.empty(n)
    f_means[:2] = z_means[:2]
    f_vars[:2] = z_vars[:2]
    for t in range(2, n):
        try:
            flow = dynamics.step_map(grid.times, z_means, t)
        except NumericalOverflowError as exc:
            raise _overflow_at(exc, grid.times, t) from exc
        v_model = VARIANCE_FLOOR
        if kind is ModelKind.CONSTANT_REGULATION:
            # non-finite window moments fail here, as they did in the scalar fit
            v_model = GaussianEstimate(flow.mean, flow.variance).variance
        e_model = float(flow(f_means[t - 1]))
        b = v_model + q
        w = b / (b + z_vars[t])
        f_means[t] = w * z_means[t] + (1.0 - w) * e_model
        f_vars[t] = max(w**2 * z_vars[t] + (1.0 - w) ** 2 * b, VARIANCE_FLOOR)
    return _finite_trajectory(grid, f_means, f_vars)


@dataclass(frozen=True, eq=False)
class _ForwardPass:
    means: np.ndarray
    variances: np.ndarray
    pred_means: np.ndarray
    pred_variances: np.ndarray
    maps: tuple


def _ukf_forward(
    times: np.ndarray,
    z_means: np.ndarray,
    z_vars: np.ndarray,
    dynamics,
    q: float,
) -> _ForwardPass:
    n = len(times)
    m = np.empty(n)
    p = np.empty(n)
    m_pred = np.empty(n)
    p_pred = np.empty(n)
    maps: list = [None] * n
    m[0] = z_means[0]
    p[0] = max(z_vars[0], VARIANCE_FLOOR)
    m_pred[0] = m[0]
    p_pred[0] = p[0]
    for t in range(1, n):
        try:
            f = dynamics.step_map(times, m, t)
            predicted = unscented_transform(GaussianEstimate(m[t - 1], p[t - 1]), f)
        except NumericalOverflowError as exc:
            raise _overflow_at(exc, times, t) from exc
        maps[t] = f
        m_pred[t] = predicted.mean
        p_pred[t] = predicted.variance + q
        gain = p_pred[t] / (p_pred[t] + z_vars[t])
        m[t] = m_pred[t] + gain * (z_means[t] - m_pred[t])
        p[t] = max((1.0 - gain) * p_pred[t], VARIANCE_FLOOR)
    return _ForwardPass(m, p, m_pred, p_pred, tuple(maps))


def _urts_backward(times: np.ndarray, forward: _ForwardPass) -> tuple[np.ndarray, np.ndarray]:
    n = len(times)
    ms = forward.means.copy()
    ps = forward.variances.copy()
    for t in range(n - 2, -1, -1):
        pts = merwe_sigma_points(forward.means[t], forward.variances[t])
        try:
            prop = _propagate(pts.points, forward.maps[t + 1])
        except NumericalOverflowError as exc:
            raise _overflow_at(exc, times, t + 1) from exc
        cross = _cross_covariance(pts, prop, forward.means[t])
        gain = cross / forward.pred_variances[t + 1]
        ms[t] = forward.means[t] + gain * (ms[t + 1] - forward.pred_means[t + 1])
        ps[t] = max(
            forward.variances[t]
            + gain**2 * (ps[t + 1] - forward.pred_variances[t + 1]),
            VARIANCE_FLOOR,
        )
    return ms, ps


def _linear_rts_pass(
    times: np.ndarray,
    z_means: np.ndarray,
    z_vars: np.ndarray,
    slopes: np.ndarray,
    intercepts: np.ndarray,
    noises: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Forward KF and backward RTS with per-step affine dynamics."""
    n = len(times)
    m = np.empty(n)
    p = np.empty(n)
    m_pred = np.empty(n)
    p_pred = np.empty(n)
    m[0] = z_means[0]
    p[0] = max(z_vars[0], VARIANCE_FLOOR)
    for t in range(1, n):
        m_pred[t] = slopes[t] * m[t - 1] + intercepts[t]
        p_pred[t] = slopes[t] ** 2 * p[t - 1] + noises[t]
        gain = p_pred[t] / (p_pred[t] + z_vars[t])
        m[t] = m_pred[t] + gain * (z_means[t] - m_pred[t])
        p[t] = max((1.0 - gain) * p_pred[t], VARIANCE_FLOOR)
    ms = m.copy()
    ps = p.copy()
    for t in range(n - 2, -1, -1):
        gain = slopes[t + 1] * p[t] / p_pred[t + 1]
        ms[t] = m[t] + gain * (ms[t + 1] - m_pred[t + 1])
        ps[t] = max(p[t] + gain**2 * (ps[t + 1] - p_pred[t + 1]), VARIANCE_FLOOR)
    return ms, ps


def _unscented(
    data: TimeSeriesData, kind: ModelKind, q: float, dynamics, smoothing_passes: int
) -> Trajectory:
    """The UKF forward pass, then ``smoothing_passes`` smoothing passes:
    the sigma-point RTS pass, then the further IPLS iterations. No pass is
    the UKF, one the URTS, more the IPLS."""
    grid = data.grid
    z_means, z_vars = data.summaries()
    if dynamics is None:
        dynamics = FlowStepDynamics(kind, z_means, z_vars)
    forward = _ukf_forward(grid.times, z_means, z_vars, dynamics, q)
    ms, ps = forward.means, forward.variances
    if smoothing_passes:
        ms, ps = _urts_backward(grid.times, forward)
    n = len(grid)
    for _ in range(1, smoothing_passes):
        slopes = np.zeros(n)
        intercepts = np.zeros(n)
        noises = np.zeros(n)
        for t in range(1, n):
            try:
                f = dynamics.step_map(grid.times, ms, t)
                slope, intercept, residual = statistical_linearization(
                    float(ms[t - 1]), float(ps[t - 1]), f
                )
            except NumericalOverflowError as exc:
                raise _overflow_at(exc, grid.times, t) from exc
            slopes[t] = slope
            intercepts[t] = intercept
            noises[t] = residual + q
        ms, ps = _linear_rts_pass(grid.times, z_means, z_vars, slopes, intercepts, noises)
    return _finite_trajectory(grid, ms, ps)


def run_ukf(
    data: TimeSeriesData,
    kind: ModelKind = ModelKind.BIRTH_DEATH,
    q: float = 1.0,
    dynamics=None,
) -> Trajectory:
    """Unscented Kalman filter: sigma-point predict, Gaussian data update.

    ``dynamics`` may inject custom per-step transition maps (an object with
    ``step_map(times, ref_means, index)``); by default the ODE flows are
    window-fitted on the filter's own past means.
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
