"""Independent reference computations used to check the library's closed forms.

Everything here is deliberately implemented by a different route than the
code under test: fixed-step numerical integration instead of analytic
flows, exhaustive grid search instead of closed-form minimizers, plain
scalar Kalman recursions instead of the shared Kalman core, the weight form
of the Kalman update instead of the gain form, a plain-float
pathspace-filter step instead of the array kernel, one replicate group at
a time instead of the stacked summary kernel, one three-point window at a
time instead of the spline-posterior kernel, one regime label at a time
instead of the array selection, and one list scan per ratio-summary bin
and label instead of one binning of the whole summary.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from pathkf import (
    VARIANCE_FLOOR,
    InvalidDataError,
    InvalidParameterError,
    ModelKind,
    NumericalOverflowError,
    PathkfError,
    RegimeLabel,
    ScanGrid,
)
from pathkf.baselines import FlowStepDynamics
from pathkf.models import POSITIVE_VALUE_FLOOR


@dataclass(frozen=True)
class GaussianEstimate:
    """A (mean, variance) pair: the target of a scalar window fit and the
    moments of its prediction."""

    mean: float
    variance: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise InvalidDataError("mean and variance must be finite")
        if self.variance < 0:
            raise InvalidDataError("variance must be non-negative")


class DegeneratePosteriorError(PathkfError):
    """The scalar window fit's error: every spline weight vanished, or a
    prediction left the finite range."""


def rk4_integrate(deriv, x0: float, t0: float, t1: float, steps: int = 4096) -> float:
    """Classic fourth-order Runge-Kutta integration of ``dx/dt = deriv(t, x)``."""
    h = (t1 - t0) / steps
    x, t = float(x0), float(t0)
    for _ in range(steps):
        k1 = deriv(t, x)
        k2 = deriv(t + h / 2, x + h * k1 / 2)
        k3 = deriv(t + h / 2, x + h * k2 / 2)
        k4 = deriv(t + h, x + h * k3)
        x += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        t += h
    return x


def rk4_integrate_piecewise(
    deriv, x0: float, t0: float, t1: float, breakpoints, steps: int = 4096
) -> float:
    """RK4 integration split at known discontinuities of the right-hand side.

    Fixed-step RK4 loses its order when a step straddles a rate jump, so
    each smooth segment is integrated separately.
    """
    edges = [t0] + [b for b in sorted(breakpoints) if t0 < b < t1] + [t1]
    x = float(x0)
    for a, b in zip(edges, edges[1:]):
        # clamp stage evaluations into the open segment so the final RK4
        # stage does not sample the post-jump rate at the boundary
        eps = 1e-9 * (b - a)

        def segment_deriv(t, x, _hi=b - eps):
            return deriv(min(t, _hi), x)

        x = rk4_integrate(segment_deriv, x, a, b, steps)
    return x


def replicate_summary(samples, floor: float = 1e-9) -> tuple[float, float]:
    """Mean and floored Bessel-corrected variance of one 1-D replicate group,
    the floor standing in for the variance of a single replicate."""
    arr = np.asarray(samples, dtype=float)
    variance = float(np.var(arr, ddof=1)) if len(arr) >= 2 else floor
    return float(np.mean(arr)), max(variance, floor)


def brute_force_weights(
    a: float, b: float, c: float, coarse: float = 1e-2, fine: float = 1e-4
) -> tuple[float, float]:
    """Grid minimizer of ``w^2 c + wm^2 b + (1 - w - wm)^2 a`` on the simplex.

    A coarse sweep over the whole simplex locates the basin; a second sweep
    at the fine resolution around the coarse winner pins the grid argmin.
    The two-stage search finds the same point as the exhaustive fine grid
    because the objective is a convex quadratic.
    """

    def grid_argmin(w_lo, w_hi, wm_lo, wm_hi, step):
        w = np.arange(max(w_lo, 0.0), min(w_hi, 1.0) + step / 2, step)
        wm = np.arange(max(wm_lo, 0.0), min(wm_hi, 1.0) + step / 2, step)
        grid_w, grid_wm = np.meshgrid(w, wm, indexing="ij")
        feasible = grid_w + grid_wm <= 1.0 + 1e-12
        objective = np.where(
            feasible,
            grid_w**2 * c + grid_wm**2 * b + (1.0 - grid_w - grid_wm) ** 2 * a,
            np.inf,
        )
        i, j = np.unravel_index(np.argmin(objective), objective.shape)
        return float(grid_w[i, j]), float(grid_wm[i, j])

    w0, wm0 = grid_argmin(0.0, 1.0, 0.0, 1.0, coarse)
    pad = 2.0 * coarse
    return grid_argmin(w0 - pad, w0 + pad, wm0 - pad, wm0 + pad, fine)


class ScalarEstimate(NamedTuple):
    mean: float
    variance: float


class ScalarWeights(NamedTuple):
    w_data: float
    w_model: float
    w_filter: float


def pkf_step(t: int, prev_state, data, model):
    """One pathspace-filter update at timepoint ``t`` in plain floats.

    ``prev_state`` supplies ``filter.means``, ``filter.variances`` and
    ``process_uncertainty``; ``data`` a ``mean`` and ``variance``; ``model``
    an ``estimate`` with both. Returns the new estimate, the weights used
    and the updated process uncertainty, whose loss is the squared gap of
    model and data means.
    """
    a = float(prev_state.filter.variances[t])
    q_prev = float(prev_state.process_uncertainty[t])
    b = model.estimate.variance + q_prev
    c = data.variance
    denom = a * b + b * c + c * a
    if denom == 0.0:
        w = wm = wf = 1.0 / 3.0
    else:
        w, wm, wf = a * b / denom, a * c / denom, b * c / denom
    mean = w * data.mean + wm * model.estimate.mean + wf * float(prev_state.filter.means[t])
    variance = w**2 * c + wm**2 * b + wf**2 * a
    loss = (model.estimate.mean - data.mean) ** 2
    q_new = q_prev + (w + wm) * (loss - q_prev)
    return ScalarEstimate(mean, variance), ScalarWeights(w, wm, wf), q_new


def classify_regime(
    q: float, v_data: float, q_threshold: float, v_threshold: float
) -> RegimeLabel:
    """Quadrant label for one timepoint; boundary values classify as high."""
    if q_threshold <= 0 or v_threshold <= 0:
        raise InvalidParameterError("thresholds must be positive")
    high_q = q >= q_threshold
    high_v = v_data >= v_threshold
    if high_q and high_v:
        return RegimeLabel.INACCURATE_MODEL_NOISY_DATA
    if high_q:
        return RegimeLabel.INACCURATE_MODEL_RELIABLE_DATA
    if high_v:
        return RegimeLabel.ACCURATE_MODEL_NOISY_DATA
    return RegimeLabel.ACCURATE_MODEL_RELIABLE_DATA


@dataclass(frozen=True)
class AffineStepDynamics:
    """Fixed affine transition ``x -> slope * x + intercept`` for every step,
    the dynamics of :func:`linear_kf` and :func:`linear_rts`, passed as the
    ``model`` of the unscented baselines. It is its own step: a callable
    with a ``slope``."""

    slope: float
    intercept: float = 0.0

    def step_map(self, times, ref_means, index):
        return self

    def __call__(self, x):
        return self.slope * x + self.intercept


def linear_kf(times, z_means, z_vars, slope, intercept, q, floor=1e-9):
    """Scalar Kalman filter with fixed affine dynamics at every step."""
    n = len(times)
    m = np.empty(n)
    p = np.empty(n)
    m_pred = np.empty(n)
    p_pred = np.empty(n)
    m[0] = z_means[0]
    p[0] = max(z_vars[0], floor)
    m_pred[0], p_pred[0] = m[0], p[0]
    for t in range(1, n):
        m_pred[t] = slope * m[t - 1] + intercept
        p_pred[t] = slope**2 * p[t - 1] + q
        gain = p_pred[t] / (p_pred[t] + z_vars[t])
        m[t] = m_pred[t] + gain * (z_means[t] - m_pred[t])
        p[t] = max((1.0 - gain) * p_pred[t], floor)
    return m, p, m_pred, p_pred


def linear_rts(times, z_means, z_vars, slope, intercept, q, floor=1e-9):
    """Scalar RTS smoother with fixed affine dynamics at every step."""
    m, p, m_pred, p_pred = linear_kf(times, z_means, z_vars, slope, intercept, q, floor)
    ms = m.copy()
    ps = p.copy()
    for t in range(len(times) - 2, -1, -1):
        gain = slope * p[t] / p_pred[t + 1]
        ms[t] = m[t] + gain * (ms[t + 1] - m_pred[t + 1])
        ps[t] = max(p[t] + gain**2 * (ps[t + 1] - p_pred[t + 1]), floor)
    return ms, ps


def adaptive_kf(data, kind: ModelKind, q: float):
    """Referee for ``pathkf.run_adaptive_kf``: its own time loop, with the
    Kalman update in the weight form ``w * z + (1 - w) * e`` and
    ``w**2 * V(Z) + (1 - w)**2 * b`` instead of the library's gain form
    ``m + g * (z - m)`` and ``(1 - g) * p``. The first two timepoints take
    the data summaries; every later one is checked as it is made, and its
    errors are located as the library locates them. Returns the filter and
    the predicted means and variances, as :func:`linear_kf` does."""
    z_means, z_vars = data.summaries()
    dynamics = FlowStepDynamics(kind, z_means, z_vars)
    times = data.grid.times
    n = len(times)
    m, p, m_pred, p_pred = (np.zeros(n) for _ in range(4))
    m[:2] = z_means[:2]
    p[:2] = z_vars[:2]
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(2, n):
            try:
                flow = dynamics.step_map(times, z_means, t)
            except NumericalOverflowError as exc:
                raise NumericalOverflowError(f"{data._where(t)}: {exc}") from exc
            v_model = flow.variance if kind is ModelKind.CONSTANT_REGULATION else VARIANCE_FLOOR
            e = m_pred[t] = float(flow(m[t - 1]))
            b = p_pred[t] = v_model + q
            w = b / (b + z_vars[t])
            m[t] = w * z_means[t] + (1.0 - w) * e
            p[t] = max(w**2 * z_vars[t] + (1.0 - w) ** 2 * b, VARIANCE_FLOOR)
            if not (math.isfinite(m[t]) and math.isfinite(p[t])):
                raise NumericalOverflowError(
                    f"{data._where(t)}: the filter estimate left the finite range"
                )
    return m, p, m_pred, p_pred


class LinearPathModel:
    """Exact linear internal model for the pathspace filter.

    Predicts each point from its predecessor on the previous filter path via
    ``x -> slope * x + intercept``; the first point uses the inverse map from
    its successor.
    """

    def __init__(self, slope: float, intercept: float):
        self.slope = slope
        self.intercept = intercept

    def predict_path(self, grid, means, variances):
        n = len(grid)
        m = np.empty(n)
        v = np.empty(n)
        m[1:] = self.slope * means[:-1] + self.intercept
        v[1:] = self.slope**2 * variances[:-1]
        m[0] = (means[1] - self.intercept) / self.slope
        v[0] = variances[1] / self.slope**2
        return m, np.maximum(v, 1e-9)


# --- the scalar spline-posterior fit, one three-point window at a time ---


class FitPosition(enum.Enum):
    """Where the target sits relative to the two anchors."""

    CENTER = "center"
    RIGHT_ENDPOINT = "right"
    LEFT_ENDPOINT = "left"


@dataclass(frozen=True)
class Window:
    """A three-point fitting window.

    The anchors are (time, value) pairs the spline must pass through
    exactly; the target is the point being predicted and carries the
    Gaussian estimate used to score each spline.
    """

    anchor_a: tuple[float, float]
    anchor_b: tuple[float, float]
    target: tuple[float, GaussianEstimate]

    def __post_init__(self):
        ta, tb, tt = self.anchor_a[0], self.anchor_b[0], self.target[0]
        if len({ta, tb, tt}) != 3:
            raise InvalidDataError("window times must be three distinct values")
        for v in (ta, tb, tt, self.anchor_a[1], self.anchor_b[1]):
            if not math.isfinite(v):
                raise InvalidDataError("window times and values must be finite")

    def ordered_anchors(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Anchors sorted by time (earlier first)."""
        if self.anchor_a[0] <= self.anchor_b[0]:
            return self.anchor_a, self.anchor_b
        return self.anchor_b, self.anchor_a

    def span(self) -> float:
        """Total time extent of the window."""
        times = (self.anchor_a[0], self.anchor_b[0], self.target[0])
        return max(times) - min(times)

    def position(self) -> FitPosition:
        """Fit position implied by the time ordering."""
        (ta, _), (tb, _) = self.ordered_anchors()
        tt = self.target[0]
        if tt < ta:
            return FitPosition.LEFT_ENDPOINT
        if tt > tb:
            return FitPosition.RIGHT_ENDPOINT
        return FitPosition.CENTER


@dataclass(frozen=True, eq=False)
class SplinePosterior:
    """Discrete posterior over one-parameter spline families.

    Index ``i`` holds the scanned free parameter, the derived second
    parameter, the spline's value at the target time, and its normalized
    posterior weight.
    """

    k1_grid: np.ndarray
    k2_values: np.ndarray
    predictions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        arrays = {}
        for name in ("k1_grid", "k2_values", "predictions", "weights"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.setflags(write=False)
            arrays[name] = arr
        n = len(arrays["k1_grid"])
        if any(len(a) != n for a in arrays.values()):
            raise InvalidDataError("posterior arrays must share one length")
        w = arrays["weights"]
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise InvalidDataError("posterior weights must be finite and non-negative")
        if abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise InvalidDataError("posterior weights must sum to one")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class ModelPrediction:
    """Posterior mean and variance of the spline value at the target time."""

    estimate: GaussianEstimate


def _check_position(window: Window, pos: FitPosition) -> None:
    actual = window.position()
    if actual is not pos:
        raise InvalidDataError(
            f"window target at t={window.target[0]} implies {actual.value!r}, "
            f"not {pos.value!r}"
        )


def _bd_growth(window: Window) -> float:
    (ta, na), (tb, nb) = window.ordered_anchors()
    if na <= 0 or nb <= 0:
        raise InvalidDataError(
            "birth-death anchors must be positive (apply the positivity clamp upstream)"
        )
    return math.log(nb / na) / (tb - ta)


def solve_k_birth(k_death: float, window: Window, pos: FitPosition) -> float:
    """Birth rate that makes the birth/death flow hit both anchors exactly."""
    _check_position(window, pos)
    return k_death + _bd_growth(window)


def _cr_steady(k_deg, window: Window):
    """Steady state ``k_exp / k_deg`` pinning the flow to both anchors.

    Vectorized over ``k_deg``; the denominator ``1 - exp(-k_deg * dt)`` goes
    through expm1 so small rates stay accurate.
    """
    (ta, xa), (tb, xb) = window.ordered_anchors()
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        decay = np.exp(-k_deg * (tb - ta))
        denom = -np.expm1(-k_deg * (tb - ta))
        steady = (xb - xa * decay) / denom
    if not np.all(np.isfinite(steady)):
        raise InvalidParameterError(
            "k_deg too small: the anchor decay denominator underflowed"
        )
    return steady


def solve_k_exp(k_deg: float, window: Window, pos: FitPosition) -> float:
    """Expression rate that makes the constant-regulation flow hit both anchors."""
    if k_deg <= 0:
        raise InvalidParameterError("k_deg must be positive")
    _check_position(window, pos)
    return float(k_deg * _cr_steady(k_deg, window))


def _spline_values(window: Window, kind: ModelKind, k1: np.ndarray, t: float):
    """Every anchored spline at time ``t``, as ``(k2, values)``; the flow is
    anchored at the earlier anchor and evaluated at a signed time offset."""
    (ta, va), _ = window.ordered_anchors()
    with np.errstate(over="ignore", under="ignore"):
        if kind is ModelKind.BIRTH_DEATH:
            growth = _bd_growth(window)
            k2 = k1 + growth
            values = va * np.exp(growth * (t - ta))
            values = np.broadcast_to(values, k1.shape).copy()
        else:
            steady = _cr_steady(k1, window)
            k2 = k1 * steady
            values = steady + (va - steady) * np.exp(-k1 * (t - ta))
    return k2, values


def fit_spline_posterior(
    window: Window,
    kind: ModelKind,
    pos: FitPosition,
    grid: ScanGrid = ScanGrid(),
    prior: np.ndarray | None = None,
) -> SplinePosterior:
    """Scan the free parameter and weight each anchored spline by the target.

    The weight of spline ``i`` is proportional to
    ``exp(-(p_i - mean)^2 / (2 * max(var, VARIANCE_FLOOR))) * prior_i``
    where ``(mean, var)`` is the target's Gaussian estimate and ``p_i`` the
    spline's prediction at the target time. Normalization shifts by the
    peak log-weight first, so only a posterior whose total mass is zero or
    non-finite (e.g. an all-zero prior) is degenerate.
    """
    _check_position(window, pos)
    k1 = grid.values(window.span())
    if prior is None:
        prior_arr = np.ones_like(k1)
    else:
        prior_arr = np.asarray(prior, dtype=float)
        if prior_arr.shape != k1.shape:
            raise InvalidParameterError("prior must match the scan grid length")
        if np.any(prior_arr < 0):
            raise InvalidParameterError("prior weights must be non-negative")

    t_target, target = window.target
    k2, predictions = _spline_values(window, kind, k1, t_target)
    if not np.all(np.isfinite(predictions)):
        raise DegeneratePosteriorError("spline predictions left the finite range")

    scale = 2.0 * max(target.variance, VARIANCE_FLOOR)
    losses = (predictions - target.mean) ** 2 / scale
    with np.errstate(divide="ignore"):
        log_weights = -losses + np.log(prior_arr)
    peak = float(np.max(log_weights))
    if not math.isfinite(peak):
        raise DegeneratePosteriorError("all spline weights vanished")
    raw = np.exp(log_weights - peak)
    weights = raw / raw.sum()
    # second pass removes residual rounding so the sum is exactly one
    weights = weights / weights.sum()
    return SplinePosterior(k1, k2, predictions, weights)


def uniform_posterior(
    window: Window, kind: ModelKind, pos: FitPosition, grid: ScanGrid = ScanGrid()
) -> SplinePosterior:
    """Posterior with uniform weights, the fallback for degenerate fits."""
    _check_position(window, pos)
    k1 = grid.values(window.span())
    k2, predictions = _spline_values(window, kind, k1, window.target[0])
    if not np.all(np.isfinite(predictions)):
        raise DegeneratePosteriorError("spline predictions left the finite range")
    weights = np.full_like(k1, 1.0 / len(k1))
    weights = weights / weights.sum()
    return SplinePosterior(k1, k2, predictions, weights)


def posterior_moments(posterior: SplinePosterior) -> ModelPrediction:
    """First two moments of the prediction under the posterior weights."""
    mean = float(np.sum(posterior.weights * posterior.predictions))
    variance = float(np.sum(posterior.weights * (posterior.predictions - mean) ** 2))
    return ModelPrediction(GaussianEstimate(mean, max(variance, VARIANCE_FLOOR)))


def _clamped_anchors(va: float, vb: float, kind: ModelKind) -> tuple[float, float]:
    if kind is ModelKind.BIRTH_DEATH:
        return max(va, POSITIVE_VALUE_FLOOR), max(vb, POSITIVE_VALUE_FLOOR)
    return va, vb


def window_at(grid, means, variances, index: int, kind: ModelKind):
    """Centered window for predicting ``index`` from a reference path.

    Interior points anchor their two neighbours and sit in the center; the
    first point is a left endpoint anchored at the next two points, and the
    last a right endpoint anchored at the two preceding it.
    """
    times = grid.times
    n = len(times)
    if index == 0:
        ia, ib, pos = 1, 2, FitPosition.LEFT_ENDPOINT
    elif index == n - 1:
        ia, ib, pos = n - 3, n - 2, FitPosition.RIGHT_ENDPOINT
    else:
        ia, ib, pos = index - 1, index + 1, FitPosition.CENTER
    target = GaussianEstimate(float(means[index]), float(variances[index]))
    va, vb = _clamped_anchors(float(means[ia]), float(means[ib]), kind)
    window = Window((float(times[ia]), va), (float(times[ib]), vb), (float(times[index]), target))
    return window, pos


def right_window(times, ref_means, z_means, z_vars, index: int, kind: ModelKind):
    """Right-endpoint window into ``index``: anchors at the two preceding
    reference points, target the data there."""
    target = GaussianEstimate(float(z_means[index]), float(z_vars[index]))
    va, vb = _clamped_anchors(float(ref_means[index - 2]), float(ref_means[index - 1]), kind)
    window = Window(
        (float(times[index - 2]), va), (float(times[index - 1]), vb), (float(times[index]), target)
    )
    return window, FitPosition.RIGHT_ENDPOINT


def fit_windows(kind, times, indices, make_window, scan=ScanGrid(), moments=True):
    """Scalar fits of the windows into ``indices``, one at a time and in order.

    ``make_window(index)`` returns ``(window, position)``. A degenerate
    posterior falls back to uniform weights with a logged warning; a fit
    whose predictions leave the finite range fails naming the timepoint.
    Returns the posteriors and, with ``moments``, their moments.
    """
    posteriors, estimates = [], []
    for index in indices:
        window, pos = make_window(index)
        try:
            try:
                posterior = fit_spline_posterior(window, kind, pos, scan)
            except DegeneratePosteriorError:
                logging.getLogger("pathkf.models").warning(
                    "degenerate spline posterior at t=%s; using uniform weights", times[index]
                )
                posterior = uniform_posterior(window, kind, pos, scan)
        except DegeneratePosteriorError as exc:
            raise DegeneratePosteriorError(
                f"model fit failed at timepoint {index} (t={times[index]}): {exc}"
            ) from exc
        posteriors.append(posterior)
        if moments:
            estimates.append(posterior_moments(posterior).estimate)
    return posteriors, estimates


def scalar_predict_path(kind, grid, means, variances, scan=ScanGrid()):
    """Reference for the path kernel: one scalar centered-window fit per timepoint."""
    _, estimates = fit_windows(
        kind, grid.times, range(len(grid)),
        lambda t: window_at(grid, means, variances, t, kind), scan,
    )
    return (
        np.array([e.mean for e in estimates]),
        np.array([e.variance for e in estimates]),
    )


def relaxation_step(posterior: SplinePosterior, delta: float) -> tuple[float, float]:
    """Steady state and decay of the constant-regulation step at the
    posterior argmax, over a step of length ``delta``."""
    best = int(np.argmax(posterior.weights))
    k_deg = float(posterior.k1_grid[best])
    steady = float(posterior.k2_values[best]) / k_deg
    return steady, math.exp(-k_deg * delta)


def q_ratio_groups(entries) -> tuple[dict, list[tuple]]:
    """Reference for the ratio summary's groups: the mean log ratio of each
    label, and ``(decile, low, high, count, label means)`` of each bin of
    the mean data variance between ``np.percentile``'s decile edges, from
    one list scan per bin and per label."""
    labels = sorted({e.label for e in entries})
    label_means = {
        lab: float(np.mean([e.log_ratio for e in entries if e.label == lab])) for lab in labels
    }
    variances = np.array([e.mean_data_variance for e in entries])
    edges = np.percentile(variances, np.linspace(0.0, 100.0, 11))
    bins = []
    for d in range(10):
        lo, hi = edges[d], edges[d + 1]
        if d < 9:
            in_bin = [e for e, v in zip(entries, variances) if lo <= v < hi]
        else:
            in_bin = [e for e, v in zip(entries, variances) if lo <= v <= hi]
        bin_label_means = {
            lab: float(np.mean([e.log_ratio for e in in_bin if e.label == lab]))
            for lab in labels
            if any(e.label == lab for e in in_bin)
        }
        bins.append((d, float(lo), float(hi), len(in_bin), bin_label_means))
    return label_means, bins
