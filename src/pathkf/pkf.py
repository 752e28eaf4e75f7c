"""The pathspace Kalman filter.

The filter ingests an entire measurement trajectory and repeatedly feeds its
own output path back into itself. Each iteration combines, at every
timepoint, three Gaussians: the data summary, the internal model's
prediction from the previous path, and the previous path itself. The
combination weights minimize the filter variance in closed form, and a
per-timepoint process uncertainty tracks the model/data discrepancy,
spiking where the data-generating process deviates from the model.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    VARIANCE_FLOOR,
    GaussianEstimate,
    InvalidDataError,
    InvalidParameterError,
    TimeSeriesData,
    Trajectory,
)
from .models import ModelKind, ModelPrediction, ScanGrid, SplinePathModel

#: Default number of pathspace iterations.
DEFAULT_ITERATIONS = 10

#: Relative process-uncertainty change below which early stopping may halt.
EARLY_STOP_RTOL = 1e-6


class RegimeLabel(enum.Enum):
    """Quadrant of (process uncertainty, data variance)."""

    ACCURATE_MODEL_RELIABLE_DATA = "accurate-model-reliable-data"
    INACCURATE_MODEL_RELIABLE_DATA = "inaccurate-model-reliable-data"
    ACCURATE_MODEL_NOISY_DATA = "accurate-model-noisy-data"
    INACCURATE_MODEL_NOISY_DATA = "inaccurate-model-noisy-data"


@dataclass(frozen=True)
class PkfWeights:
    """Convex weights on data, model, and previous filter path."""

    w_data: float
    w_model: float
    w_filter: float

    def __post_init__(self):
        for name in ("w_data", "w_model", "w_filter"):
            w = getattr(self, name)
            if not math.isfinite(w) or w < 0.0 or w > 1.0:
                raise InvalidParameterError(f"{name}={w} outside [0, 1]")
        if abs(self.w_data + self.w_model + self.w_filter - 1.0) > 1e-12:
            raise InvalidParameterError("weights must sum to one")


@dataclass(frozen=True, eq=False)
class PkfState:
    """Filter path, process uncertainty, and weights after one iteration."""

    iteration: int
    filter: Trajectory
    process_uncertainty: np.ndarray
    weights: tuple[PkfWeights, ...]

    def __post_init__(self):
        q = np.asarray(self.process_uncertainty, dtype=float).copy()
        n = len(self.filter.grid)
        if len(q) != n or len(self.weights) != n:
            raise InvalidDataError("state arrays must match the grid length")
        if np.any(q < 0) or not np.all(np.isfinite(q)):
            raise InvalidDataError("process uncertainty must be finite and non-negative")
        q.setflags(write=False)
        object.__setattr__(self, "process_uncertainty", q)


@dataclass(frozen=True, eq=False)
class PkfResult:
    """Final state, optional per-iteration history, and convergence trace.

    ``max_abs_dq[i]`` and ``max_filter_variance[i]`` describe iteration
    ``i + 1``.
    """

    final: PkfState
    history: tuple[PkfState, ...] | None
    max_abs_dq: np.ndarray
    max_filter_variance: np.ndarray


def pkf_weights(
    v_filter_prev: float, v_model_plus_q: float, v_data: float
) -> PkfWeights:
    """Closed-form variance-minimizing weights.

    With ``A`` the previous filter variance, ``B`` the model variance plus
    process uncertainty, and ``C`` the data variance, the minimizer of
    ``w^2 C + wm^2 B + wf^2 A`` on the simplex is
    ``w = AB / (AB + BC + CA)`` and cyclic. A zero denominator (all three
    products vanish) yields the uniform split.
    """
    a, b, c = v_filter_prev, v_model_plus_q, v_data
    for name, v in (("v_filter_prev", a), ("v_model_plus_q", b), ("v_data", c)):
        if not math.isfinite(v) or v < 0:
            raise InvalidParameterError(f"{name}={v} must be finite and non-negative")
    denom = a * b + b * c + c * a
    if denom == 0.0:
        return PkfWeights(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    return PkfWeights(a * b / denom, a * c / denom, b * c / denom)


def _pkf_weight_arrays(a, b, c):
    """Vectorized closed-form weights with the uniform fallback."""
    denom = a * b + b * c + c * a
    safe = np.where(denom > 0.0, denom, 1.0)
    w = np.where(denom > 0.0, a * b / safe, 1.0 / 3.0)
    wm = np.where(denom > 0.0, a * c / safe, 1.0 / 3.0)
    wf = np.where(denom > 0.0, b * c / safe, 1.0 / 3.0)
    return w, wm, wf


def update_process_uncertainty(
    q_prev: float, w_data: float, w_model: float, loss: float
) -> float:
    """Move the process uncertainty toward the model/data loss.

    The gain on the update is ``w_data + w_model``, the total weight placed
    on sources other than the previous filter path.
    """
    gain = w_data + w_model
    if gain < 0.0 or gain > 1.0 + 1e-12:
        raise InvalidParameterError("w_data + w_model must lie in [0, 1]")
    if q_prev < 0.0 or loss < 0.0:
        raise InvalidParameterError("q_prev and loss must be non-negative")
    return q_prev + gain * (loss - q_prev)


def pkf_step(
    t: int,
    prev_state: PkfState,
    data: GaussianEstimate,
    model: ModelPrediction,
) -> tuple[GaussianEstimate, PkfWeights, float]:
    """One filter update at timepoint ``t``.

    Returns the new filter estimate, the weights used, and the updated
    process uncertainty. The loss driving the uncertainty update is the
    squared difference of model and data means.
    """
    a = float(prev_state.filter.variances[t])
    q_prev = float(prev_state.process_uncertainty[t])
    b = model.estimate.variance + q_prev
    c = data.variance
    weights = pkf_weights(a, b, c)
    mean = (
        weights.w_data * data.mean
        + weights.w_model * model.estimate.mean
        + weights.w_filter * float(prev_state.filter.means[t])
    )
    variance = (
        weights.w_data**2 * c + weights.w_model**2 * b + weights.w_filter**2 * a
    )
    loss = (model.estimate.mean - data.mean) ** 2
    q_new = update_process_uncertainty(q_prev, weights.w_data, weights.w_model, loss)
    return GaussianEstimate(mean, variance), weights, q_new


def _pkf_state(iteration, grid, f_means, f_vars, q, w, wm, wf) -> PkfState:
    """The validated state of one iteration, built only for kept iterations."""
    weights = tuple(
        PkfWeights(float(wi), float(wmi), float(max(wfi, 0.0)))
        for wi, wmi, wfi in zip(w, wm, wf)
    )
    return PkfState(iteration, Trajectory(grid, f_means, f_vars), q, weights)


def run_pkf(
    data: TimeSeriesData,
    model=ModelKind.BIRTH_DEATH,
    iterations: int = DEFAULT_ITERATIONS,
    retain_history: bool = False,
    early_stop: bool = False,
    scan: ScanGrid = ScanGrid(),
) -> PkfResult:
    """Run the pathspace filter for a fixed number of iterations.

    ``model`` is a :class:`~pathkf.models.ModelKind` (resolved to the spline
    predictor) or any object with a
    ``predict_path(grid, means, variances) -> (means, variances)`` method.

    Iteration zero initializes the path and the process uncertainty from
    the per-timepoint data summaries. Each subsequent iteration fits the
    model to the previous path, combines data/model/path with the
    closed-form weights, and updates the process uncertainty. With
    ``early_stop`` the loop halts once the relative change of the process
    uncertainty drops below ``EARLY_STOP_RTOL``; retained results for
    completed iterations are unaffected.
    """
    if iterations < 1:
        raise InvalidParameterError("iterations must be at least 1")
    predictor = SplinePathModel(model, scan) if isinstance(model, ModelKind) else model

    grid = data.grid
    z_means, z_vars = data.summaries()

    history: list[PkfState] = []
    trace_dq: list[float] = []
    trace_vmax: list[float] = []

    f_means = z_means.copy()
    f_vars = z_vars.copy()
    q = z_vars.copy()

    for i in range(1, iterations + 1):
        m_means, m_vars = predictor.predict_path(grid, f_means, f_vars)
        b = m_vars + q
        w, wm, wf = _pkf_weight_arrays(f_vars, b, z_vars)
        new_means = w * z_means + wm * m_means + wf * f_means
        new_vars = w**2 * z_vars + wm**2 * b + wf**2 * f_vars
        loss = (m_means - z_means) ** 2
        new_q = q + (w + wm) * (loss - q)

        dq = float(np.max(np.abs(new_q - q)))
        trace_dq.append(dq)
        trace_vmax.append(float(np.max(new_vars)))

        f_means, f_vars, q = new_means, new_vars, new_q
        if retain_history:
            history.append(_pkf_state(i, grid, f_means, f_vars, q, w, wm, wf))
        if early_stop and dq / (float(np.max(q)) + VARIANCE_FLOOR) < EARLY_STOP_RTOL:
            break

    if retain_history:
        final = history[-1]
    else:
        final = _pkf_state(i, grid, f_means, f_vars, q, w, wm, wf)
    return PkfResult(
        final=final,
        history=tuple(history) if retain_history else None,
        max_abs_dq=np.asarray(trace_dq),
        max_filter_variance=np.asarray(trace_vmax),
    )


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


def classify_regimes(
    result: PkfResult,
    data: TimeSeriesData,
    q_threshold: float | None = None,
    v_threshold: float | None = None,
) -> tuple[RegimeLabel, ...]:
    """Per-timepoint regime labels, defaulting thresholds to series medians."""
    _, z_vars = data.summaries()
    q = result.final.process_uncertainty
    q_thr = q_threshold if q_threshold is not None else float(np.median(q))
    v_thr = v_threshold if v_threshold is not None else float(np.median(z_vars))
    q_thr = max(q_thr, VARIANCE_FLOOR)
    v_thr = max(v_thr, VARIANCE_FLOOR)
    return tuple(
        classify_regime(float(qi), float(vi), q_thr, v_thr)
        for qi, vi in zip(q, z_vars)
    )
