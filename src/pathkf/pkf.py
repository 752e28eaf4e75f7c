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
    InvalidDataError,
    InvalidParameterError,
    NumericalOverflowError,
    TimeSeriesData,
    Trajectory,
    _setstate_readonly,
)
from .models import ModelKind, ScanGrid, SplinePathModel

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


_FLOAT_MAX = float(np.finfo(float).max)


def _rows_within(values, names: tuple[str, ...], high: float, problem: str) -> np.ndarray:
    """``values`` stacked into one float array with a row per name.

    Every entry must lie in ``[0, high]``; the error names the first entry
    outside, in the order of ``names`` and then of index, and says
    ``problem``.
    """
    try:
        rows = np.array(values, dtype=float)
    except ValueError as exc:
        if len({np.shape(v) for v in values}) > 1:
            raise InvalidParameterError(f"{', '.join(names)} must share one shape") from exc
        raise
    inside = (rows >= 0.0) & (rows <= high)  # NaN is outside
    if np.count_nonzero(inside) < inside.size:
        row, *index = np.unravel_index(np.argmin(inside), inside.shape)
        where = f"[{', '.join(map(str, index))}]" if index else ""
        raise InvalidParameterError(f"{names[row]}{where}={rows[(row, *index)]} {problem}")
    return rows


@dataclass(frozen=True, eq=False)
class PkfWeights:
    """Convex weights on data, model, and previous filter path.

    Each field is a read-only float array holding one weight per timepoint
    (0-d for a single timepoint).
    """

    w_data: np.ndarray
    w_model: np.ndarray
    w_filter: np.ndarray

    def __post_init__(self):
        w = _rows_within(
            (self.w_data, self.w_model, self.w_filter),
            ("w_data", "w_model", "w_filter"),
            1.0,
            "outside [0, 1]",
        )
        if np.count_nonzero(np.abs(w.sum(axis=0) - 1.0) > 1e-12):
            raise InvalidParameterError("weights must sum to one")
        w.setflags(write=False)
        object.__setattr__(self, "w_data", w[0])
        object.__setattr__(self, "w_model", w[1])
        object.__setattr__(self, "w_filter", w[2])

    __setstate__ = _setstate_readonly


@dataclass(frozen=True, eq=False)
class PkfState:
    """Filter path, process uncertainty, and weights after one iteration."""

    iteration: int
    filter: Trajectory
    process_uncertainty: np.ndarray
    weights: PkfWeights

    def __post_init__(self):
        q = np.asarray(self.process_uncertainty, dtype=float).copy()
        n = len(self.filter.grid)
        if q.shape != (n,) or self.weights.w_data.shape != (n,):
            raise InvalidDataError("state arrays must match the grid length")
        if np.any(q < 0) or not np.all(np.isfinite(q)):
            raise InvalidDataError("process uncertainty must be finite and non-negative")
        q.setflags(write=False)
        object.__setattr__(self, "process_uncertainty", q)

    __setstate__ = _setstate_readonly


@dataclass(frozen=True, eq=False)
class PkfResult:
    """Final state, optional per-iteration history, and convergence trace.

    ``max_abs_dq[i]`` and ``max_filter_variance[i]`` describe iteration
    ``i + 1``; both traces are read-only float arrays.
    """

    final: PkfState
    history: tuple[PkfState, ...] | None
    max_abs_dq: np.ndarray
    max_filter_variance: np.ndarray

    def __post_init__(self):
        for name in ("max_abs_dq", "max_filter_variance"):
            trace = np.array(getattr(self, name), dtype=float)
            trace.setflags(write=False)
            object.__setattr__(self, name, trace)

    __setstate__ = _setstate_readonly


def pkf_weights(v_filter_prev, v_model_plus_q, v_data) -> PkfWeights:
    """Closed-form variance-minimizing weights, elementwise.

    With ``A`` the previous filter variance, ``B`` the model variance plus
    process uncertainty, and ``C`` the data variance, the minimizer of
    ``w^2 C + wm^2 B + wf^2 A`` on the simplex is
    ``w = AB / (AB + BC + CA)`` and cyclic. A zero denominator (all three
    products vanish) yields the uniform split. The inputs are scalars or
    arrays of one shape, every entry finite and non-negative.
    """
    a, b, c = _rows_within(
        (v_filter_prev, v_model_plus_q, v_data),
        ("v_filter_prev", "v_model_plus_q", "v_data"),
        _FLOAT_MAX,
        "must be finite and non-negative",
    )
    ab, bc, ca = a * b, b * c, c * a
    denom = ab + bc + ca
    zero = denom == 0.0
    weights = np.array((ab, ca, bc)) / np.where(zero, 1.0, denom)
    return PkfWeights(*np.where(zero, 1.0 / 3.0, weights))


def update_process_uncertainty(q_prev, w_data, w_model, loss):
    """Move the process uncertainty toward the model/data loss, elementwise.

    The gain on the update is ``w_data + w_model``, the total weight placed
    on sources other than the previous filter path. NaN entries pass the
    range checks.
    """
    q_prev = np.asarray(q_prev, dtype=float)
    loss = np.asarray(loss, dtype=float)
    gain = np.asarray(w_data, dtype=float) + w_model
    if np.count_nonzero((gain < 0.0) | (gain > 1.0 + 1e-12)):
        raise InvalidParameterError("w_data + w_model must lie in [0, 1]")
    if np.count_nonzero((q_prev < 0.0) | (loss < 0.0)):
        raise InvalidParameterError("q_prev and loss must be non-negative")
    return q_prev + gain * (loss - q_prev)


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

    f_means, f_vars, q = z_means, z_vars, z_vars

    for i in range(1, iterations + 1):
        m_means, m_vars = predictor.predict_path(grid, f_means, f_vars)
        b = m_vars + q
        weights = pkf_weights(f_vars, b, z_vars)
        w, wm, wf = weights.w_data, weights.w_model, weights.w_filter
        new_means = w * z_means + wm * m_means + wf * f_means
        new_vars = w**2 * z_vars + wm**2 * b + wf**2 * f_vars
        new_q = update_process_uncertainty(q, w, wm, (m_means - z_means) ** 2)

        dq = float(np.abs(new_q - q).max())
        vmax = float(new_vars.max())
        # q and the variances are finite and non-negative, so dq and vmax are
        # finite exactly when every new Q and variance is
        if not (math.isfinite(dq) and math.isfinite(vmax) and np.isfinite(new_means).all()):
            bad = ~(np.isfinite(new_q) & np.isfinite(new_means) & np.isfinite(new_vars))
            raise NumericalOverflowError(
                f"{data._where(int(np.argmax(bad)))}: the filter update left the "
                f"finite range at iteration {i}"
            )
        trace_dq.append(dq)
        trace_vmax.append(vmax)

        f_means, f_vars, q = new_means, new_vars, new_q
        if retain_history:
            history.append(PkfState(i, Trajectory(grid, f_means, f_vars), q, weights))
        if early_stop and dq / (float(np.max(q)) + VARIANCE_FLOOR) < EARLY_STOP_RTOL:
            break

    if retain_history:
        final = history[-1]
    else:
        final = PkfState(i, Trajectory(grid, f_means, f_vars), q, weights)
    return PkfResult(
        final=final,
        history=tuple(history) if retain_history else None,
        max_abs_dq=trace_dq,
        max_filter_variance=trace_vmax,
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
