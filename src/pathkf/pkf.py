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
    PathkfError,
    TimeGrid,
    TimeSeriesData,
    Trajectory,
    _check_iterations,
    _setstate_readonly,
)
from .models import ModelKind, SplinePathModel

#: Default number of pathspace iterations.
DEFAULT_ITERATIONS = 10


class RegimeLabel(enum.Enum):
    """Quadrant of (process uncertainty, data variance)."""

    ACCURATE_MODEL_RELIABLE_DATA = "accurate-model-reliable-data"
    INACCURATE_MODEL_RELIABLE_DATA = "inaccurate-model-reliable-data"
    ACCURATE_MODEL_NOISY_DATA = "accurate-model-noisy-data"
    INACCURATE_MODEL_NOISY_DATA = "inaccurate-model-noisy-data"


_FLOAT_MAX = float(np.finfo(float).max)

_PRODUCTS_OVERFLOWED = "the weight products overflowed"


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


def _weights(a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """The weights of :func:`pkf_weights`, unchecked, as one ``(3, ...)``
    array, and their denominator. An infinite denominator makes a weight NaN
    or all three zero; a finite one gives weights on the simplex."""
    ab, bc, ca = a * b, b * c, c * a
    denom = ab + bc + ca
    zero = denom == 0.0
    weights = np.array((ab, ca, bc)) / np.where(zero, 1.0, denom)
    return np.where(zero, 1.0 / 3.0, weights), denom


def _first(mask: np.ndarray) -> tuple[int, ...]:
    """The row-major index of the first true entry of ``mask``."""
    return tuple(int(i) for i in np.unravel_index(np.argmax(mask), mask.shape))


def pkf_weights(v_filter_prev, v_model_plus_q, v_data) -> PkfWeights:
    """Closed-form variance-minimizing weights, elementwise.

    With ``A`` the previous filter variance, ``B`` the model variance plus
    process uncertainty, and ``C`` the data variance, the minimizer of
    ``w^2 C + wm^2 B + wf^2 A`` on the simplex is
    ``w = AB / (AB + BC + CA)`` and cyclic. A zero denominator (all three
    products vanish) yields the uniform split. The inputs are scalars or
    arrays of one shape, every entry finite and non-negative. Where a
    product or the denominator overflows (variances near 1e154 and up),
    :class:`NumericalOverflowError` names the first such entry.
    """
    a, b, c = _rows_within(
        (v_filter_prev, v_model_plus_q, v_data),
        ("v_filter_prev", "v_model_plus_q", "v_data"),
        _FLOAT_MAX,
        "must be finite and non-negative",
    )
    weights, denom = _weights(a, b, c)
    overflow = np.isinf(denom)
    if overflow.any():
        index = _first(overflow)
        where = f" at [{', '.join(map(str, index))}]" if index else ""
        raise NumericalOverflowError(f"{_PRODUCTS_OVERFLOWED}{where}")
    return PkfWeights(*weights)


def _updated_q(q_prev, gain, loss):
    """The update of :func:`update_process_uncertainty`, unchecked. The gain
    is capped at 1, which the sum of two weights can pass by one rounding:
    with a gain in [0, 1], non-negative ``q_prev`` and ``loss`` give a
    non-negative Q under round-to-nearest."""
    return q_prev + np.minimum(gain, 1.0) * (loss - q_prev)


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
    return _updated_q(q_prev, gain, loss)


def _iterate(predictor, series, grid, z_means, z_vars, iterations: int):
    """The filter iterations on the stacked summaries of ``series``, which
    have one length: ``(n,)`` arrays for one series, ``(S, n)`` for a block,
    one series per row. ``grid`` is what ``predictor.predict_path`` gets: the
    rows' one :class:`TimeGrid`, or the ``(S, n)`` array of their own times.
    Every step is elementwise or reduces along the last axis, so each row is
    bitwise equal to running its series alone.

    The loop calls the unchecked kernels of :func:`pkf_weights` and
    :func:`update_process_uncertainty`: their inputs are finite and
    non-negative by construction, except the model moments, which a fit
    that overflowed leaves non-finite and a custom predictor may return
    negative. One test per iteration finds a non-finite model prediction, a
    negative model variance, an overflowed weight denominator or a
    non-finite update. A row that fails is dropped with the error its lone
    run raises: its first failing check in that order, at its first failing
    timepoint, naming the series, the timepoint and the iteration. The
    other rows run on in the same pass.

    Returns ``(rows, steps, max_abs_dq, max_filter_variance, errors)``:
    ``rows`` indexes the series that ran every iteration; ``steps`` holds
    ``(iteration, means, variances, q, weights)`` of those rows after every
    iteration, ``weights`` the ``(3, ...)`` array of :func:`_weights`, and
    each trace one per-row array per iteration; ``errors`` maps each dropped
    series' index to its error, in the order the loop met them: by
    iteration, then check, then row.
    """
    _check_iterations(iterations)
    rows = np.arange(len(series))
    errors: dict[int, PathkfError] = {}
    steps: list[tuple] = []
    trace_dq: list[np.ndarray] = []
    trace_vmax: list[np.ndarray] = []
    f_means, f_vars, q = z_means, z_vars, z_vars
    # every overflow below is checked and recorded typed; numpy's warnings
    # would only repeat it on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, iterations + 1):
            m_means, m_vars = predictor.predict_path(grid, f_means, f_vars)
            b = m_vars + q
            weights, denom = _weights(f_vars, b, z_vars)
            w, wm, wf = weights
            new_means = w * z_means + wm * m_means + wf * f_means
            new_vars = w**2 * z_vars + wm**2 * b + wf**2 * f_vars
            new_q = _updated_q(q, w + wm, (m_means - z_means) ** 2)

            dq = np.abs(new_q - q).max(axis=-1)
            vmax = new_vars.max(axis=-1)
            # with b >= 0 the new variances are non-negative, so vmax is finite
            # exactly when every new variance of its row is, and dq when every
            # new Q is; a sum is finite only if every term is
            total = (dq + vmax).sum() + new_means.sum() + denom.sum()
            if not (b.min() >= 0.0 and math.isfinite(total)):  # NaN fails too
                # each row's first failing check, in a fixed order: the model's
                # moments, the model variances, the weights, the update; if
                # none fails, only the sum overflowed
                dropped = np.zeros(len(rows), dtype=bool)
                for error, bad, problem in (
                    (NumericalOverflowError, ~(np.isfinite(m_means) & np.isfinite(m_vars)),
                     "the model prediction left the finite range"),
                    (InvalidParameterError, b < 0.0, "the model variance is negative"),
                    (NumericalOverflowError, np.isinf(denom), _PRODUCTS_OVERFLOWED),
                    (NumericalOverflowError,
                     ~(np.isfinite(new_q) & np.isfinite(new_means) & np.isfinite(new_vars)),
                     "the filter update left the finite range"),
                ):
                    bad = bad.reshape(len(rows), -1)
                    failing = bad.any(axis=-1) & ~dropped
                    for row in np.flatnonzero(failing):
                        where = series[rows[row]]._where(int(np.argmax(bad[row])))
                        errors[int(rows[row])] = error(f"{where}: {problem} at iteration {i}")
                    dropped |= failing
                if dropped.all():
                    return rows[:0], [], [], [], errors
                if dropped.any():  # a block: keep the other rows, and their past
                    keep = ~dropped
                    rows, z_means, z_vars = rows[keep], z_means[keep], z_vars[keep]
                    if not isinstance(grid, TimeGrid):  # per-row times leave with their rows
                        grid = grid[keep]
                    new_means, new_vars, new_q = new_means[keep], new_vars[keep], new_q[keep]
                    weights, dq, vmax = weights[:, keep], dq[keep], vmax[keep]
                    steps = [(j, m[keep], v[keep], s[keep], u[:, keep]) for j, m, v, s, u in steps]
                    trace_dq = [d[keep] for d in trace_dq]
                    trace_vmax = [v[keep] for v in trace_vmax]
            trace_dq.append(dq)
            trace_vmax.append(vmax)

            f_means, f_vars, q = new_means, new_vars, new_q
            steps.append((i, f_means, f_vars, q, weights))
    return rows, steps, trace_dq, trace_vmax, errors


def _results(predictor, series, grid, z_means, z_vars, iterations, retain_history):
    """The outcomes of :func:`_iterate`, one per row: its result, on its own
    series' grid, or the error that dropped it; and the errors in the order
    the loop met them. A lone ``(n,)`` series is the one row ``...``, so
    every index below leaves its arrays whole."""
    rows, steps, trace_dq, trace_vmax, errors = _iterate(
        predictor, series, grid, z_means, z_vars, iterations
    )
    trace_dq, trace_vmax = np.array(trace_dq), np.array(trace_vmax)
    kept = steps if retain_history else steps[-1:]
    outcomes: list[PkfResult | PathkfError] = [errors.get(row) for row in range(len(series))]
    for row, at in zip(rows, range(len(rows)) if z_means.ndim == 2 else [...]):
        states = tuple(
            PkfState(i, Trajectory(series[row].grid, means[at], variances[at]), q[at],
                     PkfWeights(*weights[:, at]))
            for i, means, variances, q, weights in kept
        )
        history = states if retain_history else None
        outcomes[row] = PkfResult(states[-1], history, trace_dq[:, at], trace_vmax[:, at])
    return outcomes, list(errors.values())


def run_pkf(
    data: TimeSeriesData,
    model=ModelKind.BIRTH_DEATH,
    iterations: int = DEFAULT_ITERATIONS,
    retain_history: bool = False,
) -> PkfResult:
    """Run the pathspace filter for a fixed number of iterations.

    ``model`` is a :class:`~pathkf.models.ModelKind` (resolved to the spline
    predictor) or any object with a
    ``predict_path(grid, means, variances) -> (means, variances)`` method;
    it receives the ``(n,)`` path of this series. Anything else, a string
    such as ``"birth-death"`` included, raises :class:`InvalidParameterError`.

    Iteration zero initializes the path and the process uncertainty from
    the per-timepoint data summaries. Each subsequent iteration fits the
    model to the previous path, combines data/model/path with the
    closed-form weights, and updates the process uncertainty.
    """
    predictor = SplinePathModel(model) if isinstance(model, ModelKind) else model
    if not hasattr(predictor, "predict_path"):
        raise InvalidParameterError(
            f"model must be a ModelKind or have predict_path, got {model!r}"
        )
    z_means, z_vars = data.summaries()
    [result], errors = _results(
        predictor, (data,), data.grid, z_means, z_vars, iterations, retain_history
    )
    if errors:
        raise errors[0]
    return result


def _block_outcomes(
    series: tuple[TimeSeriesData, ...], kind: ModelKind, iterations: int, retain_history: bool
) -> tuple[list[PkfResult | PathkfError], list[PathkfError]]:
    """The outcomes of :func:`_results` for series of one length, run as one
    ``(S, n)`` block: on their one grid where every row's times are equal bit
    for bit, else on the ``(S, n)`` array of each row's own times. A block
    that is empty or mixes lengths is an error of the block, raised."""
    if not series:
        raise InvalidDataError("a block needs at least one series")
    grid = series[0].grid
    if any(len(data.grid) != len(grid) for data in series):
        raise InvalidDataError("the series of a block must have one number of timepoints")
    if any(data.grid.times.tobytes() != grid.times.tobytes() for data in series):
        grid = np.stack([data.grid.times for data in series])
    z_means = np.stack([data.summaries()[0] for data in series])
    z_vars = np.stack([data.summaries()[1] for data in series])
    return _results(
        SplinePathModel(kind), series, grid, z_means, z_vars, iterations, retain_history
    )


def run_pkf_block(
    series: tuple[TimeSeriesData, ...],
    kind: ModelKind = ModelKind.BIRTH_DEATH,
    iterations: int = DEFAULT_ITERATIONS,
    retain_history: bool = False,
) -> list[PkfResult]:
    """Run the pathspace filter on several series of one length, as one
    ``(S, n)`` block through the loop of :func:`run_pkf`: on their one grid
    where they share it, else with each row on its own times.

    Each result is bitwise equal to ``run_pkf(data, kind, iterations,
    retain_history)`` on its series alone. If any series fails, the block
    raises the first error the stacked loop records: the earliest
    iteration, then the first check in the loop's order, then the first
    row. ``bench.run_spec`` gives each series its own outcome instead.
    """
    results, errors = _block_outcomes(series, kind, iterations, retain_history)
    if errors:
        raise errors[0]
    return results


def _check_grid(result: PkfResult, data: TimeSeriesData) -> None:
    """Reject a result whose grid is not the grid of ``data``, naming the series."""
    if not np.array_equal(result.final.filter.grid.times, data.grid.times):
        raise InvalidDataError(f"series {data.series_id!r}: the result and series grids differ")


def classify_regimes(result: PkfResult, data: TimeSeriesData) -> tuple[RegimeLabel, ...]:
    """Per-timepoint regime labels, thresholded at the series' medians of Q
    and V(Z), each at least ``VARIANCE_FLOOR``; a value at its threshold
    classifies as high. ``result`` must be a run on the grid of ``data``."""
    _check_grid(result, data)
    _, z_vars = data.summaries()
    q = result.final.process_uncertainty
    high_q = q >= max(float(np.median(q)), VARIANCE_FLOOR)
    high_v = z_vars >= max(float(np.median(z_vars)), VARIANCE_FLOOR)
    labels = np.select(
        [high_q & high_v, high_q, high_v],
        [
            RegimeLabel.INACCURATE_MODEL_NOISY_DATA,
            RegimeLabel.INACCURATE_MODEL_RELIABLE_DATA,
            RegimeLabel.ACCURATE_MODEL_NOISY_DATA,
        ],
        RegimeLabel.ACCURATE_MODEL_RELIABLE_DATA,
    )
    return tuple(labels)
