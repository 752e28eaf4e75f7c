"""Internal models: one-parameter families of exact ODE solutions.

A model fit happens on a window of three points. Two of them (the anchors)
pin the solution family exactly: for each scanned value of the free
parameter ``k1`` the second parameter ``k2`` is solved in closed form so
that the flow passes through both anchors. The third point (the target)
carries a mean and variance and scores each family member, producing a
discrete posterior over predictions at the target time. Its first two
moments are what the filters consume.

Two model kinds are supported:

* birth/death population growth, ``dN/dt = (k_birth - k_death) * N``
  with flow ``N(t0) * exp((k_birth - k_death) * dt)``;
* constant-regulation gene expression, ``dX/dt = k_exp - k_deg * X``
  with flow ``k_exp/k_deg + (X(t0) - k_exp/k_deg) * exp(-k_deg * dt)``.
"""

from __future__ import annotations

import enum
import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    VARIANCE_FLOOR,
    DegeneratePosteriorError,
    GaussianEstimate,
    InvalidDataError,
    InvalidParameterError,
    NumericalOverflowError,
    TimeGrid,
)

logger = logging.getLogger(__name__)

#: Positive floor applied to population values before log-ratio fits;
#: Gaussian measurement noise can push samples of a positive population
#: below zero.
POSITIVE_VALUE_FLOOR = 1e-6


class ModelKind(enum.Enum):
    """Which two-parameter ODE family supplies the splines."""

    BIRTH_DEATH = "birth-death"
    CONSTANT_REGULATION = "const-reg"


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


@dataclass(frozen=True)
class ScanGrid:
    """Configuration of the free-parameter scan.

    ``k_max=None`` resolves to ``10 / span`` of the window being fit:
    rates beyond roughly ten e-foldings per window are indistinguishable
    from discontinuities at the window's resolution.
    """

    num: int = 200
    k_min: float = 1e-4
    k_max: float | None = None

    def __post_init__(self):
        if self.num < 1:
            raise InvalidParameterError("scan grid needs at least one point")
        if self.k_min <= 0:
            raise InvalidParameterError("k_min must be positive")
        if self.k_max is not None and self.k_max <= self.k_min:
            raise InvalidParameterError("k_max must exceed k_min")

    def values(self, window_span) -> np.ndarray:
        """Scan values for one window span, or one row per span of an array.

        Rows are C-contiguous, so row reductions sum in the same order as
        for a single span.
        """
        span = np.asarray(window_span, dtype=float)
        k_max = np.full_like(span, self.k_max) if self.k_max is not None else 10.0 / span
        k_max = np.maximum(k_max, self.k_min * (1.0 + 1e-9))
        return np.ascontiguousarray(np.geomspace(self.k_min, k_max, self.num, axis=-1))


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
            arr = np.asarray(getattr(self, name), dtype=float)
            arr = arr.copy()
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


def flow_birth_death(n0: float, k_birth: float, k_death: float, dt: float) -> float:
    """Exact birth/death flow ``n0 * exp((k_birth - k_death) * dt)``."""
    if not all(math.isfinite(v) for v in (n0, k_birth, k_death, dt)):
        raise InvalidDataError("flow inputs must be finite")
    if n0 <= 0:
        raise InvalidDataError("population must be positive")
    try:
        result = n0 * math.exp((k_birth - k_death) * dt)
    except OverflowError:
        result = math.inf
    if not math.isfinite(result):
        raise NumericalOverflowError(
            f"birth-death flow overflowed (n0={n0}, growth={k_birth - k_death}, dt={dt})"
        )
    return result


def flow_const_reg(x0: float, k_exp: float, k_deg: float, dt: float) -> float:
    """Exact constant-regulation flow, decaying toward ``k_exp / k_deg``."""
    if k_deg <= 0:
        raise InvalidParameterError("k_deg must be positive")
    steady = k_exp / k_deg
    try:
        result = steady + (x0 - steady) * math.exp(-k_deg * dt)
    except OverflowError:
        result = math.inf
    if not math.isfinite(result):
        raise NumericalOverflowError(
            f"constant-regulation flow overflowed (x0={x0}, k_deg={k_deg}, dt={dt})"
        )
    return result


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


def _cr_anchor_decay(k_deg, dt):
    """``exp(-k_deg * dt)`` and ``1 - exp(-k_deg * dt)``, the second via expm1
    so small rates stay accurate."""
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(-k_deg * dt), -np.expm1(-k_deg * dt)


def _cr_steady(k_deg, window: Window):
    """Steady state ``k_exp / k_deg`` pinning the flow to both anchors.

    Vectorized over ``k_deg``.
    """
    (ta, xa), (tb, xb) = window.ordered_anchors()
    decay, denom = _cr_anchor_decay(k_deg, tb - ta)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
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
    """Evaluate every anchored spline at time ``t``.

    Returns ``(k2, values)``. The flow is anchored at the earlier anchor and
    evaluated with a signed time offset, so targets before, between, or
    after the anchors are all handled by the same closed form.
    """
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


def window_at(
    grid: TimeGrid,
    means: np.ndarray,
    variances: np.ndarray,
    index: int,
    kind: ModelKind,
) -> tuple[Window, FitPosition]:
    """Three-point window for predicting ``index`` from a reference path.

    Interior points anchor their two neighbours and sit in the center;
    the first point is a left endpoint anchored at the next two points, and
    the last a right endpoint anchored at the two preceding it. Birth-death
    anchors are clamped positive before the log-ratio fit.
    """
    times = grid.times
    n = len(times)
    if index == 0:
        ia, ib, pos = 1, 2, FitPosition.LEFT_ENDPOINT
    elif index == n - 1:
        ia, ib, pos = n - 3, n - 2, FitPosition.RIGHT_ENDPOINT
    else:
        ia, ib, pos = index - 1, index + 1, FitPosition.CENTER

    va, vb = float(means[ia]), float(means[ib])
    if kind is ModelKind.BIRTH_DEATH:
        va = max(va, POSITIVE_VALUE_FLOOR)
        vb = max(vb, POSITIVE_VALUE_FLOOR)
    window = Window(
        anchor_a=(float(times[ia]), va),
        anchor_b=(float(times[ib]), vb),
        target=(
            float(times[index]),
            GaussianEstimate(float(means[index]), float(variances[index])),
        ),
    )
    return window, pos


def _anchor_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Earlier and later anchor index of the window around every timepoint,
    laid out as in :func:`window_at`."""
    ia = np.arange(-1, n - 1)
    ib = np.arange(1, n + 1)
    ia[0], ib[0] = 1, 2
    ia[-1], ib[-1] = n - 3, n - 2
    return ia, ib


@functools.lru_cache(maxsize=1)
def _const_reg_tables(times: bytes, scan: ScanGrid):
    """The parts of the constant-regulation scan that depend only on the grid.

    Returns the anchor indices and, per window and scanned ``k_deg``, the
    scan value, the anchor decay and its complement (see ``_cr_anchor_decay``)
    and the relaxation factor from the earlier anchor to the target. One slot
    serves every iteration of a series and every following series on the
    same grid; the arrays are read-only because every caller shares them.
    """
    t = np.frombuffer(times)
    ia, ib = _anchor_indices(len(t))
    ta, tb = t[ia], t[ib]
    k1 = scan.values(np.maximum(tb, t) - np.minimum(ta, t))
    decay, denom = _cr_anchor_decay(k1, (tb - ta)[:, None])
    with np.errstate(over="ignore", under="ignore"):
        relax = np.exp(-k1 * (t - ta)[:, None])
    tables = (ia, ib, k1, decay, denom, relax)
    for arr in tables:
        arr.setflags(write=False)
    return tables


#: What the scalar fit raises for a window, by the stage that fails first:
#: the target estimate, the anchors, the steady state, the predictions,
#: then the posterior moments.
_WINDOW_FAILURES = (
    (InvalidDataError, "mean and variance must be finite"),
    (InvalidDataError, "variance must be non-negative"),
    (InvalidDataError, "window times and values must be finite"),
    (InvalidParameterError, "k_deg too small: the anchor decay denominator underflowed"),
    (
        DegeneratePosteriorError,
        "model fit failed at timepoint {index} (t={time}): "
        "spline predictions left the finite range",
    ),
    (InvalidDataError, "mean and variance must be finite"),
)

#: First stage at which the scalar fit has already logged the
#: uniform-weights warning for its window.
_WARNED_STAGE = 4


@dataclass(frozen=True)
class SplinePathModel:
    """Path-level predictor backed by the ODE-spline posterior.

    Given the previous filter trajectory, produces the model mean and
    variance at every timepoint from the window around it, as
    :func:`window_at`, :func:`fit_spline_posterior` and
    :func:`posterior_moments` would one window at a time, but as one array
    kernel over all windows. A degenerate posterior falls back to uniform
    weights (logged); any deeper failure is raised for the first window
    that fails, with the error the scalar fit raises there.

    Birth/death predictions do not depend on the scanned parameter, so its
    posterior collapses to the closed form ``va * exp(growth * (t - ta))``
    with variance ``VARIANCE_FLOOR`` and no scan. Constant regulation scans
    an ``(n, K)`` array whose grid-only factors are kept in a one-slot memo.
    """

    kind: ModelKind
    scan: ScanGrid = field(default_factory=ScanGrid)

    def predict_path(
        self, grid: TimeGrid, means: np.ndarray, variances: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        times = grid.times
        means = np.asarray(means, dtype=float)
        variances = np.asarray(variances, dtype=float)
        with np.errstate(all="ignore"):
            if self.kind is ModelKind.BIRTH_DEATH:
                ia, ib = _anchor_indices(len(times))
                xa = np.maximum(means[ia], POSITIVE_VALUE_FLOOR)
                xb = np.maximum(means[ib], POSITIVE_VALUE_FLOOR)
                growth = np.log(xb / xa) / (times[ib] - times[ia])
                # one column: every weight below is one, so the mean is this
                # prediction and the variance is zero before the floor
                predictions = (xa * np.exp(growth * (times - times[ia])))[:, None]
                bad_steady = np.zeros(len(times), dtype=bool)
            else:
                ia, ib, _, decay, denom, relax = _const_reg_tables(
                    times.tobytes(), self.scan
                )
                xa, xb = means[ia], means[ib]
                steady = (xb[:, None] - xa[:, None] * decay) / denom
                predictions = steady + (xa[:, None] - steady) * relax
                bad_steady = ~np.all(np.isfinite(steady), axis=1)
            scale = 2.0 * np.maximum(variances, VARIANCE_FLOOR)
            losses = (predictions - means[:, None]) ** 2 / scale[:, None]
            log_weights = -losses
            peak = np.max(log_weights, axis=1, keepdims=True)
            raw = np.exp(log_weights - peak)
            weights = raw / raw.sum(axis=1, keepdims=True)
            weights = weights / weights.sum(axis=1, keepdims=True)
            degenerate = ~np.isfinite(peak[:, 0])
            if degenerate.any():
                uniform = np.full(predictions.shape[1], 1.0 / predictions.shape[1])
                weights[degenerate] = uniform / uniform.sum()
            out_means = np.sum(weights * predictions, axis=1)
            out_vars = np.sum(weights * (predictions - out_means[:, None]) ** 2, axis=1)

        bad_predictions = ~np.all(np.isfinite(predictions), axis=1)
        failures = np.stack([  # one row per entry of _WINDOW_FAILURES
            ~(np.isfinite(means) & np.isfinite(variances)),
            variances < 0,
            ~(np.isfinite(xa) & np.isfinite(xb)),
            bad_steady,
            bad_predictions,
            ~(np.isfinite(out_means) & np.isfinite(out_vars)),
        ])
        failed = failures.any(axis=0)
        first = int(np.argmax(failed)) if failed.any() else len(times)
        stage = int(np.argmax(failures[:, first])) if first < len(times) else -1
        warn_until = first + 1 if stage >= _WARNED_STAGE else first
        for t in np.flatnonzero((degenerate | bad_predictions)[:warn_until]):
            logger.warning(
                "degenerate spline posterior at t=%s; using uniform weights", times[t]
            )
        if stage >= 0:
            error, message = _WINDOW_FAILURES[stage]
            raise error(message.format(index=first, time=times[first]))
        return out_means, np.maximum(out_vars, VARIANCE_FLOOR)
