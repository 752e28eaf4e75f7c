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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    VARIANCE_FLOOR,
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


def _check_kind(kind) -> None:
    """Reject a model kind that is not a :class:`ModelKind`; a string such as
    ``"birth-death"`` is not coerced."""
    if not isinstance(kind, ModelKind):
        raise InvalidParameterError(f"model kind must be a ModelKind, got {kind!r}")


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
        whole = isinstance(self.num, (int, np.integer)) and not isinstance(self.num, bool)
        if not whole or self.num < 1:
            raise InvalidParameterError(f"num must be a positive integer, got {self.num!r}")
        if not (math.isfinite(self.k_min) and self.k_min > 0):
            raise InvalidParameterError(f"k_min must be finite and positive, got {self.k_min!r}")
        if not (self.k_max is None or math.isfinite(self.k_max) and self.k_max > self.k_min):
            raise InvalidParameterError(f"k_max must be finite, above k_min, got {self.k_max!r}")

    def values(self, window_span) -> np.ndarray:
        """Scan values for one window span, or one row per span of an array.

        Rows are C-contiguous, so row reductions sum in the same order as
        for a single span.
        """
        span = np.asarray(window_span, dtype=float)
        k_max = np.full_like(span, self.k_max) if self.k_max is not None else 10.0 / span
        k_max = np.maximum(k_max, self.k_min * (1.0 + 1e-9))
        return np.ascontiguousarray(np.geomspace(self.k_min, k_max, self.num, axis=-1))


def flow_birth_death(n0: float, k_birth: float, k_death: float, dt: float) -> float:
    """Exact birth/death flow ``n0 * exp((k_birth - k_death) * dt)``; a
    result that overflows or underflows to zero raises
    :class:`NumericalOverflowError`."""
    if not all(math.isfinite(v) for v in (n0, k_birth, k_death, dt)):
        raise InvalidDataError("flow inputs must be finite")
    if n0 <= 0:
        raise InvalidDataError("population must be positive")
    try:
        result = n0 * math.exp((k_birth - k_death) * dt)
    except OverflowError:
        result = math.inf
    if not 0.0 < result < math.inf:
        raise NumericalOverflowError(
            f"birth-death flow {'underflowed' if result == 0.0 else 'overflowed'} "
            f"(n0={n0}, growth={k_birth - k_death}, dt={dt})"
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


@functools.lru_cache(maxsize=1)
def _grid_memo(times: bytes, scan: ScanGrid) -> dict:
    """Grid-only tables by window layout, for the most recent grid only: each
    iteration and each following series on that grid hit this one slot."""
    return {}


def _const_reg_tables(times: bytes, layout: bytes, scan: ScanGrid):
    """Per window and scanned ``k_deg`` of a layout: the scan value and the
    share ``g = expm1(-k_deg * (tt - ta)) / expm1(-k_deg * (tb - ta))`` of the
    anchor gap that the flow through both anchors adds at the target, so that
    every spline predicts ``xa + (xb - xa) * g`` (expm1 keeps small rates
    accurate). Built on first use, under the error state that
    :func:`fit_spline_posterior` sets; read-only because callers share them."""
    memo = _grid_memo(times, scan)
    if layout in memo:
        return memo[layout]
    t = np.frombuffer(times)
    ta, tb, tt = (t[i] for i in np.frombuffer(layout, dtype=np.intp).reshape(3, -1))
    k1 = scan.values(np.maximum(tb, tt) - np.minimum(ta, tt))
    g = np.expm1(-k1 * (tt - ta)[:, None]) / np.expm1(-k1 * (tb - ta)[:, None])
    tables = memo[layout] = (k1, g)
    for arr in tables:
        arr.setflags(write=False)
    return tables


class SplineFit(NamedTuple):
    """The spline posterior of every window of a layout, one row per window:
    weights, the scanned ``k_deg`` of each spline, and the posterior moments,
    variances floored at ``VARIANCE_FLOOR``. Birth/death has one spline: one
    column of weight ``1.0``, ``None`` for ``k_deg``, and its prediction as
    the mean."""

    weights: np.ndarray
    k_deg: np.ndarray | None
    means: np.ndarray
    variances: np.ndarray


def uniform_posterior(num: int) -> np.ndarray:
    """Uniform weights over ``num`` splines, the degenerate posterior's fallback."""
    uniform = np.full(num, 1.0 / num)
    return uniform / uniform.sum()


def fit_spline_posterior(
    kind: ModelKind, scan: ScanGrid, times, ia, ib, targets, anchors, means, variances
) -> SplineFit:
    """Spline posterior of every window of a layout, as one array kernel.

    The ``j``-th window pins the flow to ``anchors`` at ``times[ia[j]] <
    times[ib[j]]`` and scores each scanned spline by its prediction ``p_i``
    at ``times[targets[j]]`` against the Gaussian ``(means[j],
    variances[j])``: the weight of spline ``i`` is proportional to
    ``exp(-(p_i - mean)^2 / (2 * max(var, VARIANCE_FLOOR)))``, normalized
    after a shift by the peak log-weight. The flow is anchored at the earlier
    anchor and evaluated at a signed time offset, so targets before, between
    or after the anchors share one closed form; birth/death anchors are
    clamped at ``POSITIVE_VALUE_FLOOR`` first.

    ``anchors``, ``means`` and ``variances`` may carry leading axes, one
    series per row, e.g. ``(S, n)`` anchors with ``(S, windows)`` targets;
    every output then gains the same leading axes. Each row is bitwise equal
    to the call on that row alone: the grid-only tables broadcast unchanged
    and every reduction runs along the last, C-contiguous axis.

    The kernel raises nothing of its own: a window whose predictions or
    moments left the finite range gets non-finite moments, and the caller,
    which knows the series and the timepoint, checks what it reads.

    Birth/death predictions do not depend on the scanned parameter, so the
    kernel returns its one spline before any scoring: weight ``1.0``, mean
    ``xa * exp(growth * (t - ta))`` and variance ``VARIANCE_FLOOR`` (NaN
    where the prediction is not finite), with no scan and no fallback.
    Every constant-regulation spline predicts ``xa + (xb - xa) * g`` with a
    grid-only ``(windows, K)`` table ``g``, memoized per window layout on the
    most recent grid. The moments are taken on that table: mean ``xa + (xb -
    xa) * E[g]`` and variance ``(xb - xa)^2 * Var[g]``, with ``Var[g]``
    summed around ``E[g]``, so nothing cancels. A window whose weights all
    vanish falls back to :func:`uniform_posterior` (logged).
    """
    times = np.asarray(times, dtype=float)
    ia, ib, targets = (np.asarray(i, dtype=np.intp) for i in (ia, ib, targets))
    anchors, means, variances = (np.asarray(a, dtype=float) for a in (anchors, means, variances))
    with np.errstate(all="ignore"):
        if kind is ModelKind.BIRTH_DEATH:
            xa = np.maximum(anchors.take(ia, axis=-1), POSITIVE_VALUE_FLOOR)
            xb = np.maximum(anchors.take(ib, axis=-1), POSITIVE_VALUE_FLOOR)
            growth = np.log(xb / xa) / (times[ib] - times[ia])
            p = xa * np.exp(growth * (times[targets] - times[ia]))
            return SplineFit(np.ones_like(p)[..., None], None, p,
                             np.maximum((p - p) ** 2, VARIANCE_FLOOR))
        layout = ia.tobytes() + ib.tobytes() + targets.tobytes()
        k_deg, g = _const_reg_tables(times.tobytes(), layout, scan)
        xa = anchors.take(ia, axis=-1)
        delta = anchors.take(ib, axis=-1) - xa
        # the predictions xa + delta * g, then in the same buffer the losses
        # (p - mean)^2 / scale and the normalized weights exp(min(loss) - loss):
        # the peak log-weight shift without the negation, exact in IEEE
        weights = np.multiply(delta[..., None], g)
        np.add(weights, xa[..., None], out=weights)
        np.subtract(weights, means[..., None], out=weights)
        np.square(weights, out=weights)
        scale = 2.0 * np.maximum(variances, VARIANCE_FLOOR)
        np.divide(weights, scale[..., None], out=weights)
        low = np.min(weights, axis=-1, keepdims=True)
        np.subtract(low, weights, out=weights)
        np.exp(weights, out=weights)
        np.divide(weights, weights.sum(axis=-1, keepdims=True), out=weights)
        degenerate = ~np.isfinite(low[..., 0])
        fallback = degenerate.any()
        if fallback:
            weights[degenerate] = uniform_posterior(g.shape[-1])
        # the moments on the table; a variance term overflows only where the
        # spline's own deviation delta * (g - E[g]) does
        scratch = np.multiply(weights, g)
        mean_g = np.sum(scratch, axis=-1)
        np.subtract(g, mean_g[..., None], out=scratch)
        np.multiply(scratch, delta[..., None], out=scratch)
        np.square(scratch, out=scratch)
        np.multiply(scratch, weights, out=scratch)
        out_vars = np.sum(scratch, axis=-1)
        out_means = xa + delta * mean_g
    if fallback:  # windows in row-major order: the j-th targets targets[j % len(targets)]
        for j in np.flatnonzero(degenerate.reshape(-1)):
            logger.warning(
                "degenerate spline posterior at t=%s; using uniform weights",
                times[targets[j % len(targets)]],
            )
    return SplineFit(weights, k_deg, out_means, np.maximum(out_vars, VARIANCE_FLOOR))


@dataclass(frozen=True)
class SplinePathModel:
    """Path-level predictor backed by the ODE-spline posterior: the model mean
    and variance at every timepoint of the previous filter trajectory, from
    the centered window around it, in one :func:`fit_spline_posterior` call.
    ``means`` and ``variances`` are one ``(n,)`` path or an ``(S, n)`` block
    of paths on the grid; the outputs have their shape."""

    kind: ModelKind
    scan: ScanGrid = ScanGrid()

    def __post_init__(self):
        _check_kind(self.kind)

    def predict_path(
        self, grid: TimeGrid, means: np.ndarray, variances: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        fit = fit_spline_posterior(
            self.kind, self.scan, grid.times, *_centered_windows(len(grid)),
            means, means, variances,
        )
        return fit.means, fit.variances


@functools.lru_cache(maxsize=64)
def _centered_windows(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Anchor and target indices of the centered windows on ``n`` points:
    interior points anchor their two neighbours, the first point the next
    two and the last point the two before it. Read-only: callers share them."""
    ia = np.arange(-1, n - 1)
    ib = np.arange(1, n + 1)
    ia[0], ib[0] = 1, 2
    ia[-1], ib[-1] = n - 3, n - 2
    layout = (ia, ib, np.arange(n))
    for arr in layout:
        arr.setflags(write=False)
    return layout
