"""Shared value types and replicate summarization.

Everything downstream (filters, internal models, benchmarks) trades in the
types defined here: time grids, replicated measurement series, and
trajectories of mean/variance estimates. All types are immutable value
objects; the numpy arrays they hold are marked read-only so instances can
be shared freely across threads and processes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

#: Lower clamp for every variance produced by a summarization or posterior
#: computation, in the data's squared units. Keeps the weight formulas free
#: of division by zero when replicates coincide.
VARIANCE_FLOOR = 1e-9


class PathkfError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDataError(PathkfError):
    """Input data violates a documented precondition."""


class InvalidParameterError(PathkfError):
    """A numeric parameter is outside its valid range."""


class InvalidConfigError(PathkfError):
    """A scenario or run configuration is inconsistent or incomplete."""


class NumericalOverflowError(PathkfError):
    """A closed-form evaluation left the representable range."""


def _isfinite(value) -> bool:
    """``math.isfinite``, with a Python integer past the float range not
    finite instead of an ``OverflowError``."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _setstate_readonly(self, state: dict) -> None:
    """``__setstate__`` of the value types pickled by their state: pickle
    rebuilds numpy arrays writable, so each array in ``state`` is marked
    read-only again before the instance takes it."""
    for value in state.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    self.__dict__.update(state)


def _readonly(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidDataError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise InvalidDataError(f"{name} must be finite")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing timestamps shared by a series and its estimates.

    At least three points are required so that three-point fitting windows
    exist everywhere. Units are arbitrary and must simply match the data.
    """

    times: np.ndarray

    def __post_init__(self):
        times = _readonly(self.times, "times")
        if len(times) < 3:
            raise InvalidDataError("a time grid needs at least 3 points")
        if not np.all(np.diff(times) > 0):
            raise InvalidDataError("times must be strictly increasing")
        object.__setattr__(self, "times", times)

    __setstate__ = _setstate_readonly

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True, eq=False)
class TimeSeriesData:
    """Replicated noisy measurements on a shared time grid.

    ``samples[t]`` holds the raw replicate values observed at ``grid.times[t]``
    (at least one per timepoint); replicate counts may vary across timepoints.
    The per-timepoint summaries are computed once, when the series is built.
    """

    series_id: str
    grid: TimeGrid
    samples: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.samples) != len(self.grid):
            raise InvalidDataError(
                f"series {self.series_id!r}: {len(self.samples)} sample groups "
                f"for {len(self.grid)} timepoints"
            )
        groups = [np.asarray(group, dtype=float) for group in self.samples]
        for i, group in enumerate(groups):
            if group.ndim != 1:
                raise InvalidDataError(f"{self._where(i)}: samples must be one-dimensional")
        counts = np.array([len(group) for group in groups])
        if not counts.all():
            raise InvalidDataError(f"{self._where(int(np.argmin(counts)))} has no samples")
        values = np.concatenate(groups)
        ends = np.cumsum(counts)
        finite = np.isfinite(values)
        if not finite.all():
            first = int(np.searchsorted(ends, np.argmin(finite), side="right"))
            raise InvalidDataError(f"{self._where(first)}: samples must be finite")
        with np.errstate(over="ignore", invalid="ignore"):  # a spread past the range fails below
            means, variances = _summarize_replicates(values, counts)
        summarized = np.isfinite(means) & np.isfinite(variances)
        if not summarized.all():
            raise InvalidDataError(
                f"{self._where(int(np.argmin(summarized)))}: mean and variance must be finite"
            )
        self._attach(values, ends.tolist(), means, variances)

    def _attach(self, values: np.ndarray, ends: list[int], means, variances) -> None:
        """Hold the groups as read-only views of ``values``, split at ``ends``,
        and the summaries as read-only arrays."""
        for arr in (values, means, variances):
            arr.setflags(write=False)
        bounds = [0, *ends]
        samples = tuple(values[a:b] for a, b in zip(bounds, bounds[1:]))
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_summaries", (means, variances))

    def __reduce__(self):
        """Pickle as one values array, the group ends and the two summaries:
        a pool task ships one array instead of one per replicate group, and
        the copy is rebuilt without checking or summarizing again."""
        ends = list(itertools.accumulate(map(len, self.samples)))
        return _rebuild_series, (self.series_id, self.grid, self._values, ends, *self._summaries)

    def _where(self, index: int) -> str:
        return f"series {self.series_id!r}: timepoint {index} (t={float(self.grid.times[index])})"

    def summaries(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-timepoint data means and (floored) sample variances.

        Both are read-only arrays computed when the series was built; every
        call returns the same two objects.
        """
        return self._summaries


def _rebuild_series(series_id, grid, values, ends, means, variances) -> TimeSeriesData:
    """Unpickle a :class:`TimeSeriesData` from its ``__reduce__`` parts."""
    data = object.__new__(TimeSeriesData)
    object.__setattr__(data, "series_id", series_id)
    object.__setattr__(data, "grid", grid)
    data._attach(values, ends, means, variances)
    return data


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A Gaussian state estimate at every grid point."""

    grid: TimeGrid
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        means = _readonly(self.means, "means")
        variances = _readonly(self.variances, "variances")
        if len(means) != len(self.grid) or len(variances) != len(self.grid):
            raise InvalidDataError("trajectory arrays must match the grid length")
        if np.any(variances < 0):
            raise InvalidDataError("trajectory variances must be non-negative")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)

    __setstate__ = _setstate_readonly


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """The true underlying state at every grid point (synthetic data only)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = _readonly(self.values, "values")
        if len(values) != len(self.grid):
            raise InvalidDataError("ground truth must match the grid length")
        object.__setattr__(self, "values", values)

    __setstate__ = _setstate_readonly


def _summarize_replicates(
    values: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and floored sample variance of each replicate group.

    ``values`` holds the groups back to back, ``counts`` their sizes (each
    at least one). The groups of one size are gathered into a C-contiguous
    ``(k, r)`` block and reduced along its rows, which sums each row in the
    order a lone 1-D group is summed, so every entry is bitwise equal to
    summarizing its group alone. Prefix sums (``np.add.reduceat``) or
    zero-padding to one width would sum in another order from eight
    replicates on.
    """
    means = np.empty(len(counts))
    variances = np.full(len(counts), VARIANCE_FLOOR)
    starts = np.cumsum(counts) - counts
    for r in sorted(set(counts.tolist())):
        rows = np.flatnonzero(counts == r)
        block = values[starts[rows, None] + np.arange(r)]
        means[rows] = block.mean(axis=1)
        if r >= 2:
            variances[rows] = np.maximum(block.var(axis=1, ddof=1), VARIANCE_FLOOR)
    return means, variances

