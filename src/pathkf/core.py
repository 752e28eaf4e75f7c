"""Shared value types and replicate summarization.

Everything downstream (filters, internal models, benchmarks) trades in the
types defined here: time grids, replicated measurement series, and
mean/variance pairs. All types are immutable value objects; the numpy arrays
they hold are marked read-only so instances can be shared freely across
threads and processes.
"""

from __future__ import annotations

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


class DegeneratePosteriorError(PathkfError):
    """Every candidate in a posterior scan received zero weight."""


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

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class GaussianEstimate:
    """A (mean, variance) pair, the universal currency of this package."""

    mean: float
    variance: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise InvalidDataError("mean and variance must be finite")
        if self.variance < 0:
            raise InvalidDataError("variance must be non-negative")


@dataclass(frozen=True, eq=False)
class TimeSeriesData:
    """Replicated noisy measurements on a shared time grid.

    ``samples[t]`` holds the raw replicate values observed at ``grid.times[t]``
    (at least one per timepoint); replicate counts may vary across timepoints.
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
        frozen = []
        for i, group in enumerate(self.samples):
            arr = _readonly(group, f"samples[{i}]")
            if len(arr) == 0:
                raise InvalidDataError(
                    f"series {self.series_id!r}: timepoint {i} has no samples"
                )
            frozen.append(arr)
        object.__setattr__(self, "samples", tuple(frozen))

    def summaries(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-timepoint data means and (floored) sample variances."""
        est = [summarize_samples(group) for group in self.samples]
        means = np.array([e.mean for e in est])
        variances = np.array([e.variance for e in est])
        return means, variances


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

    def estimate(self, index: int) -> GaussianEstimate:
        return GaussianEstimate(float(self.means[index]), float(self.variances[index]))


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


def summarize_samples(samples) -> GaussianEstimate:
    """Summarize raw replicate values into a Gaussian data estimate.

    The mean is the arithmetic mean; the variance is the unbiased
    (Bessel-corrected) sample variance for two or more replicates and the
    variance floor for a single replicate. The variance is clamped below at
    ``VARIANCE_FLOOR`` so downstream weight formulas never divide by zero.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or len(arr) == 0:
        raise InvalidDataError("samples must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise InvalidDataError("samples must be finite")
    mean = float(np.mean(arr))
    if len(arr) >= 2:
        variance = float(np.var(arr, ddof=1))
    else:
        variance = VARIANCE_FLOOR
    return GaussianEstimate(mean, max(variance, VARIANCE_FLOOR))
