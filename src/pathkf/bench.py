"""Benchmark harness: the MSE metric, the method-comparison table, and the
process-uncertainty/data-variance ratio summary for gene panels."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import baselines
from .core import (
    VARIANCE_FLOOR,
    GroundTruth,
    InvalidConfigError,
    InvalidDataError,
    TimeSeriesData,
    Trajectory,
    _check_iterations,
)
from .models import ModelKind
from .pkf import PkfResult, _block_outcomes, _check_grid
from .pkf import run_pkf  # noqa: F401  perfbench traces calls at pathkf.bench.run_pkf
from .synth import BirthDeathScenario, simulate_birth_death


def squared_error_trace(filter_trajectory: Trajectory, truth: GroundTruth) -> np.ndarray:
    """Per-timepoint squared error of the filter means against the true state."""
    if not np.array_equal(filter_trajectory.grid.times, truth.grid.times):
        raise InvalidDataError("filter and truth grids differ")
    return (filter_trajectory.means - truth.values) ** 2


def mse(filter_trajectory: Trajectory, truth: GroundTruth) -> float:
    """Mean squared error of the filter means against the true state."""
    return float(np.mean(squared_error_trace(filter_trajectory, truth)))


#: How many series of one length go to one ``run_spec`` call. The PKF stacks
#: them into one block: past about 32 rows the (S, n, 200) scan temporaries
#: no longer fit a 2 MiB L2 cache. At n = 14 (2 vCPUs), the const-reg
#: kernel took 2.2-2.5 us per window from 8 to 32 rows, on one grid and on
#: per-row grids alike, and 3.4 us at 64 rows.
BLOCK_ROWS = 32
ALGORITHMS = ("pkf", "kf", "ukf", "urts", "ipls")


@dataclass(frozen=True)
class AlgorithmSpec:
    """Which algorithm to run, with which parameters: one benchmark row or
    one CLI run. ``q`` is the baselines' constant process uncertainty;
    ``iterations`` counts PKF or IPLS passes. An unknown ``algorithm`` is
    accepted here and rejected by ``run_spec``."""

    label: str
    algorithm: str  # one of ALGORITHMS
    q: float = 1.0
    iterations: int = 1

    def __post_init__(self):
        baselines._check_q(self.q)
        _check_iterations(self.iterations)

    def params_text(self) -> str:
        if self.algorithm == "pkf":
            return f"iterations={self.iterations}"
        if self.algorithm == "ipls":
            return f"q={self.q:g},iterations={self.iterations}"
        return f"q={self.q:g}"


def table_specs() -> tuple[AlgorithmSpec, ...]:
    """The default method-comparison table: every algorithm/parameter pair."""
    return (
        AlgorithmSpec("kf-q1", "kf", q=1.0),
        AlgorithmSpec("kf-q10", "kf", q=10.0),
        AlgorithmSpec("ukf-q1", "ukf", q=1.0),
        AlgorithmSpec("ukf-q10", "ukf", q=10.0),
        AlgorithmSpec("urts-q1", "urts", q=1.0),
        AlgorithmSpec("urts-q10", "urts", q=10.0),
        AlgorithmSpec("ipls-q1-i1", "ipls", q=1.0, iterations=1),
        AlgorithmSpec("ipls-q1-i10", "ipls", q=1.0, iterations=10),
        AlgorithmSpec("ipls-q10-i1", "ipls", q=10.0, iterations=1),
        AlgorithmSpec("ipls-q10-i10", "ipls", q=10.0, iterations=10),
        AlgorithmSpec("pkf-i1", "pkf", iterations=1),
        AlgorithmSpec("pkf-i10", "pkf", iterations=10),
    )


def run_spec(
    spec: AlgorithmSpec,
    series: tuple[TimeSeriesData, ...],
    kind: ModelKind,
    retain_history: bool = False,
) -> list[PkfResult | Trajectory | Exception]:
    """Run one spec on series of one length: one outcome per series, each
    bitwise equal to that series' lone run. An outcome is the PKF's full
    result or a baseline's trajectory, or the exception the lone run raises.
    The PKF runs the series as one stacked block, on their one grid or on
    per-row times, which drops a failing row and runs the others on; a
    baseline runs each in turn. An error of the whole call, which names no
    series (an unknown algorithm, a block of mixed lengths), is raised.
    ``retain_history`` applies to the PKF only."""
    if spec.algorithm == "pkf":
        return _block_outcomes(series, kind, spec.iterations, retain_history)[0]
    run = {
        "kf": lambda data: baselines.run_adaptive_kf(data, kind, spec.q),
        "ukf": lambda data: baselines.run_ukf(data, kind, spec.q),
        "urts": lambda data: baselines.run_urts(data, kind, spec.q),
        "ipls": lambda data: baselines.run_ipls(data, kind, spec.q, spec.iterations),
    }.get(spec.algorithm)
    if run is None:
        raise InvalidConfigError(f"unknown algorithm {spec.algorithm!r}")
    outcomes: list[Trajectory | Exception] = []
    for data in series:
        try:
            outcomes.append(run(data))
        except Exception as exc:  # this series' failure, isolated from the others
            outcomes.append(exc)
    return outcomes


@dataclass(frozen=True, eq=False)
class BenchmarkRow:
    spec: AlgorithmSpec
    mse: float | None
    trajectory: Trajectory | None
    sq_errors: np.ndarray | None
    pkf_result: PkfResult | None = None
    error: str | None = None

    def __post_init__(self):
        if self.mse is not None and (self.mse < 0 or not math.isfinite(self.mse)):
            raise InvalidDataError("row MSE must be finite and non-negative")


@dataclass(frozen=True, eq=False)
class BenchmarkReport:
    """Per-algorithm MSE rows plus their trajectories, from one shared dataset."""

    scenario: BirthDeathScenario
    seed: int
    rows: tuple[BenchmarkRow, ...]
    truth: GroundTruth
    data: TimeSeriesData

    def row(self, label: str) -> BenchmarkRow:
        for row in self.rows:
            if row.spec.label == label:
                return row
        raise KeyError(label)

    def mse_of(self, label: str) -> float:
        row = self.row(label)
        if row.mse is None:
            raise InvalidDataError(f"row {label!r} failed: {row.error}")
        return row.mse


def run_benchmark(
    scenario: BirthDeathScenario, specs: tuple[AlgorithmSpec, ...]
) -> BenchmarkReport:
    """Generate the birth/death scenario once and run every spec on the
    identical data with the birth/death model.

    A failing row records its error and leaves the other rows untouched.
    """
    truth, data = simulate_birth_death(scenario)
    rows = []
    for spec in specs:
        try:
            [result] = run_spec(spec, (data,), ModelKind.BIRTH_DEATH)
            if isinstance(result, Exception):
                raise result
            pkf_result = result if isinstance(result, PkfResult) else None
            trajectory = result if pkf_result is None else result.final.filter
            sq_errors = squared_error_trace(trajectory, truth)
            row = BenchmarkRow(spec, float(np.mean(sq_errors)), trajectory, sq_errors, pkf_result)
        except Exception as exc:  # isolate per-row failures
            row = BenchmarkRow(spec, None, None, None, error=f"{type(exc).__name__}: {exc}")
        rows.append(row)
    return BenchmarkReport(scenario, scenario.seed, tuple(rows), truth, data)


@dataclass(frozen=True)
class QRatioEntry:
    series_id: str
    label: str
    log_ratio: float
    mean_data_variance: float


@dataclass(frozen=True, eq=False)
class QRatioBin:
    """One variance-percentile bin with its per-label mean ratios."""

    decile: int
    variance_low: float
    variance_high: float
    label_means: dict[str, float]
    count: int


@dataclass(frozen=True, eq=False)
class QRatioSummary:
    """Per-series mean log(Q / V(Z)) with label and variance-decile groupings."""

    entries: tuple[QRatioEntry, ...]
    label_means: dict[str, float]
    bins: tuple[QRatioBin, ...]


def _decile_edges(values) -> np.ndarray:
    """The 0th, 10th, ..., 100th percentiles of ``values``, equal to
    ``np.percentile(values, np.linspace(0, 100, 11))`` bit for bit.

    It follows numpy's default linear method step by step: the copy is
    partitioned at the same order statistics, so that ties of ``-0.0`` and
    ``0.0`` land where numpy's partition puts them; ``position = (n - 1) * q``
    lies between the entries ``a`` and ``b`` around it (both the last entry
    from ``n - 1`` on), interpolated as ``a + (b - a) * t`` below ``t = 0.5``
    and as ``b - (b - a) * (1 - t)`` from there on. ``np.percentile`` and
    ``np.unique`` import ``numpy.ma`` (about 1.2 MB) on their first call.
    """
    ordered = np.array(values, dtype=float)
    position = (len(ordered) - 1) * (np.linspace(0.0, 100.0, 11) / 100)
    low = np.floor(position)
    high = low + 1
    top = position >= len(ordered) - 1
    low[top] = high[top] = -1
    low, high = low.astype(np.intp), high.astype(np.intp)
    kth = np.sort(np.concatenate(([0, -1], low, high)))
    ordered.partition(kth[np.r_[True, kth[1:] != kth[:-1]]])  # np.unique imports numpy.ma
    t = position - low
    a, b = ordered[low], ordered[high]
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


def q_ratio_summary(
    results: list[tuple[str, PkfResult, TimeSeriesData]],
) -> QRatioSummary:
    """Summarize process uncertainty relative to data variance.

    For each series the statistic is the time-average of
    ``log(max(Q_t, floor) / max(V(Z_t), floor))``. Series are then grouped
    by their label and binned into deciles of their mean data variance.
    Each result must be a run on the grid of its series.
    """
    if not results:
        raise InvalidDataError("q_ratio_summary needs at least one series")
    entries = []
    for label, result, data in results:
        _check_grid(result, data)
        _, z_vars = data.summaries()
        q = np.maximum(result.final.process_uncertainty, VARIANCE_FLOOR)
        v = np.maximum(z_vars, VARIANCE_FLOOR)
        entries.append(
            QRatioEntry(
                series_id=data.series_id,
                label=label,
                log_ratio=float(np.mean(np.log(q / v))),
                mean_data_variance=float(np.mean(z_vars)),
            )
        )
    return _group_ratios(tuple(entries))


def _group_ratios(entries: tuple[QRatioEntry, ...]) -> QRatioSummary:
    """The summary of ``entries``: the mean log ratio of each label, overall
    and within each decile bin of the mean data variance. Bin ``d`` holds
    the variances from its lower edge up to, but not including, its upper
    one; the last bin also holds its upper edge, the largest variance."""
    labels = sorted({e.label for e in entries})
    codes = {label: code for code, label in enumerate(labels)}
    label_codes = np.array([codes[e.label] for e in entries])
    masks = {label: label_codes == code for label, code in codes.items()}
    ratios = np.array([e.log_ratio for e in entries])
    label_means = {label: float(np.mean(ratios[mask])) for label, mask in masks.items()}

    variances = np.array([e.mean_data_variance for e in entries])
    edges = _decile_edges(variances)
    deciles = np.searchsorted(edges[1:-1], variances, side="right")
    bins = []
    for d in range(10):
        in_bin = deciles == d
        bin_masks = {label: in_bin & mask for label, mask in masks.items()}
        bins.append(
            QRatioBin(
                decile=d,
                variance_low=float(edges[d]),
                variance_high=float(edges[d + 1]),
                label_means={
                    label: float(np.mean(ratios[mask]))
                    for label, mask in bin_masks.items()
                    if mask.any()
                },
                count=int(np.count_nonzero(in_bin)),
            )
        )
    return QRatioSummary(entries, label_means, tuple(bins))
