"""Command-line entry point: ingestion, configuration, batch execution,
and result serialization.

Data files are long-form CSV (``series_id,time,value``, one row per
replicate measurement); ground truth uses ``series_id,time,true_value``.
Trajectories and filter results serialize to JSON, benchmark tables to CSV,
all in full float precision so write/read round trips are exact.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import click
import numpy as np

from .bench import (
    ALGORITHMS,
    AlgorithmSpec,
    BenchmarkReport,
    QRatioSummary,
    q_ratio_summary,
    run_benchmark,
    run_spec,
    table_specs,
)
from .core import (
    GroundTruth,
    InvalidConfigError,
    PathkfError,
    TimeGrid,
    TimeSeriesData,
    Trajectory,
)
from .models import ModelKind
from .pkf import PkfResult, PkfState
from .pkf import run_pkf  # noqa: F401  perfbench traces calls at pathkf.cli.run_pkf
from .synth import (
    BirthDeathScenario,
    GenePanelScenario,
    PiecewiseConstant,
    panel_labels,
    simulate_birth_death,
    simulate_gene_panel,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2

MODEL_CHOICES = {kind.value: kind for kind in ModelKind}


class ParseError(PathkfError):
    """A data file row could not be parsed; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class IoError(PathkfError):
    """Reading or writing a result file failed."""


class IngestResult(NamedTuple):
    series: tuple[TimeSeriesData, ...]
    skipped: tuple[str, ...]


def read_series_csv(path: str) -> IngestResult:
    """Parse a long-form measurement CSV into one series per ``series_id``.

    Rows sharing a (series, time) pair become replicates; timepoints are
    sorted per series. Series with fewer than three timepoints are skipped
    and reported, never silently dropped.
    """
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    groups: dict[str, dict[float, list[float]]] = {}
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["series_id", "time", "value"]:
            raise ParseError(1, "expected header 'series_id,time,value'")
        for row in reader:
            line = reader.line_num
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ParseError(line, f"expected 3 fields, got {len(row)}")
            series_id = row[0].strip()
            if not series_id:
                raise ParseError(line, "empty series_id")
            try:
                t = float(row[1])
                value = float(row[2])
            except ValueError as exc:
                raise ParseError(line, f"non-numeric field: {exc}") from exc
            if not (math.isfinite(t) and math.isfinite(value)):
                raise ParseError(line, "non-finite time or value")
            groups.setdefault(series_id, {}).setdefault(t, []).append(value)

    series = []
    skipped = []
    for series_id, by_time in groups.items():
        if len(by_time) < 3:
            logger.warning(
                "skipping series %r: only %d timepoint(s)", series_id, len(by_time)
            )
            skipped.append(series_id)
            continue
        times = sorted(by_time)
        series.append(
            TimeSeriesData(
                series_id,
                TimeGrid(np.asarray(times)),
                tuple(np.asarray(by_time[t]) for t in times),
            )
        )
    return IngestResult(tuple(series), tuple(skipped))


def write_series_csv(series: list[TimeSeriesData], path: str) -> None:
    """Write measurement series in the long-form CSV format."""
    try:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["series_id", "time", "value"])
            for data in series:
                for t, group in zip(data.grid.times, data.samples):
                    for value in group:
                        writer.writerow([data.series_id, repr(float(t)), repr(float(value))])
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_truth_csv(truths: list[tuple[str, GroundTruth]], path: str) -> None:
    """Write ground-truth values as ``series_id,time,true_value``."""
    try:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["series_id", "time", "true_value"])
            for series_id, truth in truths:
                for t, value in zip(truth.grid.times, truth.values):
                    writer.writerow([series_id, repr(float(t)), repr(float(value))])
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_labels_csv(path: str) -> dict[str, str]:
    """Parse a ``series_id,label`` CSV."""
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    labels: dict[str, str] = {}
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["series_id", "label"]:
            raise ParseError(1, "expected header 'series_id,label'")
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(reader.line_num, f"expected 2 fields, got {len(row)}")
            labels[row[0].strip()] = row[1].strip()
    return labels


def _floats(values) -> list[float]:
    return np.asarray(values, dtype=float).tolist()


def _state_record(state: PkfState) -> dict:
    return {
        "iteration": state.iteration,
        "filter_mean": _floats(state.filter.means),
        "filter_variance": _floats(state.filter.variances),
        "process_uncertainty": _floats(state.process_uncertainty),
        "w_data": _floats(state.weights.w_data),
        "w_model": _floats(state.weights.w_model),
        "w_filter": _floats(state.weights.w_filter),
    }


def result_record(result) -> dict:
    """JSON-ready record for a trajectory, filter result, or ratio summary."""
    if isinstance(result, PkfResult):
        record = {
            "type": "pkf_result",
            "time": _floats(result.final.filter.grid.times),
            **_state_record(result.final),
            "convergence": {
                "max_abs_dq": _floats(result.max_abs_dq),
                "max_filter_variance": _floats(result.max_filter_variance),
            },
        }
        if result.history is not None:
            record["history"] = [_state_record(s) for s in result.history]
        return record
    if isinstance(result, Trajectory):
        return {
            "type": "trajectory",
            "time": _floats(result.grid.times),
            "mean": _floats(result.means),
            "variance": _floats(result.variances),
        }
    if isinstance(result, QRatioSummary):
        return {
            "type": "q_ratio_summary",
            "series": [
                {
                    "series_id": e.series_id,
                    "label": e.label,
                    "log_ratio": e.log_ratio,
                    "mean_data_variance": e.mean_data_variance,
                }
                for e in result.entries
            ],
            "label_means": dict(sorted(result.label_means.items())),
            "bins": [
                {
                    "decile": b.decile,
                    "variance_low": b.variance_low,
                    "variance_high": b.variance_high,
                    "count": b.count,
                    "label_means": dict(sorted(b.label_means.items())),
                }
                for b in result.bins
            ],
        }
    raise InvalidConfigError(f"cannot serialize {type(result).__name__}")


def _write_json(record: dict, path: str) -> None:
    """Write ``record`` as indented JSON plus a newline."""
    try:
        with open(path, "w") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_result(result, path: str) -> None:
    """Serialize a result: JSON for trajectories/filter runs/summaries,
    CSV for benchmark tables."""
    if not isinstance(result, BenchmarkReport):
        _write_json(result_record(result), path)
        return
    try:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["algorithm", "parameters", "mse", "error"])
            for row in result.rows:
                writer.writerow(
                    [
                        row.spec.algorithm,
                        row.spec.params_text(),
                        "" if row.mse is None else repr(row.mse),
                        row.error or "",
                    ]
                )
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    """Everything one batch execution needs.

    ``q`` is ``None`` unless set; the baselines then use 1.0, and the PKF,
    whose process uncertainty is its own output, rejects any value.
    """

    algorithm: str = "pkf"
    model: ModelKind = ModelKind.BIRTH_DEATH
    iterations: int = 10
    q: float | None = None
    jobs: int = 1
    retain_history: bool = False
    input_path: str = ""
    output_path: str = ""

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise InvalidConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm == "pkf" and self.q is not None:
            raise InvalidConfigError(
                "q does not apply to pkf, which estimates its own process uncertainty"
            )
        if self.jobs < 1:
            raise InvalidConfigError("jobs must be at least 1")
        self.spec()  # raises on a bad q or iterations count

    def spec(self) -> AlgorithmSpec:
        q = 1.0 if self.q is None else self.q
        return AlgorithmSpec(self.algorithm, self.algorithm, q, self.iterations)


class SeriesOutcome(NamedTuple):
    series_id: str
    result: PkfResult | Trajectory | None
    error: str | None


@dataclass(frozen=True)
class BatchSummary:
    outcomes: tuple[SeriesOutcome, ...]
    skipped: tuple[str, ...]

    @property
    def n_ok(self) -> int:
        return sum(1 for o in self.outcomes if o.error is None)

    @property
    def n_failed(self) -> int:
        return sum(1 for o in self.outcomes if o.error is not None)


#: The error of a series whose worker process died before its outcome arrived.
WORKER_DIED = "BrokenProcessPool: a worker process died"


def _execute_series(config: RunConfig, data: TimeSeriesData) -> SeriesOutcome:
    try:
        result = run_spec(config.spec(), data, config.model, config.retain_history)
        return SeriesOutcome(data.series_id, result, None)
    except Exception as exc:  # per-series isolation
        return SeriesOutcome(data.series_id, None, f"{type(exc).__name__}: {exc}")


def _execute_chunk(config: RunConfig, chunk: tuple[TimeSeriesData, ...]) -> list[SeriesOutcome]:
    return [_execute_series(config, data) for data in chunk]


def batch_run(
    config: RunConfig,
    series: tuple[TimeSeriesData, ...],
    skipped: tuple[str, ...] = (),
) -> BatchSummary:
    """Run the configured algorithm on every series.

    Series run on a worker pool of ``config.jobs`` processes; results come
    back in input order, so output is identical at any parallelism degree.
    Per-series failures are isolated and reported in the summary. If a
    worker process dies, every series whose outcome had not arrived fails
    with ``WORKER_DIED``; the others keep their outcomes.
    """
    if not series:
        raise InvalidConfigError("no series to process")
    if config.jobs == 1:
        return BatchSummary(tuple(_execute_chunk(config, series)), tuple(skipped))
    size = max(1, len(series) // (config.jobs * 4))
    chunks = [series[i:i + size] for i in range(0, len(series), size)]
    outcomes: list[SeriesOutcome] = []
    with ProcessPoolExecutor(max_workers=config.jobs) as pool:
        futures = [pool.submit(_execute_chunk, config, chunk) for chunk in chunks]
        for chunk, future in zip(chunks, futures):
            try:
                outcomes.extend(future.result())
            except BrokenProcessPool:
                outcomes.extend(SeriesOutcome(d.series_id, None, WORKER_DIED) for d in chunk)
    return BatchSummary(tuple(outcomes), tuple(skipped))


def write_batch_results(summary: BatchSummary, path: str) -> None:
    """One JSON document holding every series outcome, in input order."""
    record = {
        "skipped": list(summary.skipped),
        "series": {
            o.series_id: (
                {"error": o.error} if o.error is not None else result_record(o.result)
            )
            for o in summary.outcomes
        },
    }
    _write_json(record, path)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as handle:
            loaded = json.load(handle)
    except OSError as exc:
        raise InvalidConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise InvalidConfigError("config file must hold a JSON object")
    return loaded


#: What a config-file value of each kind must be, as JSON names it.
_KIND_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "true or false"}


def _resolve(flag_value, config: dict, key: str, default, kind: type = str):
    """Flags win over config-file values, which win over defaults.

    A config-file value must be a JSON value of ``kind``; ``float`` also
    accepts an integer, and only ``bool`` accepts ``true``/``false``.
    """
    if flag_value is not None:
        return flag_value
    if key not in config:
        return default
    value = config[key]
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise InvalidConfigError(f"config {key!r} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _schedule_from_config(raw, fallback: PiecewiseConstant) -> PiecewiseConstant:
    if raw is None:
        return fallback
    try:
        return PiecewiseConstant(tuple(raw["breaks"]), tuple(raw["values"]))
    except (KeyError, TypeError) as exc:
        raise InvalidConfigError(f"bad schedule spec {raw!r}: {exc}") from exc


def _birth_death_scenario(config: dict, seed: int | None) -> BirthDeathScenario:
    base = BirthDeathScenario()
    overrides = {}
    for field_ in fields(BirthDeathScenario):
        if field_.name in ("birth", "death", "noise"):
            overrides[field_.name] = _schedule_from_config(
                config.get(field_.name), getattr(base, field_.name)
            )
        elif field_.name in config:
            overrides[field_.name] = config[field_.name]
    if seed is not None:
        overrides["seed"] = seed
    return replace(base, **overrides)


def _gene_panel_scenario(config: dict, seed: int | None) -> GenePanelScenario:
    kwargs = {
        key: config[key]
        for key in ("n_genes", "n_timepoints", "spacing", "replicates", "noise_level")
        if key in config
    }
    if seed is not None:
        kwargs["seed"] = seed
    return GenePanelScenario.default(**kwargs)


def _echo_failures(summary: BatchSummary) -> None:
    for outcome in summary.outcomes:
        if outcome.error is not None:
            click.echo(f"series {outcome.series_id} failed: {outcome.error}", err=True)


class _Commands(click.Group):
    """Every subcommand reports a ``PathkfError`` as ``error: ...`` on
    stderr and exits with ``EXIT_CONFIG``."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except PathkfError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)


@click.group(cls=_Commands)
@click.option("--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose: bool):
    """Pathspace Kalman filtering for univariate time-course data."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


@main.command()
@click.option("--scenario", type=click.Choice(["birth-death", "gene-panel"]), default="birth-death")
@click.option("--seed", type=int, default=None, help="Generator seed.")
@click.option("--output", required=True, help="Measurement CSV to write.")
@click.option("--truth", "truth_path", default=None, help="Ground-truth CSV to write.")
@click.option("--labels", "labels_path", default=None, help="Gene label CSV to write (gene-panel).")
@click.option("--config", "config_path", default=None, help="JSON scenario configuration.")
def simulate(scenario, seed, output, truth_path, labels_path, config_path):
    """Generate synthetic data and write it as CSV."""
    config = _load_config_file(config_path)
    if scenario == "birth-death":
        sc = _birth_death_scenario(config, seed)
        truth, data = simulate_birth_death(sc)
        write_series_csv([data], output)
        if truth_path:
            write_truth_csv([(data.series_id, truth)], truth_path)
    else:
        sc = _gene_panel_scenario(config, seed)
        panel = simulate_gene_panel(sc)
        write_series_csv([data for _, data in panel], output)
        if truth_path:
            write_truth_csv([(data.series_id, truth) for truth, data in panel], truth_path)
        if labels_path:
            try:
                with open(labels_path, "w", newline="") as handle:
                    writer = csv.writer(handle, lineterminator="\n")
                    writer.writerow(["series_id", "label"])
                    for gene_id, label in panel_labels(sc).items():
                        writer.writerow([gene_id, label])
            except OSError as exc:
                raise IoError(f"cannot write {labels_path}: {exc}") from exc
    click.echo(f"wrote {output}")


def _run_batch_command(
    algorithm, model, iterations, q, input_path, output, jobs, retain_history, config_path,
) -> tuple[BatchSummary, tuple[TimeSeriesData, ...]]:
    config_file = _load_config_file(config_path)
    q = _resolve(q, config_file, "q", None, float)
    model = _resolve(model, config_file, "model", "birth-death")
    if model not in MODEL_CHOICES:
        raise InvalidConfigError(f"unknown model {model!r}")
    run_config = RunConfig(
        algorithm=_resolve(algorithm, config_file, "algorithm", "pkf"),
        model=MODEL_CHOICES[model],
        iterations=_resolve(iterations, config_file, "iterations", 10, int),
        q=None if q is None else float(q),
        jobs=_resolve(jobs, config_file, "jobs", 1, int),
        retain_history=_resolve(retain_history, config_file, "retain_history", False, bool),
        input_path=_resolve(input_path, config_file, "input", ""),
        output_path=_resolve(output, config_file, "output", ""),
    )
    if not run_config.input_path or not run_config.output_path:
        raise InvalidConfigError("both --input and --output are required")
    series, skipped = read_series_csv(run_config.input_path)
    summary = batch_run(run_config, series, skipped)
    write_batch_results(summary, run_config.output_path)
    if skipped:
        click.echo(f"skipped {len(skipped)} series with fewer than 3 timepoints", err=True)
    _echo_failures(summary)
    click.echo(
        f"processed {summary.n_ok} series"
        + (f", {summary.n_failed} failed" if summary.n_failed else "")
    )
    return summary, series


_shared_run_options = [
    click.option("--algorithm", type=click.Choice(ALGORITHMS), default=None),
    click.option("--model", type=click.Choice(sorted(MODEL_CHOICES)), default=None),
    click.option("--iterations", type=int, default=None),
    click.option("--q", type=float, default=None),
    click.option("--input", "input_path", default=None, help="Measurement CSV."),
    click.option("--output", default=None, help="Result JSON to write."),
    click.option("--jobs", type=int, default=None, help="Worker processes."),
    click.option("--retain-history", is_flag=True, default=None),
    click.option("--config", "config_path", default=None, help="JSON config file."),
]


def _with_options(options):
    def wrap(func):
        for option in reversed(options):
            func = option(func)
        return func

    return wrap


@main.command()
@_with_options(_shared_run_options)
def run(**options):
    """Run one algorithm on every series in a measurement CSV."""
    summary, _ = _run_batch_command(**options)
    sys.exit(EXIT_PARTIAL if summary.n_failed else EXIT_OK)


@main.command()
@_with_options(_shared_run_options)
@click.option("--labels", "labels_path", default=None, help="series_id,label CSV.")
@click.option("--summary", "summary_path", default=None, help="Ratio summary JSON to write.")
def batch(algorithm, labels_path, summary_path, **options):
    """Gene-panel workflow: pathspace filter per series plus a ratio summary."""
    if algorithm not in (None, "pkf"):
        raise InvalidConfigError("the batch workflow runs the pathspace filter")
    summary, series = _run_batch_command(algorithm="pkf", **options)
    if summary_path:
        labels = read_labels_csv(labels_path) if labels_path else {}
        series_by_id = {data.series_id: data for data in series}
        results = [
            (labels.get(o.series_id, "all"), o.result, series_by_id[o.series_id])
            for o in summary.outcomes
            if o.error is None
        ]
        write_result(q_ratio_summary(results), summary_path)
    sys.exit(EXIT_PARTIAL if summary.n_failed else EXIT_OK)


@main.command()
@click.option("--seed", type=int, default=None)
@click.option("--output", required=True, help="Benchmark table CSV to write.")
@click.option("--trajectories", "trajectories_path", default=None,
              help="Optional JSON with per-row trajectories and error traces.")
@click.option("--config", "config_path", default=None, help="JSON scenario configuration.")
def bench(seed, output, trajectories_path, config_path):
    """Reproduce the method-comparison table on the synthetic benchmark."""
    config = _load_config_file(config_path)
    scenario = _birth_death_scenario(config, seed)
    report = run_benchmark(scenario, table_specs())
    write_result(report, output)
    if trajectories_path:
        record = {
            "seed": report.seed,
            "time": _floats(report.truth.grid.times),
            "truth": _floats(report.truth.values),
            "rows": {
                row.spec.label: {
                    "mse": row.mse,
                    "mean": _floats(row.trajectory.means),
                    "variance": _floats(row.trajectory.variances),
                    "squared_error": _floats(row.sq_errors),
                }
                for row in report.rows
                if row.trajectory is not None
            },
        }
        _write_json(record, trajectories_path)
    for row in report.rows:
        click.echo(
            f"{row.spec.label}: mse={row.mse:.6g}" if row.mse is not None
            else f"{row.spec.label}: FAILED ({row.error})"
        )


@main.command()
@_with_options(_shared_run_options)
def convergence(algorithm, retain_history, **options):
    """Run the pathspace filter with full history for convergence plots."""
    if algorithm not in (None, "pkf"):
        raise InvalidConfigError("convergence traces apply to the pathspace filter")
    summary, _ = _run_batch_command(algorithm="pkf", retain_history=True, **options)
    sys.exit(EXIT_PARTIAL if summary.n_failed else EXIT_OK)


if __name__ == "__main__":
    main()
