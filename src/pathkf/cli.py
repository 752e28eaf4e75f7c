"""Command-line entry point: ingestion, configuration, batch execution,
and result serialization.

Data files are long-form CSV (``series_id,time,value``, one row per
replicate measurement); ground truth uses ``series_id,time,true_value``.
Trajectories and filter results serialize to JSON, benchmark tables to CSV,
all in full float precision so write/read round trips are exact.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import logging
import math
import os
import stat
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import click
import numpy as np

from .bench import (
    ALGORITHMS,
    BLOCK_ROWS,
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
from .pkf import DEFAULT_ITERATIONS, PkfResult, PkfState
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


def _csv_rows(path: str, header: list[str]):
    """``(line, series_id, other fields)`` for each row of the CSV file at
    ``path``, whose header must be ``header`` (``series_id`` first).

    The file is read as UTF-8 on every platform, after a byte-order mark if
    it starts with one, as spreadsheets save it. Blank and whitespace-only
    lines are skipped. A row with the wrong number of fields or an empty
    ``series_id`` fails naming its 1-based line, and bytes that are not
    UTF-8 fail naming the file.
    """
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            first = next(reader, None)
            if first is None or [h.strip() for h in first] != header:
                raise ParseError(1, f"expected header '{','.join(header)}'")
            for row in reader:
                line = reader.line_num
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != len(header):
                    raise ParseError(line, f"expected {len(header)} fields, got {len(row)}")
                series_id = row[0].strip()
                if not series_id:
                    raise ParseError(line, "empty series_id")
                yield line, series_id, row[1:]
        except UnicodeDecodeError as exc:
            raise IoError(f"cannot read {path}: {exc}") from exc


def read_series_csv(path: str) -> IngestResult:
    """Parse a long-form measurement CSV into one series per ``series_id``.

    Rows sharing a (series, time) pair become replicates; timepoints are
    sorted per series. Series with fewer than three timepoints are skipped
    and reported, never silently dropped.
    """
    groups: dict[str, dict[float, list[float]]] = {}
    for line, series_id, (t_text, value_text) in _csv_rows(path, ["series_id", "time", "value"]):
        try:
            t = float(t_text)
            value = float(value_text)
        except ValueError as exc:
            raise ParseError(line, f"non-numeric field: {exc}") from exc
        if not (math.isfinite(t) and math.isfinite(value)):
            raise ParseError(line, "non-finite time or value")
        groups.setdefault(series_id, {}).setdefault(t, []).append(value)

    series = []
    skipped = []
    for series_id, by_time in groups.items():
        if len(by_time) < 3:
            logger.warning("skipping series %r: only %d timepoint(s)", series_id, len(by_time))
            skipped.append(series_id)
            continue
        times = sorted(by_time)
        samples = tuple(np.asarray(by_time[t]) for t in times)
        series.append(TimeSeriesData(series_id, TimeGrid(np.asarray(times)), samples))
    return IngestResult(tuple(series), tuple(skipped))


def write_series_csv(series: list[TimeSeriesData], path: str) -> None:
    """Write measurement series in the long-form CSV format."""
    _write_csv(
        path,
        ["series_id", "time", "value"],
        (
            [data.series_id, repr(float(t)), repr(float(value))]
            for data in series
            for t, group in zip(data.grid.times, data.samples)
            for value in group
        ),
    )


def write_truth_csv(truths: list[tuple[str, GroundTruth]], path: str) -> None:
    """Write ground-truth values as ``series_id,time,true_value``."""
    _write_csv(
        path,
        ["series_id", "time", "true_value"],
        (
            [series_id, repr(float(t)), repr(float(value))]
            for series_id, truth in truths
            for t, value in zip(truth.grid.times, truth.values)
        ),
    )


def read_labels_csv(path: str) -> dict[str, str]:
    """Parse a ``series_id,label`` CSV; each ``series_id`` may appear once."""
    labels: dict[str, str] = {}
    for line, series_id, (label,) in _csv_rows(path, ["series_id", "label"]):
        if series_id in labels:
            raise ParseError(line, f"repeated series_id {series_id!r}")
        labels[series_id] = label.strip()
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


def _json_float(value: float) -> str:
    """A float as ``json`` spells it: ``float.__repr__``, or ``NaN`` and
    ``Infinity``, which JSON itself does not have."""
    if value != value:
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


def _json_text(value, indent: str) -> str:
    """``json.dumps(value, indent=2)`` for a value nested at ``indent``: the
    same type tests in the same order, and the same bytes. A list of floats,
    the bulk of every record, is one join of ``float.__repr__``; text with
    an ``n`` holds a ``nan`` or ``inf``, and is spelled again item by item."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        sep = ",\n" + inner
        try:
            text = sep.join(map(float.__repr__, value))
        except TypeError:  # not every item is a float
            text = sep.join(_json_text(item, inner) for item in value)
        else:
            if "n" in text:
                text = sep.join(map(_json_float, value))
        return f"[\n{inner}{text}\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{\n" + ",\n".join(
            f"{inner}{_json_key(key)}: {_json_text(item, inner)}" for key, item in value.items()
        ) + f"\n{indent}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_key(key) -> str:
    """A dict key; every record keys its dicts by strings."""
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return encode_basestring_ascii(key)


@contextlib.contextmanager
def _replacing(path: str, newline: str | None = None):
    """A UTF-8 text handle whose contents replace ``path`` when the block
    ends: a temporary file in the same directory, with the mode
    ``open(path, "w")`` would leave, moved into place by ``os.replace``. On
    a failure it is removed and ``path`` keeps its old bytes; an ``OSError``
    is raised as ``IoError``."""
    target = os.path.realpath(path)  # through a symlink, as ``open(path, "w")`` writes
    directory, name = os.path.split(target)
    temp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        try:
            with open(temp, "x", newline=newline, encoding="utf-8") as handle:
                yield handle
            with contextlib.suppress(FileNotFoundError):
                os.chmod(temp, stat.S_IMODE(os.stat(target).st_mode))
            os.replace(temp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(temp)
            raise
    except OSError as exc:
        # name the target, as opening it directly would, not the temporary file
        named = OSError(exc.errno, exc.strerror, path) if exc.filename else exc
        raise IoError(f"cannot write {path}: {named}") from exc


def _write_json(record: dict, path: str) -> None:
    """Write ``record`` as indented JSON plus a newline: the bytes of
    ``json.dump(record, handle, indent=2)``."""
    with _replacing(path) as handle:
        handle.write(_json_text(record, ""))
        handle.write("\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    """Write ``header`` and then ``rows`` as CSV, one ``\\n``-terminated line each."""
    with _replacing(path, newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_result(result, path: str) -> None:
    """Serialize a result: JSON for trajectories/filter runs/summaries,
    CSV for benchmark tables."""
    if not isinstance(result, BenchmarkReport):
        _write_json(result_record(result), path)
        return
    _write_csv(
        path,
        ["algorithm", "parameters", "mse", "error"],
        (
            [
                row.spec.algorithm,
                row.spec.params_text(),
                "" if row.mse is None else repr(row.mse),
                row.error or "",
            ]
            for row in result.rows
        ),
    )


@dataclass(frozen=True)
class RunConfig:
    """Everything one batch execution needs.

    ``q`` is ``None`` unless set; the baselines then use 1.0, and the PKF,
    whose process uncertainty is its own output, rejects any value.
    ``iterations`` is ``None`` unless set; ``pkf`` and ``ipls`` then run
    ``DEFAULT_ITERATIONS``, and ``kf``, ``ukf`` and ``urts``, which do not
    iterate, reject any value. ``retain_history`` keeps each PKF iteration,
    so a baseline rejects it.
    """

    algorithm: str = "pkf"
    model: ModelKind = ModelKind.BIRTH_DEATH
    iterations: int | None = None
    q: float | None = None
    jobs: int = 1
    retain_history: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise InvalidConfigError(f"unknown algorithm {self.algorithm!r}")
        if not isinstance(self.model, ModelKind):
            raise InvalidConfigError(f"model must be a ModelKind, got {self.model!r}")
        if self.algorithm == "pkf" and self.q is not None:
            raise InvalidConfigError(
                "q does not apply to pkf, which estimates its own process uncertainty"
            )
        if self.iterations is not None and self.algorithm not in ("pkf", "ipls"):
            raise InvalidConfigError("iterations applies only to pkf and ipls, which iterate")
        if self.retain_history and self.algorithm != "pkf":
            raise InvalidConfigError(
                "retain_history applies only to pkf, whose iterations it keeps"
            )
        if self.jobs < 1:
            raise InvalidConfigError("jobs must be at least 1")
        self.spec()  # raises on a bad q or iterations count

    def spec(self) -> AlgorithmSpec:
        q = 1.0 if self.q is None else self.q
        iterations = DEFAULT_ITERATIONS if self.iterations is None else self.iterations
        return AlgorithmSpec(self.algorithm, self.algorithm, q, iterations)


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


def _execute_block(config: RunConfig, block: tuple[TimeSeriesData, ...]) -> list[SeriesOutcome]:
    """Outcomes of series of one length, from one ``run_spec`` call: each
    series gets exactly the result or error it gets alone, and its model
    warnings are logged once. An error that names no series, which
    ``run_spec`` raises, is the outcome of every series of the block."""
    try:
        outcomes = run_spec(config.spec(), block, config.model, config.retain_history)
    except Exception as exc:  # an error of the whole block
        outcomes = [exc] * len(block)
    return [
        SeriesOutcome(data.series_id, None, f"{type(outcome).__name__}: {outcome}")
        if isinstance(outcome, Exception) else SeriesOutcome(data.series_id, outcome, None)
        for data, outcome in zip(block, outcomes)
    ]


def _execute_chunk(config: RunConfig, chunk: tuple[TimeSeriesData, ...]) -> list[SeriesOutcome]:
    """Outcomes in the chunk's order: each run of consecutive series of one
    length goes to ``_execute_block`` in blocks of ``BLOCK_ROWS``, whatever
    their grids."""
    outcomes = []
    for _, run in itertools.groupby(chunk, key=lambda data: len(data.grid)):
        run = tuple(run)
        for start in range(0, len(run), BLOCK_ROWS):
            outcomes += _execute_block(config, run[start:start + BLOCK_ROWS])
    return outcomes


def batch_run(
    config: RunConfig,
    series: tuple[TimeSeriesData, ...],
    skipped: tuple[str, ...] = (),
) -> BatchSummary:
    """Run the configured algorithm on every series.

    The series run sorted stably by length, so that series of one length
    stack into blocks of ``BLOCK_ROWS`` whatever their grids, on a worker
    pool of ``config.jobs`` processes that takes chunks of that order. The
    outcomes come back in input order, each equal to its series' lone run,
    so output is identical at any parallelism degree; model warnings are
    logged in block order. Each series id may appear once. Per-series
    failures are isolated and reported in the summary. If a worker process
    dies, every series whose outcome had not arrived fails with
    ``WORKER_DIED``; the others keep their outcomes.
    """
    if not series:
        raise InvalidConfigError("no series to process")
    seen: set[str] = set()
    for data in series:  # each names one record of the results document
        if data.series_id in seen:
            raise InvalidConfigError(f"repeated series_id {data.series_id!r}")
        seen.add(data.series_id)
    order = sorted(range(len(series)), key=lambda i: len(series[i].grid))
    ordered = tuple(series[i] for i in order)
    if config.jobs == 1:
        done = _execute_chunk(config, ordered)
    else:
        size = max(1, len(series) // (config.jobs * 4))
        chunks = [ordered[i:i + size] for i in range(0, len(series), size)]
        done = []
        with ProcessPoolExecutor(max_workers=min(config.jobs, len(chunks))) as pool:
            futures = [pool.submit(_execute_chunk, config, chunk) for chunk in chunks]
            for chunk, future in zip(chunks, futures):
                try:
                    done.extend(future.result())
                except BrokenProcessPool:
                    done.extend(SeriesOutcome(d.series_id, None, WORKER_DIED) for d in chunk)
    outcomes: list[SeriesOutcome] = [None] * len(series)
    for i, outcome in zip(order, done):
        outcomes[i] = outcome
    return BatchSummary(tuple(outcomes), tuple(skipped))


def write_batch_results(summary: BatchSummary, path: str) -> None:
    """One JSON document holding every series outcome, in input order: the
    bytes of ``json.dump({"skipped": [...], "series": {...}}, indent=2)``
    and a newline, written one series record at a time, each built as it is
    written."""
    with _replacing(path) as handle:
        handle.write(f'{{\n  "skipped": {_json_text(list(summary.skipped), "  ")},\n  "series": ')
        sep = "{"
        for o in summary.outcomes:
            record = {"error": o.error} if o.error is not None else result_record(o.result)
            handle.write(f"{sep}\n    {_json_key(o.series_id)}: {_json_text(record, '    ')}")
            sep = ","
        handle.write("\n  }\n}\n" if summary.outcomes else "{}\n}\n")


#: What a config-file value of each kind must be, as JSON names it.
_KIND_NAMES = {
    str: "a string", int: "an integer", float: "a number", bool: "true or false",
    PiecewiseConstant: 'a schedule {"breaks": [numbers], "values": [numbers]}',
}


def _has_kind(value, kind: type) -> bool:
    """Whether a JSON value is of ``kind``: ``float`` also accepts an
    integer, only ``bool`` accepts ``true``/``false``, and a schedule is an
    object whose ``breaks`` and ``values`` are lists of numbers."""
    if kind is PiecewiseConstant:
        return isinstance(value, dict) and all(
            isinstance(value.get(part), list) and all(_has_kind(v, float) for v in value[part])
            for part in ("breaks", "values")
        )
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        return False
    if kind is float and isinstance(value, int):
        try:
            float(value)
        except OverflowError:  # an integer past the float range is not a number here
            return False
    return True


def _load_config_file(path: str | None, kinds: dict) -> dict:
    """The settings in the JSON object at ``path``, or ``{}`` without one.

    ``kinds`` maps each key the command reads to its kind; the first other
    key is rejected before any value is read. Then every value is checked
    against its kind (see ``_has_kind``), in the order of ``kinds``, and a
    schedule is built, so a flag given over a key does not hide a bad value.
    """
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8-sig") as handle:
            loaded = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # a syntax error, or an integer past Python's digit limit
        raise InvalidConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise InvalidConfigError("config file must hold a JSON object")
    for key in loaded:
        if key not in kinds:
            raise InvalidConfigError(f"unknown config key {key!r}")
    settings = {}
    for key, kind in kinds.items():
        if key not in loaded:
            continue
        value = loaded[key]
        if not _has_kind(value, kind):
            raise InvalidConfigError(f"config {key!r} must be {_KIND_NAMES[kind]}, got {value!r}")
        if kind is PiecewiseConstant:
            value = PiecewiseConstant(tuple(value["breaks"]), tuple(value["values"]))
        settings[key] = value
    return settings


def _given(**settings) -> dict:
    """The settings that are set, for a constructor whose defaults fill in the rest."""
    return {key: value for key, value in settings.items() if value is not None}


#: The config-file keys of each command, with their JSON kinds, in the order
#: they are checked. ``bench`` reads the birth-death keys.
_BIRTH_DEATH_KEYS = {
    "n0": float, "t_end": float, "dt": float, "replicates": int, "birth": PiecewiseConstant,
    "death": PiecewiseConstant, "noise": PiecewiseConstant, "seed": int,
}
_GENE_PANEL_KEYS = {
    "n_genes": int, "n_timepoints": int, "spacing": float, "replicates": int, "noise_level": float,
    "seed": int,
}
#: ``run``, ``batch`` and ``convergence``.
_RUN_KEYS = {
    "algorithm": str, "model": str, "iterations": int, "q": float, "jobs": int,
    "retain_history": bool, "input": str, "output": str,
}


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
def main():
    """Pathspace Kalman filtering for univariate time-course data."""
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")


@main.command()
@click.option("--scenario", type=click.Choice(["birth-death", "gene-panel"]), default="birth-death")
@click.option("--seed", type=int, default=None, help="Generator seed.")
@click.option("--output", required=True, help="Measurement CSV to write.")
@click.option("--truth", "truth_path", default=None, help="Ground-truth CSV to write.")
@click.option("--labels", "labels_path", default=None, help="Gene label CSV to write (gene-panel).")
@click.option("--config", "config_path", default=None, help="JSON scenario configuration.")
def simulate(scenario, seed, output, truth_path, labels_path, config_path):
    """Generate synthetic data and write it as CSV."""
    if labels_path and scenario != "gene-panel":
        raise InvalidConfigError("--labels applies only to the gene-panel scenario")
    kinds = _BIRTH_DEATH_KEYS if scenario == "birth-death" else _GENE_PANEL_KEYS
    settings = {**_load_config_file(config_path, kinds), **_given(seed=seed)}
    if scenario == "birth-death":
        truth, data = simulate_birth_death(BirthDeathScenario(**settings))
        write_series_csv([data], output)
        if truth_path:
            write_truth_csv([(data.series_id, truth)], truth_path)
    else:
        sc = GenePanelScenario.default(**settings)
        panel = simulate_gene_panel(sc)
        write_series_csv([data for _, data in panel], output)
        if truth_path:
            write_truth_csv([(data.series_id, truth) for truth, data in panel], truth_path)
        if labels_path:
            _write_csv(labels_path, ["series_id", "label"], panel_labels(sc).items())
    click.echo(f"wrote {output}")


def _run_batch_command(
    config_path, pkf_only: str | None = None, **flags
) -> tuple[BatchSummary, tuple[TimeSeriesData, ...]]:
    """Run the config file's settings with the flags laid over them. With
    ``pkf_only``, a merged algorithm other than ``pkf`` fails with that message."""
    settings = {**_load_config_file(config_path, _RUN_KEYS), **_given(**flags)}
    if pkf_only and settings.get("algorithm", "pkf") != "pkf":
        raise InvalidConfigError(pkf_only)
    input_path, output = settings.pop("input", None), settings.pop("output", None)
    if "model" in settings:
        if settings["model"] not in MODEL_CHOICES:
            raise InvalidConfigError(f"unknown model {settings['model']!r}")
        settings["model"] = MODEL_CHOICES[settings["model"]]
    run_config = RunConfig(**settings)
    if not input_path or not output:
        raise InvalidConfigError("both --input and --output are required")
    series, skipped = read_series_csv(input_path)
    summary = batch_run(run_config, series, skipped)
    write_batch_results(summary, output)
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
    click.option("--input", default=None, help="Measurement CSV."),
    click.option("--output", default=None, help="Result JSON to write."),
    click.option("--jobs", type=int, default=None, help="Worker processes."),
    click.option("--config", "config_path", default=None, help="JSON config file."),
]
#: ``convergence`` always keeps the history, so only ``run`` and ``batch`` take it.
_retain_history_option = click.option("--retain-history", is_flag=True, default=None)


def _with_options(options):
    def wrap(func):
        for option in reversed(options):
            func = option(func)
        return func

    return wrap


@main.command()
@_with_options(_shared_run_options)
@_retain_history_option
def run(**options):
    """Run one algorithm on every series in a measurement CSV."""
    summary, _ = _run_batch_command(**options)
    sys.exit(EXIT_PARTIAL if summary.n_failed else EXIT_OK)


@main.command()
@_with_options(_shared_run_options)
@_retain_history_option
@click.option("--labels", "labels_path", default=None, help="series_id,label CSV.")
@click.option("--summary", "summary_path", default=None, help="Ratio summary JSON to write.")
def batch(labels_path, summary_path, **options):
    """Gene-panel workflow: pathspace filter per series plus a ratio summary."""
    if labels_path and not summary_path:
        raise InvalidConfigError("--labels applies only with --summary")
    # before any series runs: a bad labels file costs no batch and writes no results
    labels = read_labels_csv(labels_path) if labels_path else {}
    summary, series = _run_batch_command(
        pkf_only="the batch workflow runs the pathspace filter", **options
    )
    if summary_path:
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
    settings = {**_load_config_file(config_path, _BIRTH_DEATH_KEYS), **_given(seed=seed)}
    report = run_benchmark(BirthDeathScenario(**settings), table_specs())
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
def convergence(**options):
    """Run the pathspace filter with full history for convergence plots."""
    summary, _ = _run_batch_command(
        pkf_only="convergence traces apply to the pathspace filter", retain_history=True,
        **options,
    )
    sys.exit(EXIT_PARTIAL if summary.n_failed else EXIT_OK)


if __name__ == "__main__":
    main()
