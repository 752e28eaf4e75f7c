"""One sha256 over the numeric behaviour of every algorithm.

Run from the root of a checkout::

    PYTHONPATH=src python tests/behaviour_digest.py [--expect HEX] [--dump PATH] [--against PATH]

It prints a single hex digest over the trajectories and the error strings
of the runs below. With ``--expect``, it exits 1, printing both digests,
unless the digest starts with the given hex prefix, so a before/after
check is one command. ``--dump`` saves every run by its label: its arrays
or its error, the text of each batch's warning lines, and the sha256 of
every other text it digests (JSON records, batch documents, command
output). ``--against`` compares this run with such a dump, run by run, and
prints per class (algorithm, model, and mild, harsh or spike series) how
many runs are bit-identical, logged the same warning lines in another
order (``reordered``, batches only), moved, changed their error text, or
switched between a result and an error, with the largest move of the means
over the series' scale (the largest absolute data mean) and of the
variances over the run's largest variance, then every changed error
problem, and then, per warnings class whose lines moved, how many lines
were removed and added (batch by batch, as multisets) and each distinct
message. Its last line counts the runs that are ``same`` out of all runs
and names every class with a run that is not. Dump on the old commit,
compare on the new one. The runs are:

- the baseline set: 500 mild and 150 harsh random series and the
  spike-pair series (:func:`spike_pair`), both models,
  ``q`` in {1, 10}, and ``kf``, ``ukf``, ``urts``, ``ipls`` with 1 and with
  3 iterations (13,020 runs), plus all 12 rows of the method-comparison
  table on ``BirthDeathScenario(seed=0..19)`` (240 runs);
- the pathspace filter on the same 651 series, both models, as
  ``run_pkf(retain_history=True)`` (every state of the history and both
  traces) and as ``run_pkf_block`` on the blocks of ten consecutive
  series, which share one grid, and on the spike pair alone;
- the command-line path, ``pathkf.cli.batch_run`` at ``jobs=1`` on the same
  blocks, both models: ``pkf`` with 4 iterations (keeping its history),
  ``kf``, ``ukf`` and ``urts`` at ``q`` in {1, 10}, and ``ipls`` at ``q``
  in {1, 10} with 3 iterations. Each outcome adds its JSON record
  (``result_record``) or its error string, and each batch adds the warning
  lines it logged under the ``pathkf`` logger, in order, and the bytes of
  the results document that ``write_batch_results`` writes for it;
- the ragged command-line path: the same batches, both models, each over
  all 651 series at once, interleaved (the first series of every block,
  then the second, and so on, each renamed ``b/s`` by its block and place),
  so that neighbours sit on different grids of mixed lengths. It adds what
  the per-block batches add, in the classes ``ragged cli ...``, its warning
  lines and documents in the class ``all``;
- the command line itself, with valid config files (:data:`COMMANDS`):
  ``simulate`` for both scenarios, ``run``, ``batch --summary --labels``,
  ``convergence`` and ``bench --trajectories``, each with flags over some
  of its file's keys. Each adds its exit code, stdout and stderr, with the
  run directory spelled ``{dir}``, and the bytes of every file it writes.

The command-line batches pass ``iterations`` only to ``pkf`` and ``ipls``,
which read it.

A refactor that must not change results gives the same digest before and
after it. The script uses only public names that older commits have too,
so it runs unchanged on them. pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import re
import sys
import tempfile
import warnings
import zipfile
from collections import Counter, defaultdict
from typing import NamedTuple

import numpy as np

from pathkf import (
    BirthDeathScenario,
    ModelKind,
    TimeGrid,
    TimeSeriesData,
    run_adaptive_kf,
    run_benchmark,
    run_ipls,
    run_pkf,
    run_ukf,
    run_urts,
    table_specs,
)
from click.testing import CliRunner

from pathkf.cli import RunConfig, batch_run, result_record, write_batch_results
from pathkf.cli import main as cli_main
from pathkf.pkf import run_pkf_block

N_MILD, N_HARSH, BLOCK = 500, 150, 10
PKF_ITERATIONS = 4

BASELINES = {
    "kf": lambda data, kind, q: run_adaptive_kf(data, kind, q=q),
    "ukf": lambda data, kind, q: run_ukf(data, kind, q=q),
    "urts": lambda data, kind, q: run_urts(data, kind, q=q),
    "ipls-1": lambda data, kind, q: run_ipls(data, kind, q=q, iterations=1),
    "ipls-3": lambda data, kind, q: run_ipls(data, kind, q=q, iterations=3),
}

#: (algorithm, q, iterations, retain_history) of each command-line batch;
#: ``iterations`` is None for the algorithms that do not read it.
CLI_RUNS = (
    ("pkf", None, PKF_ITERATIONS, True),
    *((name, q, None, False) for name in ("kf", "ukf", "urts") for q in (1.0, 10.0)),
    *(("ipls", q, 3, False) for q in (1.0, 10.0)),
)

#: (config file, arguments, files written) of each command-line run, in
#: order; ``{dir}`` is the run directory. Flags win over the file's keys.
COMMANDS = (
    (
        {"n0": 50, "t_end": 6.0, "dt": 0.5, "replicates": 3, "seed": 1,
         "birth": {"breaks": [0, 2.5], "values": [0.4, 0.1]},
         "death": {"breaks": [0.0], "values": [0.2]},
         "noise": {"breaks": [0.0, 3], "values": [0.5, 2.0]}},
        ["simulate", "--seed", "5", "--output", "{dir}/bd.csv", "--truth", "{dir}/bd_truth.csv"],
        ("bd.csv", "bd_truth.csv"),
    ),
    (
        {"n_genes": 6, "n_timepoints": 9, "spacing": 1.5, "replicates": 2,
         "noise_level": 0.1, "seed": 1},
        ["simulate", "--scenario", "gene-panel", "--seed", "4", "--output", "{dir}/panel.csv",
         "--truth", "{dir}/panel_truth.csv", "--labels", "{dir}/labels.csv"],
        ("panel.csv", "panel_truth.csv", "labels.csv"),
    ),
    (
        {"algorithm": "kf", "model": "const-reg", "q": 2, "jobs": 1,
         "input": "{dir}/panel.csv", "output": "{dir}/ignored.json"},
        ["run", "--algorithm", "ipls", "--iterations", "2", "--output", "{dir}/run_ipls.json"],
        ("run_ipls.json",),
    ),
    (
        {"algorithm": "pkf", "iterations": 5, "retain_history": True,
         "input": "{dir}/bd.csv", "output": "{dir}/run_pkf.json"},
        ["run", "--iterations", "3", "--model", "const-reg"],
        ("run_pkf.json",),
    ),
    (
        {"model": "birth-death", "iterations": 4, "jobs": 1, "input": "{dir}/panel.csv",
         "output": "{dir}/ignored.json"},
        ["batch", "--model", "const-reg", "--iterations", "2", "--output", "{dir}/batch.json",
         "--summary", "{dir}/summary.json", "--labels", "{dir}/labels.csv"],
        ("batch.json", "summary.json"),
    ),
    (
        {"iterations": 6, "retain_history": False, "input": "{dir}/bd.csv",
         "output": "{dir}/trace.json"},
        ["convergence", "--iterations", "3"],
        ("trace.json",),
    ),
    (
        {"t_end": 4.0, "dt": 0.5, "replicates": 4, "seed": 2,
         "noise": {"breaks": [0.0], "values": [1.5]}},
        ["bench", "--seed", "3", "--output", "{dir}/table.csv",
         "--trajectories", "{dir}/traces.json"],
        ("table.csv", "traces.json"),
    ),
)


def spike_pair() -> list[TimeSeriesData]:
    """A block of one series whose ``kf`` estimate goes non-finite mid-way
    on the const-reg model: 14 timepoints on ``2 * arange(14)``, the fifth
    two replicates of 1e300. Its warning lines show where ``kf`` stops."""
    groups = tuple(
        np.array([1e300, 1e300]) if t == 4 else np.array([10.0 + t, 10.5 + t]) for t in range(14)
    )
    return [TimeSeriesData("spike-pair", TimeGrid(2.0 * np.arange(14)), groups)]


def random_series(rng: np.random.Generator, harsh: bool) -> list[TimeSeriesData]:
    """One block of ``BLOCK`` series on one random grid.

    Mild series are positive levels with a few percent of noise and 2-6
    replicates. Harsh ones span scales from 1e-6 to 1e8, may go negative,
    have 1-3 replicates, and now and then carry a spike up to 1e150 or a
    replicate spread near 1e80, so that the overflow and degenerate-window
    paths run too.
    """
    n = int(rng.integers(3, 26))
    grid = TimeGrid(np.cumsum(np.r_[rng.uniform(-5.0, 5.0), rng.uniform(0.05, 2.0, n - 1)]))
    block = []
    for _ in range(BLOCK):
        if harsh:
            scale = 10.0 ** rng.uniform(-6.0, 8.0)
            level = scale * rng.uniform(-0.5, 2.0, n)
            groups = [v + scale * rng.standard_normal(rng.integers(1, 4)) for v in level]
            if rng.random() < 0.3:
                groups[rng.integers(n)] = np.array([10.0 ** rng.uniform(20.0, 150.0)])
            if rng.random() < 0.2:
                groups[rng.integers(n)] = np.array([0.0, 10.0 ** rng.uniform(60.0, 80.0)])
        else:
            level = rng.uniform(5.0, 100.0) * np.exp(np.cumsum(rng.normal(0.0, 0.2, n)))
            groups = [v * (1.0 + 0.05 * rng.standard_normal(rng.integers(2, 7))) for v in level]
        block.append(TimeSeriesData(f"s{len(block)}", grid, tuple(groups)))
    return block


def series_class(b: int) -> str:
    """The kind of the series in block ``b``: mild, harsh or the spike pair."""
    if b < N_MILD // BLOCK:
        return "mild"
    return "harsh" if b < (N_MILD + N_HARSH) // BLOCK else "spike"


class Run(NamedTuple):
    """One run as ``--dump`` keeps it: its class, its arrays or its error,
    or the sha256 of its text, for a trajectory the series' scale, and for
    warning lines their text."""

    group: tuple[str, ...]
    arrays: list[np.ndarray]
    error: str | None = None
    text: str | None = None
    scale: float | None = None
    lines: list[str] | None = None


class Digest:
    """A sha256 over labelled runs: each run's arrays, or its error. With
    ``keep``, it also keeps each run by its label, for ``--dump`` and
    ``--against``."""

    def __init__(self, keep: bool = False):
        self.sha = hashlib.sha256()
        self.runs = 0
        self.errors = 0
        self.kept: dict[str, Run] | None = {} if keep else None

    def _keep(self, label: str, run: Run) -> None:
        if self.kept is not None:
            self.kept[label] = run

    def add(self, label: str, group: tuple[str, ...], arrays=(), error: str | None = None,
            scale: float | None = None) -> None:
        self.runs += 1
        self.sha.update(label.encode())
        if error is not None:
            self.errors += 1
            self.sha.update(error.encode())
        for arr in arrays:
            self.sha.update(np.ascontiguousarray(arr, dtype=float).tobytes())
        self._keep(label, Run(group, [np.array(a, dtype=float).ravel() for a in arrays], error,
                              scale=scale))

    def add_text(self, label: str, group: tuple[str, ...], text: str, error: bool = False) -> None:
        self.runs += 1
        self.errors += error
        self.sha.update(label.encode())
        self.sha.update(text.encode())
        self._keep(label, Run(group, [], text if error else None,
                              None if error else hashlib.sha256(text.encode()).hexdigest()))

    def add_bytes(self, label: str, group: tuple[str, ...], payload: bytes,
                  lines: list[str] | None = None) -> None:
        """Digest ``payload`` alone, as part of the run before it: not a run.
        ``lines``, the text ``payload`` encodes, is kept for ``--against``."""
        self.sha.update(payload)
        self._keep(label, Run(group, [], text=hashlib.sha256(payload).hexdigest(), lines=lines))

    def run(self, label: str, group: tuple[str, ...], compute,
            scale: float | None = None) -> None:
        """Add the arrays ``compute()`` returns, or the error it raises."""
        try:
            arrays = compute()
        except Exception as exc:  # a bare Python error is behaviour too
            self.add(label, group, error=f"{type(exc).__name__}: {exc}", scale=scale)
        else:
            self.add(label, group, arrays, scale=scale)


def save_dump(runs: dict[str, Run], path: str) -> None:
    """Every kept run in one ``.npz`` file: the arrays end to end, and a
    JSON index of the labels, classes, errors, text hashes, sizes and
    warning lines."""
    index = [[label, list(r.group), r.error, r.text, r.scale, [len(a) for a in r.arrays], r.lines]
             for label, r in runs.items()]
    arrays = [a for r in runs.values() for a in r.arrays]
    with open(path, "wb") as handle:
        np.savez_compressed(
            handle, values=np.concatenate(arrays) if arrays else np.zeros(0),
            index=np.frombuffer(json.dumps(index).encode(), dtype=np.uint8),
        )


def load_dump(path: str) -> dict[str, Run]:
    """The runs that :func:`save_dump` wrote to ``path``; a dump written
    before warning lines were kept has none."""
    with np.load(path, allow_pickle=False) as npz:
        values = npz["values"]
        index = json.loads(npz["index"].tobytes())
    runs, at = {}, 0
    for label, group, error, text, scale, sizes, *lines in index:
        arrays = []
        for size in sizes:
            arrays.append(values[at:at + size])
            at += size
        runs[label] = Run(tuple(group), arrays, error, text, scale, *lines)
    if at != len(values):
        raise ValueError("the index does not cover the values")
    return runs


#: The location that starts every located error text.
WHERE = re.compile(r"series '[^']*': timepoint \d+ \(t=[^)]*\): ")


def relative_move(old: np.ndarray, new: np.ndarray, scale: float) -> float:
    """The largest ``|new - old|`` over ``scale``; ``inf`` where one side
    is not finite and the other differs."""
    with np.errstate(all="ignore"):
        move = np.abs(new - old)
    move[(old == new) | (np.isnan(old) & np.isnan(new))] = 0.0
    move[np.isnan(move)] = np.inf
    if scale > 0:
        return float(move.max(initial=0.0) / scale)
    return math.inf if move.any() else 0.0


def compare(old: dict[str, Run], new: dict[str, Run]) -> list[str]:
    """The per-class report of ``--against``: ``new`` runs against ``old``."""
    counts: dict[str, Counter] = defaultdict(Counter)
    moves: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    changed: dict[str, Counter] = defaultdict(Counter)
    removed: dict[str, Counter] = defaultdict(Counter)
    added: dict[str, Counter] = defaultdict(Counter)
    for label in old.keys() - new.keys():
        counts[" ".join(old[label].group)]["gone"] += 1
    for label, run in new.items():
        group = " ".join(run.group)
        before = old.get(label)
        if before is not None and before.lines is not None and run.lines is not None:
            removed[group].update(Counter(before.lines) - Counter(run.lines))
            added[group].update(Counter(run.lines) - Counter(before.lines))
        if before is None:
            counts[group]["new"] += 1
        elif before.error is not None or run.error is not None:
            if before.error == run.error:
                counts[group]["same"] += 1
                continue
            counts[group]["text" if before.error and run.error
                          else "ok>err" if run.error else "err>ok"] += 1
            was = WHERE.match(before.error or "")
            now = WHERE.match(run.error or "")
            moved_place = (was and was.group()) != (now and now.group())
            changed[group][(WHERE.sub("", before.error or "(result)"),
                            WHERE.sub("", run.error or "(result)"), moved_place)] += 1
        elif before.text == run.text and [a.tobytes() for a in before.arrays] == [
            a.tobytes() for a in run.arrays
        ]:
            counts[group]["same"] += 1
        elif before.lines is not None and run.lines is not None and (
            Counter(before.lines) == Counter(run.lines)
        ):
            counts[group]["reordered"] += 1
        else:
            counts[group]["moved"] += 1
            if run.scale is not None and len(run.arrays) == len(before.arrays) == 2 and all(
                a.shape == b.shape for a, b in zip(run.arrays, before.arrays)
            ):
                (m0, v0), (m1, v1) = before.arrays, run.arrays
                largest = float(max(np.abs(v0).max(initial=0.0), np.abs(v1).max(initial=0.0)))
                move = moves[group]
                move[0] = max(move[0], relative_move(m0, m1, run.scale))
                move[1] = max(move[1], relative_move(v0, v1, largest))
    columns = ("same", "reordered", "moved", "text", "ok>err", "err>ok", "gone", "new")
    lines = [f"{'class':<34}" + "".join(f"{c:>10}" for c in columns)
             + f"{'mean/scale':>12}{'var/max':>10}"]
    for group in sorted(counts):
        move = (f"{moves[group][0]:>12.2g}{moves[group][1]:>10.2g}" if group in moves else "")
        lines.append(f"{group:<34}" + "".join(f"{counts[group][c]:>10}" for c in columns) + move)
    for group in sorted(changed):
        for (was, now, moved_place), n in sorted(changed[group].items()):
            place = ", elsewhere" if moved_place else ""
            lines.append(f"{group}: {n} x {was!r} -> {now!r}{place}")
    for group in sorted(removed.keys() | added.keys()):
        gone, came = removed[group], added[group]
        if not (gone or came):
            continue
        lines.append(f"{group}: {gone.total()} lines removed ({len(gone)} distinct), "
                     f"{came.total()} added ({len(came)} distinct)")
        lines += [f"  - {n} x {message!r}" for message, n in sorted(gone.items())]
        lines += [f"  + {n} x {message!r}" for message, n in sorted(came.items())]
    same = sum(c["same"] for c in counts.values())
    total = sum(c.total() for c in counts.values())
    differing = [group for group in sorted(counts) if counts[group]["same"] < counts[group].total()]
    lines.append(f"{same} of {total} runs same" + (
        f"; not same: {', '.join(differing)}" if differing else ""))
    return lines


def moments(trajectory) -> tuple[np.ndarray, np.ndarray]:
    return trajectory.means, trajectory.variances


def pkf_arrays(result) -> list[np.ndarray]:
    out = [result.max_abs_dq, result.max_filter_variance]
    for state in result.history:
        w = state.weights
        out += [state.filter.means, state.filter.variances, state.process_uncertainty,
                w.w_data, w.w_model, w.w_filter]
    return out


class WarningLines(logging.Handler):
    """Collects the messages logged at warning level or above."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.lines: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.lines.append(record.getMessage())


def interleaved(blocks) -> tuple[TimeSeriesData, ...]:
    """The series of every block, interleaved: the first of each block, then
    the second, and so on, each renamed ``b/s`` by its block and place."""
    return tuple(
        TimeSeriesData(f"{b}/{s}", block[s].grid, block[s].samples)
        for s in range(BLOCK) for b, block in enumerate(blocks) if s < len(block)
    )


def add_cli_batches(digest: Digest, blocks) -> None:
    """Every block through ``batch_run`` under each of ``CLI_RUNS``, and then
    all their series at once, :func:`interleaved`."""
    logging.disable(logging.NOTSET)
    package_logger = logging.getLogger("pathkf")
    warned = WarningLines()
    package_logger.addHandler(warned)
    package_logger.propagate = False
    directory = tempfile.TemporaryDirectory()
    document = os.path.join(directory.name, "batch.json")
    # (label, class prefix, series, class of the batch, class of each series)
    batches = [(str(b), "cli", tuple(block), series_class(b), [series_class(b)] * len(block))
               for b, block in enumerate(blocks)]
    ragged = interleaved(blocks)
    batches.append(("ragged", "ragged cli", ragged, "all",
                    [series_class(int(data.series_id.split("/")[0])) for data in ragged]))
    try:
        for name, prefix, series, batch_class, classes in batches:
            for kind in ModelKind:
                for algorithm, q, iterations, history in CLI_RUNS:
                    read = {} if iterations is None else {"iterations": iterations}
                    config = RunConfig(algorithm=algorithm, model=kind, q=q,
                                       retain_history=history, **read)
                    label = f"{name} {kind.value} cli {algorithm} q={q}"
                    summary = batch_run(config, series)
                    for o, class_ in zip(summary.outcomes, classes):
                        group = (f"{prefix} {algorithm}", kind.value, class_)
                        if o.error is None:
                            digest.add_text(f"{label} {o.series_id}", group,
                                            json.dumps(result_record(o.result)))
                        else:
                            digest.add_text(f"{label} {o.series_id}", group, o.error, error=True)
                    batch = (kind.value, batch_class)
                    digest.add_bytes(f"{label} warnings", (f"{prefix} {algorithm} warnings", *batch),
                                     "\n".join(warned.lines).encode(), list(warned.lines))
                    warned.lines.clear()
                    write_batch_results(summary, document)
                    with open(document, "rb") as handle:
                        digest.add_bytes(f"{label} document", (f"{prefix} {algorithm} document",
                                                               *batch), handle.read())
    finally:
        package_logger.removeHandler(warned)
        package_logger.propagate = True
        logging.disable(logging.CRITICAL)
        directory.cleanup()


def add_cli_commands(digest: Digest) -> None:
    """Every run of ``COMMANDS`` through the command line, in one directory."""
    directory = tempfile.TemporaryDirectory()

    def placed(value):
        if isinstance(value, str):
            return value.replace("{dir}", directory.name)
        if isinstance(value, dict):
            return {key: placed(item) for key, item in value.items()}
        return value

    try:
        for n, (config, args, written) in enumerate(COMMANDS):
            config_path = os.path.join(directory.name, f"config{n}.json")
            with open(config_path, "w") as handle:
                json.dump(placed(config), handle)
            result = CliRunner().invoke(cli_main, [*map(placed, args), "--config", config_path])
            text = f"{result.exit_code}\n{result.stdout}\n{result.stderr}"
            digest.add_text(f"command {n} {args[0]}", ("command",),
                            text.replace(directory.name, "{dir}"), error=result.exit_code != 0)
            for name in written:
                with open(os.path.join(directory.name, name), "rb") as handle:
                    digest.add_bytes(f"command {n} {name}", ("command file",), handle.read())
    finally:
        directory.cleanup()


def hex_prefix(text: str) -> str:
    """``text`` lowercased, if it is a non-empty hex string."""
    if not re.fullmatch("[0-9a-fA-F]+", text):
        raise argparse.ArgumentTypeError(f"not a hex prefix: {text!r}")
    return text.lower()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print the behaviour digest.")
    parser.add_argument("--expect", type=hex_prefix, metavar="HEX",
                        help="exit 1 unless the digest starts with this hex prefix")
    parser.add_argument("--dump", metavar="PATH", help="save every run here, by its label")
    parser.add_argument("--against", metavar="PATH",
                        help="compare every run with a --dump file, per class")
    args = parser.parse_args(argv)
    reference = None
    if args.against is not None:
        try:
            reference = load_dump(args.against)
        except (OSError, ValueError, KeyError, TypeError, zipfile.BadZipFile) as exc:
            parser.error(f"cannot read the dump {args.against!r}: {exc}")
    logging.disable(logging.CRITICAL)
    warnings.simplefilter("ignore")
    rng = np.random.default_rng(20240611)
    blocks = [random_series(rng, False) for _ in range(N_MILD // BLOCK)]
    blocks += [random_series(rng, True) for _ in range(N_HARSH // BLOCK)]
    blocks.append(spike_pair())
    digest = Digest(keep=args.dump is not None or reference is not None)
    with np.errstate(all="ignore"):
        for b, block in enumerate(blocks):
            for kind in ModelKind:
                for s, data in enumerate(block):
                    scale = float(np.max(np.abs(data.summaries()[0])))
                    for q in (1.0, 10.0):
                        for name, run in BASELINES.items():
                            digest.run(
                                f"{b}/{s} {kind.value} {name} q={q}",
                                (name, kind.value, series_class(b)),
                                lambda: moments(run(data, kind, q)), scale,
                            )
                    digest.run(
                        f"{b}/{s} {kind.value} pkf", ("pkf", kind.value, series_class(b)),
                        lambda: pkf_arrays(run_pkf(data, kind, PKF_ITERATIONS, True)),
                    )
                digest.run(
                    f"{b} {kind.value} block", ("pkf block", kind.value, series_class(b)),
                    lambda: [a for result in run_pkf_block(tuple(block), kind, PKF_ITERATIONS, True)
                             for a in pkf_arrays(result)],
                )
        for seed in range(20):
            report = run_benchmark(BirthDeathScenario(seed=seed), table_specs())
            scale = float(np.max(np.abs(report.data.summaries()[0])))
            for row in report.rows:
                label = f"table {seed} {row.spec.label}"
                group = ("table", row.spec.label)
                if row.trajectory is None:
                    digest.add(label, group, error=row.error, scale=scale)
                else:
                    digest.add(label, group, moments(row.trajectory), scale=scale)
        add_cli_batches(digest, blocks)
        add_cli_commands(digest)
    hexdigest = digest.sha.hexdigest()
    print(f"{hexdigest}  ({digest.runs} runs, {digest.errors} errors)")
    if args.dump is not None:
        save_dump(digest.kept, args.dump)
    if reference is not None:
        print("\n".join(compare(reference, digest.kept)))
    if args.expect is not None and not hexdigest.startswith(args.expect):
        print(f"digest mismatch: expected {args.expect}…, got {hexdigest}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
