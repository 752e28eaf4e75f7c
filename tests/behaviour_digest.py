"""One sha256 over the numeric behaviour of every algorithm.

Run from the root of a checkout::

    PYTHONPATH=src python tests/behaviour_digest.py [--expect HEX]

It prints a single hex digest over the trajectories and the error strings
of the runs below. With ``--expect``, it exits 1, printing both digests,
unless the digest starts with the given hex prefix, so a before/after
check is one command. The runs are:

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
- the command line itself, with valid config files (:data:`COMMANDS`):
  ``simulate`` for both scenarios, ``run``, ``batch --summary --labels``,
  ``convergence`` and ``bench --trajectories``, each with flags over some
  of its file's keys. Each adds its exit code, stdout and stderr, with the
  run directory spelled ``{dir}``, and the bytes of every file it writes.

A refactor that must not change results gives the same digest before and
after it. The script uses only public names that older commits have too,
so it runs unchanged on them. pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import re
import sys
import tempfile
import warnings

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

#: (algorithm, q, iterations, retain_history) of each command-line batch.
CLI_RUNS = (
    ("pkf", None, PKF_ITERATIONS, True),
    *((name, q, 1, False) for name in ("kf", "ukf", "urts") for q in (1.0, 10.0)),
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


class Digest:
    """A sha256 over labelled runs: each run's arrays, or its error."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.runs = 0
        self.errors = 0

    def add(self, label: str, arrays=(), error: str | None = None) -> None:
        self.runs += 1
        self.sha.update(label.encode())
        if error is not None:
            self.errors += 1
            self.sha.update(error.encode())
        for arr in arrays:
            self.sha.update(np.ascontiguousarray(arr, dtype=float).tobytes())

    def add_text(self, label: str, text: str, error: bool = False) -> None:
        self.runs += 1
        self.errors += error
        self.sha.update(label.encode())
        self.sha.update(text.encode())

    def run(self, label: str, compute) -> None:
        """Add the arrays ``compute()`` returns, or the error it raises."""
        try:
            arrays = compute()
        except Exception as exc:  # a bare Python error is behaviour too
            self.add(label, error=f"{type(exc).__name__}: {exc}")
        else:
            self.add(label, arrays)


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


def add_cli_batches(digest: Digest, blocks) -> None:
    """Every block through ``batch_run`` under each of ``CLI_RUNS``."""
    logging.disable(logging.NOTSET)
    package_logger = logging.getLogger("pathkf")
    warned = WarningLines()
    package_logger.addHandler(warned)
    package_logger.propagate = False
    directory = tempfile.TemporaryDirectory()
    document = os.path.join(directory.name, "batch.json")
    try:
        for b, block in enumerate(blocks):
            for kind in ModelKind:
                for algorithm, q, iterations, history in CLI_RUNS:
                    config = RunConfig(algorithm=algorithm, model=kind, iterations=iterations,
                                       q=q, retain_history=history)
                    label = f"{b} {kind.value} cli {algorithm} q={q}"
                    summary = batch_run(config, tuple(block))
                    for o in summary.outcomes:
                        if o.error is None:
                            digest.add_text(f"{label} {o.series_id}",
                                            json.dumps(result_record(o.result)))
                        else:
                            digest.add_text(f"{label} {o.series_id}", o.error, error=True)
                    digest.sha.update("\n".join(warned.lines).encode())
                    warned.lines.clear()
                    write_batch_results(summary, document)
                    with open(document, "rb") as handle:
                        digest.sha.update(handle.read())
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
            digest.add_text(f"command {n} {args[0]}", text.replace(directory.name, "{dir}"),
                            error=result.exit_code != 0)
            for name in written:
                with open(os.path.join(directory.name, name), "rb") as handle:
                    digest.sha.update(handle.read())
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
    expect = parser.parse_args(argv).expect
    logging.disable(logging.CRITICAL)
    warnings.simplefilter("ignore")
    rng = np.random.default_rng(20240611)
    blocks = [random_series(rng, False) for _ in range(N_MILD // BLOCK)]
    blocks += [random_series(rng, True) for _ in range(N_HARSH // BLOCK)]
    blocks.append(spike_pair())
    digest = Digest()
    with np.errstate(all="ignore"):
        for b, block in enumerate(blocks):
            for kind in ModelKind:
                for s, data in enumerate(block):
                    for q in (1.0, 10.0):
                        for name, run in BASELINES.items():
                            digest.run(
                                f"{b}/{s} {kind.value} {name} q={q}",
                                lambda: moments(run(data, kind, q)),
                            )
                    digest.run(
                        f"{b}/{s} {kind.value} pkf",
                        lambda: pkf_arrays(run_pkf(data, kind, PKF_ITERATIONS, True)),
                    )
                digest.run(f"{b} {kind.value} block", lambda: [
                    a for result in run_pkf_block(tuple(block), kind, PKF_ITERATIONS, True)
                    for a in pkf_arrays(result)
                ])
        for seed in range(20):
            for row in run_benchmark(BirthDeathScenario(seed=seed), table_specs()).rows:
                label = f"table {seed} {row.spec.label}"
                if row.trajectory is None:
                    digest.add(label, error=row.error)
                else:
                    digest.add(label, moments(row.trajectory))
        add_cli_batches(digest, blocks)
        add_cli_commands(digest)
    hexdigest = digest.sha.hexdigest()
    print(f"{hexdigest}  ({digest.runs} runs, {digest.errors} errors)")
    if expect is not None and not hexdigest.startswith(expect):
        print(f"digest mismatch: expected {expect}…, got {hexdigest}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
