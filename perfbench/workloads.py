"""The benchmark's workloads: seeded inputs, the timed pass, the correctness
gate and the accuracy figures of each. NOTES.md says why each one exists.

Inputs come only from the seed. The package's ``synth`` module builds them
before any timing starts; the timed pass then calls the public API the way
the CLI and the comparison harness do, looking each function up on its
module at call time so that a traced run sees the call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import pickle
import statistics
from time import perf_counter
from typing import NamedTuple

import numpy as np
import pathkf.bench
import pathkf.cli
import pathkf.pkf
from pathkf import synth
from pathkf.cli import RunConfig
from pathkf.models import ModelKind

#: Filter iterations per series in the panel workloads (the CLI default).
PANEL_ITERATIONS = 10
#: Genes in the shared-grid panel.
PANEL_GENES = 200
#: Series in the ragged panel, every RAGGED_SHORT_EVERY-th of them too short.
RAGGED_SERIES = 150
RAGGED_SHORT_EVERY = 25
#: Birth/death datasets cycled through by bd-long, and iterations per run.
BD_DATASETS = 64
BD_ITERATIONS = 20
#: Scenarios cycled through by the comparison table.
TABLE_DATASETS = 12
#: Pool results recomputed at jobs=1 to check that parallelism changes nothing.
POOL_CHECK_SERIES = 8
#: Criterion 5: Q at each change point over the median quiet Q.
SPIKE_FACTOR_MIN = 5.0


def _sha256_files(*paths: str) -> str:
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def dataset_seed(seed: int, k: int) -> int:
    """Seed of the ``k``-th dataset a workload derives from the run's seed."""
    return seed * 1000 + k


def write_panel_csv(seed: int, n_genes: int, path: str):
    """Shared-grid const-reg panel as a measurement CSV.

    Returns ``(truths, labels, rows, n_short)``: true values and the
    dynamic/static label per series, the CSV's data rows, and the number of
    series too short to filter.
    """
    scenario = synth.GenePanelScenario.default(n_genes=n_genes, seed=seed)
    panel = synth.simulate_gene_panel(scenario)
    pathkf.cli.write_series_csv([data for _, data in panel], path)
    truths = {data.series_id: truth.values for truth, data in panel}
    rows = sum(len(group) for _, data in panel for group in data.samples)
    return truths, synth.panel_labels(scenario), rows, 0


def write_ragged_csv(seed: int, n_series: int, path: str):
    """Const-reg panel in which no two series share a time grid.

    Each series has 8-20 timepoints with random gaps and a random start, and
    keeps 1-3 of its replicates at each timepoint. Even-numbered series step
    their expression rate at an interior timepoint. Every
    ``RAGGED_SHORT_EVERY``-th series has only one or two timepoints, so the
    reader skips it. Returns what :func:`write_panel_csv` returns.
    """
    rng = np.random.default_rng([seed, 1])
    truths, labels = {}, {}
    rows = n_short = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["series_id", "time", "value"])
        for i in range(n_series):
            series_id = f"ragged{i:04d}"
            if i % RAGGED_SHORT_EVERY == RAGGED_SHORT_EVERY - 1:
                n_short += 1
                for t in range(int(rng.integers(1, 3))):
                    writer.writerow([series_id, repr(float(t)), repr(float(rng.normal(10.0, 1.0)))])
                    rows += 1
                continue
            n_tp = int(rng.integers(8, 21))
            gaps = rng.uniform(0.5, 3.0, n_tp - 1)
            times = float(rng.uniform(0.0, 1.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
            k_deg = float(rng.uniform(0.2, 1.0))
            steady = float(rng.uniform(5.0, 50.0))
            k_exp = steady * k_deg
            if i % 2 == 0:
                t_cp = float(times[int(rng.integers(3, n_tp - 3))])
                factor = float(rng.uniform(4.0, 8.0))
                expression = synth.PiecewiseConstant((0.0, t_cp), (k_exp, k_exp * factor))
                label = synth.DYNAMIC_LABEL
            else:
                expression = synth.PiecewiseConstant.constant(k_exp)
                label = synth.STATIC_LABEL
            gene = synth.GeneSpec(
                series_id, expression, synth.PiecewiseConstant.constant(k_deg),
                steady, 0.02 * steady, label,
            )
            scenario = synth.GenePanelScenario(
                (gene,), tuple(float(t) for t in times), replicates=3,
                seed=int(rng.integers(2**31)),
            )
            ((truth, data),) = synth.simulate_gene_panel(scenario)
            keep = rng.integers(1, 4, n_tp)
            for t, group, k in zip(times, data.samples, keep):
                for value in group[:k]:
                    writer.writerow([series_id, repr(float(t)), repr(float(value))])
                    rows += 1
            truths[series_id] = truth.values
            labels[series_id] = label
    return truths, labels, rows, n_short


def spike_factor(result, data) -> float:
    """Criterion 5: the smaller of Q at t=5 and t=15 over the median quiet Q."""
    q = result.final.process_uncertainty
    t = data.grid.times
    i5 = int(np.argmin(np.abs(t - 5.0)))
    i15 = int(np.argmin(np.abs(t - 15.0)))
    quiet = ((t >= 1.0) & (t <= 4.0)) | ((t >= 16.0) & (t <= 19.0))
    median_quiet = float(np.median(q[quiet]))
    return min(float(q[i5]), float(q[i15])) / median_quiet


def table_problems(mses: dict[str, float]) -> list[str]:
    """Criterion 4: the PKF band, its dominance and the baseline orderings."""
    problems = []
    pkf10 = mses["pkf-i10"]
    baselines = {k: v for k, v in mses.items() if not k.startswith("pkf")}
    if not pkf10 <= 5.0:
        problems.append(f"pkf-i10 MSE {pkf10:.3f} above 5")
    if not all(pkf10 < 0.5 * v for v in baselines.values()):
        problems.append("pkf-i10 does not halve every baseline's MSE")
    for low, high in (("kf-q10", "kf-q1"), ("ukf-q10", "ukf-q1"), ("urts-q10", "urts-q1"),
                      ("ipls-q10-i1", "ipls-q1-i1"), ("ipls-q10-i10", "ipls-q1-i10")):
        if not mses[low] <= mses[high]:
            problems.append(f"{low} MSE above {high}")
    best = min(baselines, key=baselines.get)
    if best != "ipls-q10-i10":
        problems.append(f"best baseline is {best}, not ipls-q10-i10")
    return problems


class Workload:
    """Common bookkeeping: counts, gate problems and result digests.

    ``trace_variants`` lists the passes of one traced cycle as
    ``(label, jobs, traced)``; ``jobs=None`` means the workload's own.
    """

    name = ""
    min_passes = 1
    #: Worker processes a pass keeps busy at once.
    jobs = 1
    trace_variants = (("plain", None, False), ("traced", None, True))

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._digests: dict[object, str] = {}

    def _same_result(self, key, digest: str) -> None:
        """Every pass on the same input must produce the same result bytes."""
        first = self._digests.setdefault(key, digest)
        if first != digest:
            self.problems.append(f"{self.name}: result bytes for {key!r} differ between passes")

    def finish(self) -> None:
        """Checks that need the whole run; adds to ``problems``."""

    def accuracy(self) -> tuple[float, float]:
        """``(mse, changepoint_score)`` of the run's outputs."""
        raise NotImplementedError


class PanelOutput(NamedTuple):
    series: tuple
    summary: object
    ratio: object
    batch_s: float


class CsvPanel(Workload):
    """CSV in, ``batch_run`` of the PKF per series, results and summary out."""

    def __init__(self, name: str, seed: int, workdir: str, jobs: int, generate, size: int):
        super().__init__()
        self.name = name
        self.jobs = jobs
        self.csv_path = os.path.join(workdir, "input.csv")
        self.results_path = os.path.join(workdir, "results.json")
        self.summary_path = os.path.join(workdir, "summary.json")
        self.truths, self.labels, self.csv_rows, self.n_short = generate(seed, size, self.csv_path)
        self.first: PanelOutput | None = None

    def config(self, jobs: int | None) -> RunConfig:
        return RunConfig(
            algorithm="pkf", model=ModelKind.CONSTANT_REGULATION,
            iterations=PANEL_ITERATIONS, jobs=jobs or self.jobs,
        )

    def run_pass(self, index: int, jobs: int | None = None) -> PanelOutput:
        cli, bench = pathkf.cli, pathkf.bench
        series, skipped = cli.read_series_csv(self.csv_path)
        start = perf_counter()
        summary = cli.batch_run(self.config(jobs), series, skipped)
        batch_s = perf_counter() - start
        cli.write_batch_results(summary, self.results_path)
        by_id = {data.series_id: data for data in series}
        results = [
            (self.labels[o.series_id], o.result, by_id[o.series_id])
            for o in summary.outcomes
            if o.error is None
        ]
        ratio = bench.q_ratio_summary(results)
        cli.write_result(ratio, self.summary_path)
        return PanelOutput(series, summary, ratio, batch_s)

    def record(self, out: PanelOutput) -> None:
        self.attempted += len(out.summary.outcomes)
        self.failed += out.summary.n_failed
        if len(out.summary.skipped) != self.n_short:
            self.problems.append(
                f"{self.name}: {len(out.summary.skipped)} series skipped, expected {self.n_short}"
            )
        self._same_result("results", _sha256_files(self.results_path, self.summary_path))
        if self.first is None:
            self.first = out

    @property
    def results_bytes(self) -> int:
        return os.path.getsize(self.results_path)

    def accuracy(self) -> tuple[float, float]:
        """Mean per-series MSE over squared mean truth, and the contrast of
        criterion 10: dynamic minus static mean of log(mean Q / mean V(Z)).

        Averaging Q and V(Z) over time before taking the log keeps the score
        steady across seeds; the mean of per-timepoint logs that the product's
        ratio summary reports swings with the sample variance of two
        replicates. The gate still checks the product's own label means.
        """
        errors = []
        contrast = {synth.DYNAMIC_LABEL: [], synth.STATIC_LABEL: []}
        by_id = {data.series_id: data for data in self.first.series}
        for o in self.first.summary.outcomes:
            if o.error is None:
                truth = self.truths[o.series_id]
                means = o.result.final.filter.means
                errors.append(float(np.mean((means - truth) ** 2) / np.mean(truth) ** 2))
                _, z_vars = by_id[o.series_id].summaries()
                q = o.result.final.process_uncertainty
                contrast[self.labels[o.series_id]].append(math.log(np.mean(q) / np.mean(z_vars)))
        score = statistics.fmean(contrast[synth.DYNAMIC_LABEL]) - statistics.fmean(
            contrast[synth.STATIC_LABEL]
        )
        return statistics.fmean(errors), score


class Panel(CsvPanel):
    """The product's main job: every series on one grid, run on a pool."""

    trace_variants = (("pool", None, False), ("serial", 1, False), ("traced", 1, True))

    def __init__(self, seed: int, workdir: str, nproc: int):
        super().__init__("panel", seed, workdir, nproc, write_panel_csv, PANEL_GENES)

    def finish(self) -> None:
        if self.failed:
            self.problems.append(f"panel: {self.failed} series failed")
        if self.first is None:
            return
        label_means = self.first.ratio.label_means
        if not label_means[synth.DYNAMIC_LABEL] > label_means[synth.STATIC_LABEL]:
            self.problems.append(f"panel: dynamic series do not exceed static ({label_means})")
        if self.jobs == 1:
            return
        # records from the pool must equal a jobs=1 recomputation, byte for byte
        cli = pathkf.cli
        picks = sorted(set(np.linspace(0, len(self.first.series) - 1, POOL_CHECK_SERIES).astype(int)))
        serial = cli.batch_run(self.config(1), tuple(self.first.series[i] for i in picks))
        for i, again in zip(picks, serial.outcomes):
            pooled = self.first.summary.outcomes[i]
            if _outcome_bytes(pooled) != _outcome_bytes(again):
                self.problems.append(f"panel: {pooled.series_id} differs between jobs={self.jobs} and jobs=1")

    def ipc_bytes_per_series(self) -> float:
        """Computed pickle size of one pool task plus its outcome."""
        config = self.config(None)
        by_id = {data.series_id: data for data in self.first.series}
        sizes = [
            len(pickle.dumps((config, by_id[o.series_id]))) + len(pickle.dumps(o))
            for o in self.first.summary.outcomes
        ]
        return statistics.fmean(sizes)


class Ragged(CsvPanel):
    """No shared grids, 1-3 replicates, a few skipped series, no pool."""

    trace_variants = (("serial", 1, False), ("traced", 1, True))

    def __init__(self, seed: int, workdir: str, nproc: int):
        super().__init__("ragged", seed, workdir, 1, write_ragged_csv, RAGGED_SERIES)

    def finish(self) -> None:
        # A timepoint with one replicate has V(Z) at the 1e-9 floor, so the
        # product's mean log(Q/V(Z)) is dominated by how many such points
        # each label happens to draw, and its sign flips between seeds. The
        # time-averaged contrast of accuracy() carries the same direction.
        if self.first is None:
            return
        _, score = self.accuracy()
        if not score > 0:
            self.problems.append(f"ragged: dynamic series do not exceed static ({score:.3f})")


def _outcome_bytes(outcome) -> bytes:
    if outcome.error is not None:
        return outcome.error.encode()
    return json.dumps(pathkf.cli.result_record(outcome.result), indent=2).encode()


class BirthDeathLong(Workload):
    """``run_pkf`` alone on the birth/death benchmark series, many iterations."""

    name = "bd-long"
    min_passes = BD_DATASETS

    def __init__(self, seed: int, workdir: str, nproc: int):
        super().__init__()
        self.datasets = [
            synth.simulate_birth_death(synth.BirthDeathScenario(seed=dataset_seed(seed, k)))
            for k in range(BD_DATASETS)
        ]
        self.mses: dict[int, float] = {}
        self.log_spikes: dict[int, float] = {}

    def run_pass(self, index: int, jobs: int | None = None):
        k = index % BD_DATASETS
        _, data = self.datasets[k]
        try:
            return k, pathkf.pkf.run_pkf(data, ModelKind.BIRTH_DEATH, iterations=BD_ITERATIONS)
        except Exception as exc:  # a failed run is counted and reported, not fatal
            return k, exc

    def record(self, out) -> None:
        k, result = out
        self.attempted += 1
        if isinstance(result, Exception):
            self.failed += 1
            self.problems.append(f"bd-long: dataset {k} failed: {type(result).__name__}: {result}")
            return
        record = json.dumps(pathkf.cli.result_record(result)).encode()
        self._same_result(k, hashlib.sha256(record).hexdigest())
        if k in self.mses:
            return
        truth, data = self.datasets[k]
        self.mses[k] = pathkf.bench.mse(result.final.filter, truth)
        factor = spike_factor(result, data)
        self.log_spikes[k] = math.log(factor)
        if not factor >= SPIKE_FACTOR_MIN:
            self.problems.append(f"bd-long: dataset {k} spike factor {factor:.2f} below 5")

    def accuracy(self) -> tuple[float, float]:
        """Mean final-filter MSE; mean log of the smaller spike factor."""
        return statistics.fmean(self.mses.values()), statistics.fmean(self.log_spikes.values())


class Table(Workload):
    """All twelve rows of the method-comparison table, back to back."""

    name = "table"
    min_passes = TABLE_DATASETS

    def __init__(self, seed: int, workdir: str, nproc: int):
        super().__init__()
        self.scenarios = [
            synth.BirthDeathScenario(seed=dataset_seed(seed, k)) for k in range(TABLE_DATASETS)
        ]
        self.log_mses: dict[int, list[float]] = {}
        self.log_spikes: dict[int, float] = {}

    def run_pass(self, index: int, jobs: int | None = None):
        k = index % TABLE_DATASETS
        bench = pathkf.bench
        return k, bench.run_benchmark(self.scenarios[k], bench.table_specs())

    def record(self, out) -> None:
        k, report = out
        self.attempted += len(report.rows)
        failed = [row for row in report.rows if row.mse is None]
        self.failed += len(failed)
        for row in failed:
            self.problems.append(f"table: dataset {k} row {row.spec.label} failed: {row.error}")
        digest = hashlib.sha256()
        for row in report.rows:
            digest.update(f"{row.spec.label}={row.mse!r};".encode())
            if row.trajectory is not None:
                digest.update(row.trajectory.means.tobytes() + row.trajectory.variances.tobytes())
        self._same_result(k, digest.hexdigest())
        if failed or k in self.log_mses:
            return
        mses = {row.spec.label: row.mse for row in report.rows}
        self.problems.extend(f"table: dataset {k}: {p}" for p in table_problems(mses))
        self.log_mses[k] = [math.log(v) for v in mses.values()]
        factor = spike_factor(report.row("pkf-i10").pkf_result, report.data)
        self.log_spikes[k] = math.log(factor)
        if not factor >= SPIKE_FACTOR_MIN:
            self.problems.append(f"table: dataset {k} pkf-i10 spike factor {factor:.2f} below 5")

    def accuracy(self) -> tuple[float, float]:
        """Geometric mean of the row MSEs; mean log of the pkf-i10 spike factor."""
        logs = [v for row_logs in self.log_mses.values() for v in row_logs]
        return math.exp(statistics.fmean(logs)), statistics.fmean(self.log_spikes.values())


WORKLOADS = {"panel": Panel, "bd-long": BirthDeathLong, "table": Table, "ragged": Ragged}
