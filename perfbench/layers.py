"""Where each pathkf layer is entered, and the per-layer metrics of a traced run.

The layers are the package's modules. Each binding names the module or
class a caller looks the function up from, so a call is traced exactly
where the product makes it: ``pathkf.cli._execute_series`` finds
``run_pkf`` in ``pathkf.cli``, ``pathkf.bench.run_spec`` finds it in
``pathkf.bench``, ``SplinePathModel.predict_path`` finds
``fit_spline_posterior`` in ``pathkf.models`` and ``run_adaptive_kf`` finds
it in ``pathkf.baselines``.
"""

from __future__ import annotations

import numpy as np
import pathkf.baselines
import pathkf.bench
import pathkf.cli
import pathkf.core
import pathkf.models
import pathkf.pkf

from spans import Binding, Tracer, entry_self_times, layer_of, percentile, tail_percentile

LAYERS = ("core", "models", "pkf", "baselines", "bench", "cli")


def _series_arg(args):
    return args[0].series_id


def _count_windows(tracer: Tracer, args, result) -> None:
    """Count scanned windows and those whose model variance sits at the floor."""
    grid = args[1]
    _, variances = result
    tracer.count("models.windows", len(grid))
    tracer.count(
        "models.floor_windows",
        int(np.count_nonzero(variances <= pathkf.core.VARIANCE_FLOOR)),
    )


def bindings() -> list[Binding]:
    cli, bench, bl, models = pathkf.cli, pathkf.bench, pathkf.baselines, pathkf.models
    return [
        Binding(pathkf.core.TimeSeriesData, "summaries", "core.summaries"),
        Binding(models.SplinePathModel, "predict_path", "models.predict_path",
                after=_count_windows),
        Binding(models, "fit_spline_posterior", "models.fit_spline_posterior"),
        Binding(bl, "fit_spline_posterior", "models.fit_spline_posterior"),
        Binding(models, "uniform_posterior", "models.uniform_posterior"),
        Binding(bl, "uniform_posterior", "models.uniform_posterior"),
        Binding(pathkf.pkf, "run_pkf", "pkf.run_pkf", series_of=_series_arg),
        Binding(cli, "run_pkf", "pkf.run_pkf", series_of=_series_arg),
        Binding(bench, "run_pkf", "pkf.run_pkf", series_of=_series_arg),
        Binding(bl, "run_adaptive_kf", "baselines.kf", series_of=_series_arg),
        Binding(bl, "run_ukf", "baselines.ukf", series_of=_series_arg),
        Binding(bl, "run_urts", "baselines.urts", series_of=_series_arg),
        Binding(bl, "run_ipls", "baselines.ipls", series_of=_series_arg),
        Binding(bl.FlowStepDynamics, "step_map", "baselines.step_map"),
        Binding(bench, "run_benchmark", "bench.run_benchmark"),
        Binding(bench, "q_ratio_summary", "bench.q_ratio_summary"),
        Binding(cli, "read_series_csv", "cli.read_series_csv"),
        Binding(cli, "batch_run", "cli.batch_run"),
        Binding(cli, "write_batch_results", "cli.write_batch_results"),
        Binding(cli, "write_result", "cli.write_result"),
    ]


def layer_metrics(
    tracer: Tracer, traced_wall_s: float, traced_passes: int, extra: dict
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as ``name -> (value, unit)``.

    ``traced_wall_s`` is the summed wall time of the traced passes, the
    denominator of every ``self_share``. ``extra`` carries what the spans do
    not hold: ``overhead_share``, and for the pool workload
    ``parallel_efficiency`` and ``ipc_bytes_per_series``; for the CSV
    workloads ``csv_rows`` and ``results_bytes``. A layer that does not run
    on a workload reports zero calls and zero times.
    """
    spans = tracer.spans
    durations: dict[str, list[float]] = {}
    for s in spans:
        durations.setdefault(s.name, []).append(s.end - s.start)
    entry_self = entry_self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in entry_self.items():
        layer_self[layer_of(name)] += seconds

    def calls(name):
        return len(durations.get(name, ())) / traced_passes

    def median(name, scale):
        d = durations.get(name)
        return percentile(d, 50.0) * scale if d else 0.0

    def tail(name, scale):
        d = durations.get(name)
        if not d:
            return 0.0, 0.0
        pct, value = tail_percentile(d)
        return value * scale, pct

    def share(name):
        return entry_self.get(name, 0.0) / traced_wall_s

    counters = tracer.counters
    windows = counters.get("models.windows", 0)
    n_fit = len(durations.get("models.fit_spline_posterior", ()))
    n_uniform = len(durations.get("models.uniform_posterior", ()))
    pkf_iterations = sum(
        1 for s in spans
        if s.name == "models.predict_path" and s.parent >= 0
        and spans[s.parent].name == "pkf.run_pkf"
    )
    read_s = median("cli.read_series_csv", 1.0)
    write_s = median("cli.write_batch_results", 1.0)
    results_bytes = extra.get("results_bytes", 0) if write_s else 0
    pp_tail, pp_pct = tail("models.predict_path", 1e6)
    rp_tail, rp_pct = tail("pkf.run_pkf", 1e3)

    m = {
        "models.predict_path.calls": (calls("models.predict_path"), "count"),
        "models.predict_path.samples": (len(durations.get("models.predict_path", ())), "count"),
        "models.predict_path.p50_us": (median("models.predict_path", 1e6), "us"),
        "models.predict_path.tail_us": (pp_tail, "us"),
        "models.predict_path.tail_pct": (pp_pct, "%"),
        "models.predict_path.us_per_window": (
            sum(durations.get("models.predict_path", ())) * 1e6 / windows if windows else 0.0,
            "us",
        ),
        "models.predict_path.self_share": (share("models.predict_path"), "ratio"),
        "models.floor_variance_share": (
            counters.get("models.floor_windows", 0) / windows if windows else 0.0,
            "ratio",
        ),
        "models.fit_spline_posterior.calls": (calls("models.fit_spline_posterior"), "count"),
        "models.fit_spline_posterior.p50_us": (median("models.fit_spline_posterior", 1e6), "us"),
        "models.fallback_ratio": (n_uniform / n_fit if n_fit else 0.0, "ratio"),
        "pkf.run_pkf.calls": (calls("pkf.run_pkf"), "count"),
        "pkf.run_pkf.samples": (len(durations.get("pkf.run_pkf", ())), "count"),
        "pkf.run_pkf.p50_ms": (median("pkf.run_pkf", 1e3), "ms"),
        "pkf.run_pkf.tail_ms": (rp_tail, "ms"),
        "pkf.run_pkf.tail_pct": (rp_pct, "%"),
        "pkf.update.self_us_per_iter": (
            entry_self.get("pkf.run_pkf", 0.0) * 1e6 / pkf_iterations if pkf_iterations else 0.0,
            "us",
        ),
        "core.summaries.calls": (calls("core.summaries"), "count"),
        "core.summaries.p50_us": (median("core.summaries", 1e6), "us"),
        "core.summaries.self_share": (share("core.summaries"), "ratio"),
        "baselines.kf.ms": (median("baselines.kf", 1e3), "ms"),
        "baselines.ukf.ms": (median("baselines.ukf", 1e3), "ms"),
        "baselines.urts.ms": (median("baselines.urts", 1e3), "ms"),
        "baselines.ipls.ms": (median("baselines.ipls", 1e3), "ms"),
        "baselines.step_map.calls": (calls("baselines.step_map"), "count"),
        "baselines.step_map.p50_us": (median("baselines.step_map", 1e6), "us"),
        "bench.q_ratio_summary.s": (median("bench.q_ratio_summary", 1.0), "s"),
        "bench.run_benchmark.s": (median("bench.run_benchmark", 1.0), "s"),
        "cli.read_series_csv.s": (read_s, "s"),
        "cli.read_series_csv.rows_per_s": (
            extra.get("csv_rows", 0) / read_s if read_s else 0.0, "rows/s"
        ),
        "cli.write_batch_results.s": (write_s, "s"),
        "cli.write_batch_results.bytes": (results_bytes, "B"),
        "cli.write_batch_results.mb_per_s": (
            results_bytes / 1e6 / write_s if write_s else 0.0, "MB/s"
        ),
        "cli.batch_run.parallel_efficiency": (extra.get("parallel_efficiency", 0.0), "ratio"),
        "cli.batch_run.ipc_bytes_per_series": (extra.get("ipc_bytes_per_series", 0.0), "B/series"),
        "trace.overhead_share": (extra["overhead_share"], "ratio"),
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_share"] = (layer_self[layer] / traced_wall_s, "ratio")
    return m


def self_time_ranking(tracer: Tracer) -> list[tuple[str, float]]:
    """Layer-entry span names by summed self time, largest first."""
    return sorted(entry_self_times(tracer.spans).items(), key=lambda kv: -kv[1])
