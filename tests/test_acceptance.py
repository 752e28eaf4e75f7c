"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion. Every tolerance is pinned here; nothing is deferred to
later calibration.
"""

import time

import numpy as np
import pytest

from pathkf import (
    BirthDeathScenario,
    GenePanelScenario,
    ModelKind,
    TimeGrid,
    TimeSeriesData,
    panel_labels,
    pkf_weights,
    q_ratio_summary,
    run_benchmark,
    run_ipls,
    run_pkf,
    run_ukf,
    run_urts,
    simulate_birth_death,
    simulate_gene_panel,
    table_specs,
)
from pathkf.cli import RunConfig, batch_run, read_series_csv, write_batch_results, write_series_csv
import pathkf.models
from pathkf.models import ScanGrid, SplinePathModel, flow_birth_death, flow_const_reg

from oracles import (
    AffineStepDynamics,
    FitPosition,
    LinearPathModel,
    brute_force_weights,
    linear_kf,
    linear_rts,
    rk4_integrate,
)
from test_models import random_window, roundtrip_error, spied_kernel


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_weight_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        a, b, c = 10.0 ** rng.uniform(-3.0, 3.0, 3)
        w = pkf_weights(a, b, c)
        bf_w, bf_wm = brute_force_weights(a, b, c)
        worst = max(worst, abs(w.w_data - bf_w), abs(w.w_model - bf_wm))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-3 and elapsed < 10.0,
        f"worst weight diff {worst:.2e} over 1000 triples in {elapsed:.1f}s",
    )


def test_criterion_2_convergence_suite():
    start = time.perf_counter()
    _, data = simulate_birth_death(BirthDeathScenario())
    result = run_pkf(data, ModelKind.BIRTH_DEATH, iterations=50, retain_history=True)
    monotone = True
    previous = None
    for state in result.history:
        v = state.filter.variances
        if previous is not None and np.any(v > previous + 1e-12):
            monotone = False
        previous = v
    q_final = float(np.max(result.final.process_uncertainty))
    rel_change = float(result.max_abs_dq[-1]) / (q_final + 1e-9)
    elapsed = time.perf_counter() - start
    report(
        2,
        monotone and rel_change < 1e-3 and elapsed < 60.0,
        f"variance monotone={monotone}, Q rel change {rel_change:.2e} "
        f"at iteration 50, {elapsed:.1f}s",
    )


def test_criterion_3_non_monotone_gain(pkf_history_50):
    w1 = pkf_history_50.history[0].weights.w_data
    diffs = np.diff(w1)
    has_increase = bool(np.any(diffs > 0.0))
    has_decrease = bool(np.any(diffs < 0.0))
    report(
        3,
        has_increase and has_decrease,
        f"iteration-1 data weight: {int(np.sum(diffs > 0))} increases, "
        f"{int(np.sum(diffs < 0))} decreases over time",
    )


def test_criterion_4_benchmark_bands_and_orderings():
    start = time.perf_counter()
    scenario = BirthDeathScenario()
    reportable = run_benchmark(scenario, table_specs())
    elapsed = time.perf_counter() - start
    val = {row.spec.label: row.mse for row in reportable.rows}
    assert all(v is not None for v in val.values()), "a benchmark row failed"

    pkf10 = val["pkf-i10"]
    baselines = {k: v for k, v in val.items() if not k.startswith("pkf")}
    a = pkf10 <= 5.0
    b = all(pkf10 < 0.5 * v for v in baselines.values())
    c = (
        val["kf-q10"] <= val["kf-q1"]
        and val["ukf-q10"] <= val["ukf-q1"]
        and val["urts-q10"] <= val["urts-q1"]
        and val["ipls-q10-i1"] <= val["ipls-q1-i1"]
        and val["ipls-q10-i10"] <= val["ipls-q1-i10"]
    )
    best_baseline = min(baselines, key=baselines.get)
    d = best_baseline == "ipls-q10-i10"
    within_time = elapsed < 600.0
    report(
        4,
        a and b and c and d and within_time,
        f"pkf10={pkf10:.3f} (<=5: {a}); dominance: {b}; q-orderings: {c}; "
        f"best baseline {best_baseline} ({d}); {elapsed:.1f}s",
    )


def test_criterion_5_change_point_detection(pkf_converged, benchmark_data):
    _, data = benchmark_data
    q = pkf_converged.final.process_uncertainty
    t = data.grid.times
    i5 = int(np.argmin(np.abs(t - 5.0)))
    i15 = int(np.argmin(np.abs(t - 15.0)))
    quiet = ((t >= 1.0) & (t <= 4.0)) | ((t >= 16.0) & (t <= 19.0))
    median_quiet = float(np.median(q[quiet]))
    f5 = float(q[i5]) / median_quiet
    f15 = float(q[i15]) / median_quiet
    report(
        5,
        f5 >= 5.0 and f15 >= 5.0,
        f"Q spike factors: {f5:.1f}x at t=5, {f15:.1f}x at t=15 "
        f"(median quiet Q {median_quiet:.3g})",
    )


def test_criterion_6_linear_optimality():
    slope, intercept = 0.95, 1.0
    n_points, replicates, sigma = 20, 100, 2.0
    failures = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        y = np.empty(n_points)
        y[0] = 10.0
        for t in range(1, n_points):
            y[t] = slope * y[t - 1] + intercept
        data = TimeSeriesData(
            "lin",
            TimeGrid(np.arange(float(n_points))),
            tuple(rng.normal(y[t], sigma, replicates) for t in range(n_points)),
        )
        z_means, _ = data.summaries()
        result = run_pkf(data, LinearPathModel(slope, intercept), iterations=10)
        mse_pkf = float(np.mean((result.final.filter.means - y) ** 2))
        mse_mean = float(np.mean((z_means - y) ** 2))
        if mse_pkf > mse_mean:
            failures.append(seed)
    report(
        6,
        not failures,
        f"filter MSE <= sample-mean MSE on all 10 seeds (failures: {failures})",
    )


def three_point_path(window):
    """The window as a 3-point path: anchors, target between them, and the
    target variance at every point."""
    (ta, va), (tb, vb) = window.ordered_anchors()
    tt, target = window.target
    means = np.array([va, target.mean, vb])
    return TimeGrid([ta, tt, tb]), means, np.full(3, target.variance)


def test_criterion_7_model_analytics_suite():
    # h-function round trips: 1000 fuzz cases per kind per fit position
    worst_roundtrip = 0.0
    for kind in ModelKind:
        for pos in FitPosition:
            rng = np.random.default_rng(hash((kind.value, pos.value, 7)) % 2**32)
            for _ in range(1000):
                window = random_window(rng, kind, pos)
                if kind is ModelKind.BIRTH_DEATH:
                    k1 = rng.uniform(0.0, 5.0)
                else:
                    k1 = 10.0 ** rng.uniform(-3.0, 0.7)
                worst_roundtrip = max(worst_roundtrip, roundtrip_error(window, kind, k1))

    # flows against the fourth-order integrator
    worst_flow = 0.0
    rng = np.random.default_rng(77)
    for _ in range(40):
        n0, kb, kd, dt = rng.uniform(0.5, 100.0), *rng.uniform(0.0, 2.0, 2), rng.uniform(0.1, 3.0)
        ref = rk4_integrate(lambda t, x: (kb - kd) * x, n0, 0.0, dt)
        worst_flow = max(worst_flow, abs(flow_birth_death(n0, kb, kd, dt) - ref) / abs(ref))
        x0, ke, kdeg = rng.uniform(-10, 40), rng.uniform(0, 15), rng.uniform(0.05, 3.0)
        ref = rk4_integrate(lambda t, x: ke - kdeg * x, x0, 0.0, dt)
        worst_flow = max(
            worst_flow, abs(flow_const_reg(x0, ke, kdeg, dt) - ref) / max(abs(ref), 1e-12)
        )

    # posterior weight normalization, on the package kernel: predict_path on
    # the 3-point grid of each window, whose center row is that window's fit
    patch, fits = spied_kernel(pathkf.models)
    worst_norm = 0.0
    for kind in ModelKind:
        rng = np.random.default_rng(lambda_seed := 99)
        for _ in range(50):
            grid, means, variances = three_point_path(random_window(rng, kind, FitPosition.CENTER))
            with patch:
                SplinePathModel(kind).predict_path(grid, means, variances)
            worst_norm = max(worst_norm, abs(float(np.sum(fits[-1].weights[1])) - 1.0))

    # moments against a 10x refined grid, on predict_path's center row
    import math

    kd, ke, x0 = 0.5, 5.0, 4.0
    curve = lambda t: ke / kd + (x0 - ke / kd) * math.exp(-kd * t)
    bd_path = (TimeGrid([0.0, 1.0, 2.0]), np.array([100.0, 118.0, 130.0]), np.full(3, 4.0))
    cr_path = (
        TimeGrid([0.0, 1.0, 2.0]),
        np.array([curve(0.0), curve(1.0), curve(2.0)]),
        np.full(3, 0.01),
    )
    worst_refine = 0.0
    for path, kind in ((bd_path, ModelKind.BIRTH_DEATH), (cr_path, ModelKind.CONSTANT_REGULATION)):
        coarse_means, coarse_vars = SplinePathModel(kind, ScanGrid(200)).predict_path(*path)
        fine_means, fine_vars = SplinePathModel(kind, ScanGrid(2000)).predict_path(*path)
        worst_refine = max(
            worst_refine,
            abs(coarse_means[1] - fine_means[1]) / abs(fine_means[1]),
            abs(coarse_vars[1] - fine_vars[1]) / max(fine_vars[1], 1e-12),
        )

    ok = (
        worst_roundtrip < 1e-9
        and worst_flow < 1e-8
        and worst_norm <= 1e-12
        and worst_refine < 1e-4
    )
    report(
        7,
        ok,
        f"roundtrip {worst_roundtrip:.1e}, flow-vs-RK4 {worst_flow:.1e}, "
        f"normalization {worst_norm:.1e}, refinement {worst_refine:.1e}",
    )


def test_criterion_8_affine_oracle_equivalence():
    rng = np.random.default_rng(2025)
    slope, intercept, q = 0.85, 3.0, 1.5
    n = 30
    y = np.empty(n)
    y[0] = 25.0
    for t in range(1, n):
        y[t] = slope * y[t - 1] + intercept
    data = TimeSeriesData(
        "affine",
        TimeGrid(np.arange(float(n))),
        tuple(rng.normal(y[t], 2.0, 6) for t in range(n)),
    )
    dynamics = AffineStepDynamics(slope, intercept)
    z_means, z_vars = data.summaries()
    m_kf, p_kf, _, _ = linear_kf(data.grid.times, z_means, z_vars, slope, intercept, q)
    ms_ref, ps_ref = linear_rts(data.grid.times, z_means, z_vars, slope, intercept, q)

    ukf = run_ukf(data, ModelKind.BIRTH_DEATH, q=q, dynamics=dynamics)
    urts = run_urts(data, ModelKind.BIRTH_DEATH, q=q, dynamics=dynamics)
    ipls1 = run_ipls(data, ModelKind.BIRTH_DEATH, q=q, iterations=1, dynamics=dynamics)
    ipls6 = run_ipls(data, ModelKind.BIRTH_DEATH, q=q, iterations=6, dynamics=dynamics)

    def rel(a, b):
        return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-12)))

    worst = max(
        rel(ukf.means, m_kf),
        rel(ukf.variances, p_kf),
        rel(urts.means, ms_ref),
        rel(urts.variances, ps_ref),
        rel(ipls6.means, ms_ref),
        rel(ipls6.variances, ps_ref),
    )
    fixed_point = max(rel(ipls6.means, ipls1.means), rel(ipls6.variances, ipls1.variances))
    report(
        8,
        worst < 1e-8 and fixed_point < 1e-8,
        f"worst oracle gap {worst:.1e}, IPLS iteration drift {fixed_point:.1e}",
    )


def test_criterion_9_batch_scalability(tmp_path):
    scenario = GenePanelScenario.default(n_genes=1000, seed=31)
    panel = simulate_gene_panel(scenario)
    csv_path = str(tmp_path / "panel.csv")
    write_series_csv([data for _, data in panel], csv_path)
    series, skipped = read_series_csv(csv_path)
    assert len(series) == 1000

    config8 = RunConfig(algorithm="pkf", model=ModelKind.CONSTANT_REGULATION,
                        iterations=10, jobs=8)
    start = time.perf_counter()
    summary8 = batch_run(config8, series, skipped)
    elapsed8 = time.perf_counter() - start
    out8 = str(tmp_path / "jobs8.json")
    write_batch_results(summary8, out8)

    config1 = RunConfig(algorithm="pkf", model=ModelKind.CONSTANT_REGULATION,
                        iterations=10, jobs=1)
    start = time.perf_counter()
    summary1 = batch_run(config1, series, skipped)
    elapsed1 = time.perf_counter() - start
    out1 = str(tmp_path / "jobs1.json")
    write_batch_results(summary1, out1)

    identical = open(out1, "rb").read() == open(out8, "rb").read()

    # wall time linear in series count: compare against the single-series rate
    single = [series[0]]
    start = time.perf_counter()
    for _ in range(5):
        batch_run(config1, single)
    per_series = (time.perf_counter() - start) / 5.0
    linear = elapsed1 <= 2.0 * 1000 * per_series

    report(
        9,
        summary8.n_failed == 0 and elapsed8 < 60.0 and identical and linear,
        f"1000 series in {elapsed8:.1f}s at jobs=8 ({elapsed1:.1f}s at jobs=1, "
        f"{1000 * per_series:.1f}s extrapolated from one series); outputs identical: {identical}",
    )


def test_criterion_10_panel_ratio_direction():
    scenario = GenePanelScenario.default()
    labels = panel_labels(scenario)
    results = []
    for _, data in simulate_gene_panel(scenario):
        res = run_pkf(data, ModelKind.CONSTANT_REGULATION, iterations=10)
        results.append((labels[data.series_id], res, data))
    summary = q_ratio_summary(results)
    dynamic = summary.label_means["dynamic"]
    static = summary.label_means["static"]
    report(
        10,
        dynamic > static,
        f"mean log(Q/V(Z)): dynamic {dynamic:.3f} > static {static:.3f}",
    )
