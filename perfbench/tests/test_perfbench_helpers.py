"""Unit tests for the benchmark's own helpers.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import hashlib
import multiprocessing
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import workloads  # noqa: E402
from calibrate import REFERENCE_CHUNK_S, Reference, scaled_block_median, speed_scale  # noqa: E402
from spans import (  # noqa: E402
    Binding,
    Span,
    Tracer,
    covered,
    entry_self_times,
    parallel_efficiency,
    percentile,
    self_times,
    tail_percentile,
)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(list(range(1000))) == (99.0, 989)
    assert tail_percentile(list(range(10000))) == (99.9, 9989)
    # 200 samples: p99 has 2 beyond it, p95 exactly 10
    assert tail_percentile(list(range(200))) == (95.0, 189)
    assert tail_percentile(list(range(100))) == (90.0, 89)
    # below twenty samples nothing qualifies and the median stands in
    assert tail_percentile(list(range(15))) == (50.0, 7)


def test_tail_percentile_rejects_empty():
    with pytest.raises(ValueError):
        tail_percentile([])


def test_percentile_is_nearest_rank_and_order_free():
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    assert percentile([4, 1, 3, 2], 50) == 2
    assert percentile([7], 99) == 7


def test_covered_merges_overlapping_children_and_clips_to_parent():
    assert covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == pytest.approx(7.0)
    assert covered(0.0, 10.0, [(2.0, 3.0), (2.5, 2.7)]) == pytest.approx(1.0)
    assert covered(0.0, 10.0, []) == 0.0


def test_self_time_subtracts_overlapping_children_once():
    spans = [
        Span("cli.batch_run", 0.0, 10.0, -1, None),
        Span("pkf.run_pkf", 1.0, 4.0, 0, "a"),
        Span("pkf.run_pkf", 3.0, 6.0, 0, "b"),
        Span("models.predict_path", 1.5, 2.5, 1, "a"),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_entry_self_time_charges_same_layer_children_to_the_entry():
    spans = [
        Span("pkf.run_pkf", 0.0, 10.0, -1, "a"),
        Span("models.predict_path", 1.0, 9.0, 0, "a"),
        Span("models.fit_spline_posterior", 2.0, 5.0, 1, "a"),
        Span("core.summaries", 6.0, 7.0, 1, "a"),
    ]
    totals = entry_self_times(spans)
    assert totals == pytest.approx(
        {"pkf.run_pkf": 2.0, "models.predict_path": 7.0, "core.summaries": 1.0}
    )


def test_speed_scale_turns_a_slow_host_into_reference_speed():
    assert speed_scale([REFERENCE_CHUNK_S] * 3) == pytest.approx(1.0)
    # chunks at twice the reference time: the host runs at half speed
    assert speed_scale([2 * REFERENCE_CHUNK_S, 9.0, 0.0]) == pytest.approx(0.5)


def test_scaled_block_median_scales_each_block_by_its_own_chunks():
    ref = REFERENCE_CHUNK_S
    # five blocks of two; the third ran at half speed, the last was hit
    samples = [1, 1, 2, 2, 6, 6, 4, 4, 99, 101]
    chunks = [[ref]] * 4 + [[2 * ref]] * 2 + [[ref]] * 4
    # block means at reference speed: 1, 2, 3, 4, 100
    assert scaled_block_median(samples, chunks) == pytest.approx(3.0)
    # fewer samples than blocks: one sample per block
    assert scaled_block_median([5.0, 1.0, 3.0], [[ref]] * 3) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        scaled_block_median([], [])
    with pytest.raises(ValueError):
        scaled_block_median([1.0, 2.0], [[ref]])


def test_reference_runs_a_chunk_per_worker_and_reaps_them():
    with Reference(1) as reference:
        assert len(reference.walls(0.0)) == 1
    with Reference(2) as reference:
        walls = reference.walls(0.0)  # a zero budget still runs one chunk
        assert len(walls) == 2 and all(w > 0 for w in walls)
    assert not multiprocessing.active_children()


def test_parallel_efficiency():
    assert parallel_efficiency(8.0, 5.0, 2) == pytest.approx(0.8)
    assert parallel_efficiency(4.0, 4.0, 1) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        parallel_efficiency(1.0, 0.0, 2)


class _Thing:
    def work(self, x):
        return helper(x) + 1


def helper(x):
    return 2 * x


def test_tracer_records_nesting_and_restores_the_originals():
    module = sys.modules[__name__]
    original_work, original_helper = _Thing.work, module.helper
    tracer = Tracer([
        Binding(_Thing, "work", "outer.work", series_of=lambda args: f"s{args[1]}"),
        Binding(module, "helper", "inner.helper"),
    ])
    with tracer:
        assert _Thing().work(3) == 7
    assert _Thing.work is original_work and module.helper is original_helper
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, outer.series) == ("outer.work", -1, "s3")
    assert (inner.name, inner.parent, inner.series) == ("inner.helper", 0, "s3")
    assert outer.start <= inner.start <= inner.end <= outer.end


@pytest.mark.parametrize("generate", [workloads.write_panel_csv, workloads.write_ragged_csv])
def test_generated_csv_depends_only_on_the_seed(tmp_path, generate):
    def csv_digest(seed, name):
        path = tmp_path / name
        generate(seed, 6, str(path))
        return hashlib.sha256(path.read_bytes()).hexdigest()

    assert csv_digest(3, "a.csv") == csv_digest(3, "b.csv")
    assert csv_digest(3, "a.csv") != csv_digest(4, "c.csv")
