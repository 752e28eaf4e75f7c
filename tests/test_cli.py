"""Ingestion, serialization, batch execution, and the command-line surface."""

import collections
import concurrent.futures
import csv
import errno
import functools
import json
import logging
import math
import multiprocessing
import os
import re
import stat
import subprocess
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pathkf import (
    BirthDeathScenario,
    GroundTruth,
    InvalidConfigError,
    ModelKind,
    PathkfError,
    TimeGrid,
    TimeSeriesData,
    run_pkf,
    run_pkf_block,
    run_ukf,
    simulate_birth_death,
)
import pathkf.cli
import pathkf.models
from pathkf.bench import ALGORITHMS, BLOCK_ROWS, BenchmarkReport
from pathkf.pkf import DEFAULT_ITERATIONS
from pathkf.cli import (
    WORKER_DIED,
    BatchSummary,
    IoError,
    ParseError,
    RunConfig,
    SeriesOutcome,
    batch_run,
    main,
    read_labels_csv,
    read_series_csv,
    result_record,
    write_batch_results,
    write_result,
    write_series_csv,
    write_truth_csv,
)

from test_core import arrays_in


def write_text(path, text):
    path.write_text(text)
    return str(path)


#: Series ids for the round trip. The reader strips whitespace around an id,
#: so none is drawn with leading or trailing whitespace.
SERIES_IDS = st.text(
    st.characters(min_codepoint=32, max_codepoint=126), min_size=1, max_size=6
).filter(lambda s: s == s.strip())

#: Measurements at scales 1e-6 to 1e8, of either sign.
MEASUREMENTS = st.builds(lambda m, e: m * 10.0**e, st.floats(-9.99, 9.99), st.integers(-6, 8))


@st.composite
def csv_panels(draw):
    """``(series_id, times, groups)`` per series: 1-14 strictly increasing
    times, each with 1-3 replicates; series of fewer than 3 times are short."""
    panel = []
    for series_id in draw(st.lists(SERIES_IDS, min_size=1, max_size=5, unique=True)):
        times = sorted(draw(st.lists(
            st.floats(-1e6, 1e6), min_size=1, max_size=14, unique=True
        )))
        groups = [
            np.array(draw(st.lists(MEASUREMENTS, min_size=1, max_size=3))) for _ in times
        ]
        panel.append((series_id, times, groups))
    return panel


class TestReadSeriesCsv:
    def test_two_series_structure(self, tmp_path):
        rows = ["series_id,time,value"]
        for sid in ("a", "b"):
            for t in (0.0, 1.0, 2.0):
                for v in (1.5, 2.5):
                    rows.append(f"{sid},{t},{v}")
        path = write_text(tmp_path / "d.csv", "\n".join(rows) + "\n")
        series, skipped = read_series_csv(path)
        assert [s.series_id for s in series] == ["a", "b"]
        assert skipped == ()
        for s in series:
            assert len(s.grid) == 3
            assert all(len(g) == 2 for g in s.samples)

    def test_round_trip_bit_exact(self, tmp_path):
        _, data = simulate_birth_death(BirthDeathScenario(t_end=2.0, replicates=3))
        path = str(tmp_path / "rt.csv")
        write_series_csv([data], path)
        (back,), _ = read_series_csv(path)
        np.testing.assert_array_equal(back.grid.times, data.grid.times)
        for ga, gb in zip(back.samples, data.samples):
            np.testing.assert_array_equal(ga, gb)

    def test_parse_error_names_line(self, tmp_path):
        rows = ["series_id,time,value"]
        for t in range(5):
            rows.append(f"a,{t}.0,1.0")
        rows.append("a,5.0,not-a-number")  # line 7
        path = write_text(tmp_path / "bad.csv", "\n".join(rows) + "\n")
        with pytest.raises(ParseError) as err:
            read_series_csv(path)
        assert err.value.line == 7
        assert "line 7" in str(err.value)

    def test_bad_header_rejected(self, tmp_path):
        path = write_text(tmp_path / "h.csv", "id,t,v\na,0,1\n")
        with pytest.raises(ParseError) as err:
            read_series_csv(path)
        assert err.value.line == 1

    def test_short_series_skipped(self, tmp_path):
        rows = ["series_id,time,value"]
        for t in (0.0, 1.0, 2.0):
            rows.append(f"long,{t},1.0")
        rows.append("short,0.0,1.0")
        rows.append("short,1.0,1.0")
        path = write_text(tmp_path / "s.csv", "\n".join(rows) + "\n")
        series, skipped = read_series_csv(path)
        assert [s.series_id for s in series] == ["long"]
        assert skipped == ("short",)

    def test_missing_file_raises_io_error(self, tmp_path):
        with pytest.raises(IoError):
            read_series_csv(str(tmp_path / "nope.csv"))

    def test_files_are_utf8_under_an_ascii_locale(self, tmp_path):
        # the written bytes and the read ids do not depend on the locale
        series_id = "g\u00e8ne-\u03b1"
        code = (  # the id as an ASCII literal: the locale would mangle it in argv
            "import sys; from pathkf import TimeGrid, TimeSeriesData; "
            "from pathkf.cli import read_series_csv, write_series_csv; "
            f"sid = {ascii(series_id)}; "
            "data = TimeSeriesData(sid, TimeGrid([0.0, 1.0, 2.0]), ([1.0], [2.0], [3.0])); "
            "write_series_csv([data], sys.argv[1]); "
            "print(read_series_csv(sys.argv[1]).series[0].series_id == sid)"
        )
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONPATH": os.path.join(os.path.dirname(__file__), os.pardir, "src")}
        env.pop("PYTHONIOENCODING", None)
        ascii_path = tmp_path / "ascii.csv"
        run = subprocess.run([sys.executable, "-c", code, str(ascii_path)],
                             env=env, capture_output=True, text=True, errors="replace")
        assert (run.returncode, run.stdout, run.stderr) == (0, "True\n", "")
        native_path = tmp_path / "native.csv"
        write_series_csv(
            [TimeSeriesData(series_id, TimeGrid([0.0, 1.0, 2.0]), ([1.0], [2.0], [3.0]))],
            str(native_path),
        )
        assert ascii_path.read_bytes() == native_path.read_bytes()
        assert series_id.encode("utf-8") in ascii_path.read_bytes()

    def test_a_byte_order_mark_reads_as_without(self, tmp_path):
        text = "series_id,time,value\na,0,1.5\na,1,2.5\na,2,3.5\nb,0,1\nb,1,2\n"
        plain = write_text(tmp_path / "plain.csv", text)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        (a,), skipped = read_series_csv(plain)
        (b,), marked_skipped = read_series_csv(str(marked))
        assert (b.series_id, marked_skipped) == (a.series_id, skipped) == ("a", ("b",))
        assert b.grid.times.tobytes() == a.grid.times.tobytes()
        assert [g.tobytes() for g in b.samples] == [g.tobytes() for g in a.samples]

    @settings(
        deadline=None, max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(csv_panels())
    def test_write_read_round_trip_is_exact(self, tmp_path, panel):
        long = [entry for entry in panel if len(entry[1]) >= 3]
        short = [entry for entry in panel if len(entry[1]) < 3]
        path = str(tmp_path / "rt.csv")
        write_series_csv(
            [TimeSeriesData(sid, TimeGrid(np.array(times)), tuple(groups))
             for sid, times, groups in long],
            path,
        )
        with open(path, "a", newline="") as handle:  # the writer takes full series only
            csv.writer(handle, lineterminator="\n").writerows(
                [sid, repr(t), repr(float(v))]
                for sid, times, groups in short
                for t, group in zip(times, groups)
                for v in group
            )
        series, skipped = read_series_csv(path)
        assert skipped == tuple(sid for sid, _, _ in short)
        assert [data.series_id for data in series] == [sid for sid, _, _ in long]
        for data, (_, times, groups) in zip(series, long):
            assert data.grid.times.tobytes() == np.array(times).tobytes()
            assert len(data.samples) == len(groups)
            for back, group in zip(data.samples, groups):
                assert back.tobytes() == group.tobytes()


class TestReadLabelsCsv:
    def test_whitespace_only_line_skipped(self, tmp_path):
        path = write_text(tmp_path / "l.csv", "series_id,label\na,up\n   \nb,flat\n")
        assert read_labels_csv(path) == {"a": "up", "b": "flat"}

    def test_empty_series_id_names_its_line(self, tmp_path):
        path = write_text(tmp_path / "l.csv", "series_id,label\na,up\n  ,flat\n")
        with pytest.raises(ParseError, match=r"^line 3: empty series_id$"):
            read_labels_csv(path)

    def test_repeated_series_id_names_its_line(self, tmp_path):
        path = write_text(tmp_path / "l.csv", "series_id,label\na,up\nb,flat\n a ,down\n")
        with pytest.raises(ParseError, match=r"^line 4: repeated series_id 'a'$"):
            read_labels_csv(path)

    def test_a_byte_order_mark_reads_as_without(self, tmp_path):
        text = "series_id,label\na,up\nb,flat\n"
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert read_labels_csv(str(marked)) == read_labels_csv(write_text(tmp_path / "l.csv", text))


class TestWriteResult:
    def test_trajectory_round_trip(self, tmp_path):
        _, data = simulate_birth_death(BirthDeathScenario(t_end=2.0, replicates=3))
        result = run_pkf(data, ModelKind.BIRTH_DEATH, iterations=2)
        traj = result.final.filter
        path = str(tmp_path / "t.json")
        write_result(traj, path)
        record = json.loads(open(path).read())
        np.testing.assert_array_equal(record["mean"], traj.means)
        np.testing.assert_array_equal(record["variance"], traj.variances)

    def test_pkf_result_fields_and_history_blocks(self, tmp_path):
        _, data = simulate_birth_death(BirthDeathScenario(t_end=2.0, replicates=3))
        result = run_pkf(data, ModelKind.BIRTH_DEATH, iterations=3, retain_history=True)
        path = str(tmp_path / "r.json")
        write_result(result, path)
        record = json.loads(open(path).read())
        for key in (
            "time",
            "filter_mean",
            "filter_variance",
            "process_uncertainty",
            "w_data",
            "w_model",
            "w_filter",
        ):
            assert key in record
        assert len(record["history"]) == 3
        np.testing.assert_array_equal(record["filter_mean"], result.final.filter.means)

    def test_empty_benchmark_report_header_only(self, tmp_path):
        scenario = BirthDeathScenario(t_end=2.0, replicates=3)
        truth, data = simulate_birth_death(scenario)
        report = BenchmarkReport(scenario, scenario.seed, (), truth, data)
        path = str(tmp_path / "b.csv")
        write_result(report, path)
        assert open(path).read() == "algorithm,parameters,mse,error\n"

    def test_truth_csv_round_trip_values(self, tmp_path):
        truth = GroundTruth(TimeGrid([0.0, 1.0, 2.0]), [1.25, 2.5, 3.75])
        path = str(tmp_path / "truth.csv")
        write_truth_csv([("s", truth)], path)
        lines = open(path).read().splitlines()
        assert lines[0] == "series_id,time,true_value"
        assert lines[1] == "s,0.0,1.25"


#: Floats of every magnitude, subnormals, both zeros, NaN and both infinities,
#: some as ``np.float64``.
JSON_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-320, 300)),
)
JSON_SCALARS = st.one_of(
    st.text(), st.integers(-(2**70), 2**70), st.booleans(), st.none(), JSON_FLOATS,
)
JSON_RECORDS = st.recursive(
    JSON_SCALARS | st.lists(JSON_FLOATS, max_size=12),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=8), inner, max_size=5),
    max_leaves=40,
)


@functools.cache
def batch_results():
    """One series' PKF result without and with its history, and its UKF trajectory."""
    data = spiked("a")
    return (
        run_pkf(data, ModelKind.BIRTH_DEATH, 2),
        run_pkf(data, ModelKind.BIRTH_DEATH, 2, retain_history=True),
        run_ukf(data, ModelKind.BIRTH_DEATH),
    )


#: ``(result, error)`` of one series outcome: a result, or a failure.
BATCH_OUTCOMES = st.integers(0, 2).map(lambda i: (batch_results()[i], None)) | st.text().map(
    lambda error: (None, error)
)


class TestJsonWriter:
    @settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.dictionaries(st.text(max_size=8), JSON_RECORDS, max_size=4) | JSON_RECORDS)
    def test_bytes_equal_json_dump_with_indent_2(self, tmp_path, record):
        path = tmp_path / "r.json"
        pathkf.cli._write_json(record, str(path))
        assert path.read_text() == json.dumps(record, indent=2) + "\n"

    def test_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        # the disk fills up while the second series record is written
        path = tmp_path / "b.json"
        path.write_text("old\n")
        summary = batch_run(RunConfig(iterations=1), (spiked("a"), spiked("b"), spiked("c")))
        written = []

        def opening(*args, **kwargs):
            handle = open(*args, **kwargs)
            write = handle.write

            def filling(text):
                if '\n    "b": ' in text:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                written.append(text)
                return write(text)

            handle.write = filling
            return handle

        monkeypatch.setattr(pathkf.cli, "open", opening, raising=False)
        with pytest.raises(IoError, match="^cannot write .*No space left on device"):
            write_batch_results(summary, str(path))
        assert any('\n    "a": ' in text for text in written)
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["b.json"]

    def test_unserializable_record_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            pathkf.cli._write_json({"a": object()}, str(tmp_path / "r.json"))
        assert os.listdir(tmp_path) == []

    def test_written_file_keeps_what_open_would(self, tmp_path):
        reference = tmp_path / "reference.json"
        open(reference, "w").close()
        fresh = tmp_path / "fresh.json"
        pathkf.cli._write_json({}, str(fresh))
        assert stat.S_IMODE(fresh.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)
        existing = tmp_path / "existing.csv"
        existing.write_text("old\n")
        existing.chmod(0o640)
        pathkf.cli._write_csv(str(existing), ["a"], [["1"]])
        assert existing.read_text() == "a\n1\n"
        assert stat.S_IMODE(existing.stat().st_mode) == 0o640
        link = tmp_path / "link.csv"
        link.symlink_to(existing)
        pathkf.cli._write_csv(str(link), ["b"], [])
        assert link.is_symlink()
        assert existing.read_text() == "b\n"
        assert stat.S_IMODE(existing.stat().st_mode) == 0o640

    @settings(deadline=None, max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.dictionaries(st.text(max_size=6), BATCH_OUTCOMES, max_size=6),
        st.lists(st.text(max_size=6), max_size=3),
    )
    def test_batch_document_equals_json_dump(self, tmp_path, outcomes, skipped):
        summary = BatchSummary(
            tuple(SeriesOutcome(i, result, error) for i, (result, error) in outcomes.items()),
            tuple(skipped),
        )
        series = {
            i: {"error": error} if error is not None else result_record(result)
            for i, (result, error) in outcomes.items()
        }
        expected = json.dumps({"skipped": skipped, "series": series}, indent=2) + "\n"
        path = tmp_path / "b.json"
        write_batch_results(summary, str(path))
        assert path.read_text() == expected


def panel_csv(tmp_path, n_series=4, broken=False):
    rows = ["series_id,time,value"]
    rng = np.random.default_rng(0)
    for i in range(n_series):
        for t in (0.0, 1.0, 2.0, 3.0):
            for _ in range(2):
                rows.append(f"g{i},{t},{rng.normal(20.0, 1.0)}")
    if broken:
        rows.append("stub,0.0,1.0")  # fewer than 3 timepoints
        rows.append("stub,1.0,1.0")
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def spiked(series_id, spike=None):
    """Eight timepoints of two replicates; with ``spike``, both replicates of
    the fifth are ``spike``."""
    groups = [np.array([10.0 + i, 10.5 + i]) for i in range(8)]
    if spike is not None:
        groups[4] = np.array([spike, spike])
    return TimeSeriesData(series_id, TimeGrid(np.arange(8.0)), tuple(groups))


#: Far-out replicate values the CSV reader accepts, and those of them whose
#: spread from ordinary values still has a finite variance.
SPIKES = (1e150, -1e150, 1e200, -1e200, 1e250, 1e300, 1e-300)
MIXING_SPIKES = (1e150, -1e150, 1e-300)


@st.composite
def harsh_series(draw):
    """A series that ``TimeSeriesData`` accepts: 4-14 timepoints of 1-3
    replicates, ordinary values mixed with :data:`SPIKES`. A spiked timepoint
    holds 1-3 copies of its spike, and ordinary values too if it mixes."""
    n = draw(st.integers(4, 14))
    gaps = draw(st.lists(st.floats(0.1, 3.0), min_size=n - 1, max_size=n - 1))
    groups = []
    for _ in range(n):
        spike = draw(st.sampled_from((None,) * 10 + SPIKES))
        copies = 0 if spike is None else draw(st.integers(1, 3))
        room = 0 if spike not in (None, *MIXING_SPIKES) else 3 - copies
        ordinary = draw(st.lists(st.floats(-100.0, 100.0), min_size=0 if copies else 1,
                                 max_size=room))
        groups.append(np.array([spike] * copies + ordinary))
    return TimeSeriesData("x", TimeGrid(np.cumsum([0.0, *gaps])), tuple(groups))


#: The series of a const-reg failure that once blamed the data: 14
#: timepoints, the fifth two replicates of 1e300.
SPIKE_PAIR = TimeSeriesData("x", TimeGrid(2.0 * np.arange(14)), tuple(
    np.array([1e300, 1e300]) if t == 4 else np.array([10.0 + t, 10.5 + t]) for t in range(14)
))


def warning_lines(caplog, action):
    """The warning lines logged while ``action()`` runs, in order."""
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        action()
    return [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]


class TestBatchRun:
    def test_parallelism_does_not_change_output(self, tmp_path):
        path = panel_csv(tmp_path, n_series=6)
        series, skipped = read_series_csv(path)
        out1 = str(tmp_path / "j1.json")
        out2 = str(tmp_path / "j2.json")
        config1 = RunConfig(algorithm="pkf", iterations=3, jobs=1)
        config2 = RunConfig(algorithm="pkf", iterations=3, jobs=2)
        write_batch_results(batch_run(config1, series, skipped), out1)
        write_batch_results(batch_run(config2, series, skipped), out2)
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_pool_outcomes_are_read_only(self, tmp_path):
        series, _ = read_series_csv(panel_csv(tmp_path, n_series=4))
        config = RunConfig(algorithm="pkf", iterations=2, jobs=2, retain_history=True)
        arrays = arrays_in(batch_run(config, series).outcomes)
        assert arrays
        assert not any(a.flags.writeable for a in arrays)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers must inherit the patched run_spec",
    )
    def test_dying_worker_fails_only_its_series(self, tmp_path, monkeypatch):
        data_path = panel_csv(tmp_path, n_series=6)
        out1 = str(tmp_path / "j1.json")
        out2 = str(tmp_path / "j2.json")
        runner = CliRunner()
        args = ["run", "--iterations", "2", "--input", data_path]
        assert runner.invoke(main, args + ["--output", out1]).exit_code == 0
        run_spec = pathkf.cli.run_spec

        def dying(spec, series, *rest):
            if any(data.series_id == "g5" for data in series):
                time.sleep(1.0)  # the other worker finishes g0-g4 meanwhile
                os._exit(1)
            return run_spec(spec, series, *rest)

        monkeypatch.setattr(pathkf.cli, "run_spec", dying)
        result = runner.invoke(main, args + ["--jobs", "2", "--output", out2])
        assert result.exit_code == 1, result.output
        serial = json.loads((tmp_path / "j1.json").read_text())["series"]
        pooled = json.loads((tmp_path / "j2.json").read_text())["series"]
        assert pooled.pop("g5") == {"error": WORKER_DIED}
        serial.pop("g5")
        assert pooled == serial

    @pytest.mark.parametrize("jobs, workers", [(5000, 6), (2, 2)])
    def test_the_pool_asks_for_no_more_workers_than_chunks(self, monkeypatch, jobs, workers):
        asked = []

        class InProcess:
            """An executor that records its size and runs each call at once."""

            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return None

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(pathkf.cli, "ProcessPoolExecutor", InProcess)
        series = tuple(spiked(f"g{i}") for i in range(6))
        summary = batch_run(RunConfig(iterations=1, jobs=jobs), series)
        assert asked == [workers]
        assert summary.n_ok == 6

    def test_repeated_series_id_rejected(self):
        series = (spiked("g"), spiked("h"), spiked("g", 50.0))
        with pytest.raises(InvalidConfigError, match="^repeated series_id 'g'$"):
            batch_run(RunConfig(iterations=1), series)

    def test_skipped_series_reported_others_complete(self, tmp_path):
        path = panel_csv(tmp_path, n_series=3, broken=True)
        series, skipped = read_series_csv(path)
        summary = batch_run(RunConfig(algorithm="pkf", iterations=2), series, skipped)
        assert summary.skipped == ("stub",)
        assert summary.n_ok == 3
        assert summary.n_failed == 0

    def test_per_series_failures_isolated(self):
        grid = TimeGrid([0.0, 1.0, 2.0, 3.0])
        good = TimeSeriesData("good", grid, tuple(np.array([5.0, 6.0]) for _ in range(4)))
        # alternating extreme magnitudes overflow the fitted growth rate
        bad = TimeSeriesData(
            "bad", grid, tuple(np.array([v]) for v in (1e-300, 1e280, 1e-300, 1e280))
        )
        summary = batch_run(RunConfig(algorithm="pkf", iterations=2), (good, bad))
        by_id = {o.series_id: o for o in summary.outcomes}
        assert by_id["good"].error is None
        assert by_id["bad"].error is not None
        assert summary.n_failed == 1

    def test_failed_block_logs_each_warning_once(self, caplog):
        # s1 fails after logging degenerate-window warnings; calm and s3 pass
        block = (spiked("s1", 1e154), spiked("calm"), spiked("s3", 1e80))
        config = RunConfig(model=ModelKind.CONSTANT_REGULATION, iterations=3)
        lone = [line for data in block
                for line in warning_lines(caplog, lambda: batch_run(config, (data,)))]
        outcomes = []
        lines = warning_lines(caplog, lambda: outcomes.extend(batch_run(config, block).outcomes))
        assert [o.error is None for o in outcomes] == [False, True, True]
        assert lone and collections.Counter(lines) == collections.Counter(lone)

    def test_successful_block_logs_its_warnings(self, caplog):
        block = (spiked("w", 1e150), spiked("calm"), spiked("s3", 1e80))
        config = RunConfig(model=ModelKind.CONSTANT_REGULATION, iterations=3)
        stacked = warning_lines(
            caplog, lambda: run_pkf_block(block, ModelKind.CONSTANT_REGULATION, 3)
        )
        outcomes = []
        lines = warning_lines(caplog, lambda: outcomes.extend(batch_run(config, block).outcomes))
        assert all(o.error is None for o in outcomes)
        assert stacked and lines == stacked

    def test_a_failing_pkf_series_leaves_its_block_one_fit_per_iteration(self, monkeypatch):
        rows = []
        fit = pathkf.models.fit_spline_posterior

        def counted(*args):
            rows.append(len(args[6]))  # the anchors, one row per series still running
            return fit(*args)

        monkeypatch.setattr(pathkf.models, "fit_spline_posterior", counted)
        block = (spiked("a"), spiked("bad", 1e154), *(spiked(f"c{i}") for i in range(30)))
        config = RunConfig(model=ModelKind.CONSTANT_REGULATION, iterations=10)
        summary = batch_run(config, block)
        assert [o.series_id for o in summary.outcomes if o.error is not None] == ["bad"]
        assert len(rows) == 10
        assert (rows[0], rows[-1]) == (32, 31)

    def test_series_of_one_length_stack_whatever_their_grids(self, monkeypatch):
        # N const-reg series on N grids over L lengths, interleaved: one fit
        # per iteration for each block of up to BLOCK_ROWS series of a length
        times = []
        fit = pathkf.models.fit_spline_posterior

        def counted(*args):
            times.append(np.shape(args[2]))
            return fit(*args)

        monkeypatch.setattr(pathkf.models, "fit_spline_posterior", counted)
        rng = np.random.default_rng(28)
        counts = {6: 40, 9: 5, 13: 33}
        lengths = rng.permutation([n for n, count in counts.items() for _ in range(count)])
        series = tuple(
            TimeSeriesData(f"g{i}", TimeGrid(np.cumsum(rng.uniform(0.5, 2.0, n))),
                           tuple(np.array([10.0 + t, 10.5 + t]) for t in range(n)))
            for i, n in enumerate(lengths)
        )
        summary = batch_run(RunConfig(model=ModelKind.CONSTANT_REGULATION, iterations=4), series)
        assert summary.n_failed == 0
        assert [o.series_id for o in summary.outcomes] == [data.series_id for data in series]
        assert len(times) == 4 * sum(math.ceil(count / BLOCK_ROWS) for count in counts.values())
        # blocks in length order, each on its rows' own times; a block of one
        # is on its grid
        blocks = [(32, 6), (8, 6), (5, 9), (32, 13), (13,)]
        assert times == [shape for shape in blocks for _ in range(4)]

    def test_a_failing_baseline_series_and_its_neighbours_run_once(self, monkeypatch):
        calls = collections.Counter()
        run_ipls = pathkf.baselines.run_ipls

        def counted(data, *args):
            calls[data.series_id] += 1
            return run_ipls(data, *args)

        monkeypatch.setattr(pathkf.baselines, "run_ipls", counted)
        panel = (spiked("a"), spiked("bad", 1e300), spiked("c"))
        summary = batch_run(RunConfig(algorithm="ipls"), panel)
        assert [o.error is None for o in summary.outcomes] == [True, False, True]
        assert calls == {"a": 1, "bad": 1, "c": 1}

    @settings(deadline=None, max_examples=100)
    @example(data=SPIKE_PAIR)
    @given(data=harsh_series())
    def test_every_run_is_finite_or_a_located_overflow(self, data):
        # a series the reader accepts gives finite results, or an overflow
        # that names where it happened, never an error blaming the data
        where = r"series 'x': timepoint \d+ \(t=[^)]+\): "
        for algorithm in ALGORITHMS:
            tail = r".* at iteration \d+$" if algorithm == "pkf" else ""
            for kind in ModelKind:
                iterations = 2 if algorithm in ("pkf", "ipls") else None  # the others reject it
                config = RunConfig(algorithm=algorithm, model=kind, iterations=iterations)
                (outcome,) = batch_run(config, (data,)).outcomes
                if outcome.error is None:
                    assert all(np.isfinite(a).all() for a in arrays_in(outcome.result))
                else:
                    assert re.match(f"^NumericalOverflowError: {where}{tail}", outcome.error), (
                        algorithm, kind, outcome.error
                    )

    def test_baseline_matches_direct_call(self, tmp_path):
        series, _ = read_series_csv(panel_csv(tmp_path, n_series=2))
        summary = batch_run(RunConfig(algorithm="ukf"), series)
        for data, outcome in zip(series, summary.outcomes):
            direct = run_ukf(data, ModelKind.BIRTH_DEATH)
            assert outcome.result.means.tobytes() == direct.means.tobytes()
            assert outcome.result.variances.tobytes() == direct.variances.tobytes()


def mixed_grid_panel(seed, cut_a, cut_b, failing):
    """Series for a batch that stacks in blocks: 40 on grid A (one of them,
    ``failing``, with a replicate spread near 1e80 that overflows the weight
    products) and 7 on grid B, cut at ``cut_a`` and ``cut_b`` and
    interleaved with three series on grids of their own."""
    rng = np.random.default_rng(seed)

    def series(name, times):
        level = rng.uniform(5.0, 20.0, len(times))
        groups = tuple(v + rng.standard_normal(2) for v in level)
        return TimeSeriesData(name, TimeGrid(times), groups)

    grid_a, grid_b = np.arange(8.0), np.array([0.0, 0.5, 2.0, 3.0, 5.0, 6.5])
    group_a = [series(f"a{i}", grid_a) for i in range(40)]
    group_b = [series(f"b{i}", grid_b) for i in range(7)]
    unique = [series(f"u{i}", np.arange(5.0) * (1.0 + 0.1 * i)) for i in range(3)]
    wide = list(group_a[failing].samples)
    wide[3] = np.array([0.0, 2e80])
    group_a[failing] = TimeSeriesData(f"a{failing}", TimeGrid(grid_a), tuple(wide))
    return [
        *group_a[:cut_a], unique[0], *group_b[:cut_b], unique[1], *group_a[cut_a:],
        *group_b[cut_b:], unique[2],
    ]


class TestJobsInvariance:
    @settings(
        deadline=None, max_examples=5, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        st.integers(0, 2**32 - 1), st.integers(0, 40), st.integers(0, 7), st.integers(0, 39),
        st.sampled_from(sorted(pathkf.cli.MODEL_CHOICES)),
    )
    def test_batch_bytes_do_not_depend_on_jobs(self, tmp_path, seed, cut_a, cut_b, failing, model):
        # blocks split at grid changes, at the 32-row cap (jobs=1 runs one
        # 40-series run of grid A) and at pool chunk edges (jobs=2)
        series = mixed_grid_panel(seed, cut_a, cut_b, failing)
        data_path = str(tmp_path / "mixed.csv")
        write_series_csv(series, data_path)
        with open(data_path, "a") as handle:
            handle.write("short,0.0,1.0\nshort,1.0,1.0\n")  # two timepoints: skipped
        outputs = []
        for jobs in ("1", "2"):
            outputs.append(str(tmp_path / f"j{jobs}.json"))
            result = CliRunner().invoke(main, [
                "batch", "--model", model, "--iterations", "2", "--input", data_path,
                "--output", outputs[-1], "--jobs", jobs,
            ])
            assert result.exit_code == 1, result.output  # the wide series fails
        assert open(outputs[0], "rb").read() == open(outputs[1], "rb").read()
        written = json.loads(open(outputs[0]).read())
        assert written["skipped"] == ["short"]
        for data in series:
            try:
                expected = result_record(run_pkf(data, pathkf.cli.MODEL_CHOICES[model], 2))
            except PathkfError as exc:
                expected = {"error": f"{type(exc).__name__}: {exc}"}
            assert written["series"].pop(data.series_id) == expected
        assert written["series"] == {}


#: Bad config-file keys and values with their errors, in the order the
#: checks run: the file holding the values of one entry and of every entry
#: after it reports that entry's error. Where two entries set one key, the
#: earlier one's value is in the file. A key the command does not read is
#: rejected before any value is read, and every value of the wrong kind, in
#: the command's key order, before any name or range.
_SCHEDULE = 'a schedule {"breaks": [numbers], "values": [numbers]}'
_NEGATIVE_NOISE = {"breaks": [0], "values": [-1.0]}
CONFIG_ERRORS = {
    ("run",): [
        ("iteration", 3, "unknown config key 'iteration'"),
        ("algorithm", 3, "config 'algorithm' must be a string, got 3"),
        ("model", 3, "config 'model' must be a string, got 3"),
        ("iterations", 1.5, "config 'iterations' must be an integer, got 1.5"),
        ("q", "x", "config 'q' must be a number, got 'x'"),
        ("jobs", "2", "config 'jobs' must be an integer, got '2'"),
        ("retain_history", 1, "config 'retain_history' must be true or false, got 1"),
        ("input", 3, "config 'input' must be a string, got 3"),
        ("output", 3, "config 'output' must be a string, got 3"),
        ("model", "nope", "unknown model 'nope'"),
        ("algorithm", "nope", "unknown algorithm 'nope'"),
        ("jobs", 0, "jobs must be at least 1"),
        ("iterations", 0, "iterations must be at least 1"),
    ],
    ("simulate",): [
        ("replicate", 3, "unknown config key 'replicate'"),
        ("n0", "a", "config 'n0' must be a number, got 'a'"),
        ("replicates", 1.5, "config 'replicates' must be an integer, got 1.5"),
        ("birth", 3, f"config 'birth' must be {_SCHEDULE}, got 3"),
        ("noise", {"breaks": [0.0]}, f"config 'noise' must be {_SCHEDULE}, got {{'breaks': [0.0]}}"),
        ("seed", "x", "config 'seed' must be an integer, got 'x'"),
        ("dt", 0.0, "dt and t_end must be positive"),
        ("noise", _NEGATIVE_NOISE, "noise values must be non-negative, got -1.0"),
    ],
    ("simulate", "--scenario", "gene-panel"): [
        ("noise", _NEGATIVE_NOISE, "unknown config key 'noise'"),
        ("n_genes", 1.5, "config 'n_genes' must be an integer, got 1.5"),
        ("noise_level", "a", "config 'noise_level' must be a number, got 'a'"),
        ("seed", "x", "config 'seed' must be an integer, got 'x'"),
        ("n_timepoints", 3, "n_timepoints must be at least 4, got 3"),
        ("spacing", 0, "spacing must be positive, got 0"),
        ("noise_level", -1, "noise_level must be non-negative, got -1"),
        ("replicates", 0, "replicates must be at least 1"),
    ],
    ("bench",): [
        ("n_genes", 8, "unknown config key 'n_genes'"),
        ("noise", _NEGATIVE_NOISE, "noise values must be non-negative, got -1.0"),
    ],
}

#: Each command that reads a config file, with its keys.
_NUMBER_COMMANDS = [
    *((("run", "--algorithm", algorithm), pathkf.cli._RUN_KEYS) for algorithm in ALGORITHMS),
    (("batch",), pathkf.cli._RUN_KEYS),
    (("convergence",), pathkf.cli._RUN_KEYS),
    (("simulate",), pathkf.cli._BIRTH_DEATH_KEYS),
    (("bench",), pathkf.cli._BIRTH_DEATH_KEYS),
    (("simulate", "--scenario", "gene-panel"), pathkf.cli._GENE_PANEL_KEYS),
]
#: Integer keys that count processes, passes or draws: a huge value would
#: start that many workers, or loop and allocate without bound.
_COUNT_KEYS = {"jobs", "iterations", "n_genes", "replicates", "n_timepoints"}


class TestCommands:
    @pytest.mark.parametrize("command", list(CONFIG_ERRORS))
    def test_config_errors_report_in_a_fixed_order(self, tmp_path, command):
        entries = CONFIG_ERRORS[command]
        output = ["--output", str(tmp_path / "out.csv")] if command[0] != "run" else []
        for i, (key, _, message) in enumerate(entries):
            config = {k: value for k, value, _ in reversed(entries[i:])}
            path = write_text(tmp_path / "config.json", json.dumps(config))
            result = CliRunner().invoke(main, [*command, "--config", path, *output])
            assert (result.exit_code, result.output) == (2, f"error: {message}\n"), key

    def test_simulate_run_round_trip(self, tmp_path):
        runner = CliRunner()
        data_path = str(tmp_path / "data.csv")
        truth_path = str(tmp_path / "truth.csv")
        out_path = str(tmp_path / "out.json")
        result = runner.invoke(
            main,
            [
                "simulate", "--scenario", "birth-death", "--seed", "3",
                "--output", data_path, "--truth", truth_path,
                "--config", write_text(tmp_path / "sc.json", '{"t_end": 3.0, "replicates": 5}'),
            ],
        )
        assert result.exit_code == 0, result.output
        result = runner.invoke(
            main,
            ["run", "--algorithm", "pkf", "--iterations", "2",
             "--input", data_path, "--output", out_path],
        )
        assert result.exit_code == 0, result.output
        record = json.loads(open(out_path).read())
        assert "population" in record["series"]

    def test_parse_error_exits_2(self, tmp_path):
        bad = write_text(tmp_path / "bad.csv", "series_id,time,value\na,0,x\n")
        runner = CliRunner()
        result = runner.invoke(
            main, ["run", "--input", bad, "--output", str(tmp_path / "o.json")]
        )
        assert result.exit_code == 2

    def test_undecodable_data_exits_2_naming_the_file(self, tmp_path):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"series_id,time,value\n" + b"".join(
            b"caf\xe9,%d,1.0\n" % t for t in range(4)
        ))
        out = tmp_path / "o.json"
        result = CliRunner().invoke(main, ["run", "--input", str(bad), "--output", str(out)])
        assert result.exit_code == 2, result.output
        (line,) = result.stderr.splitlines()
        assert line.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xe9")
        assert not out.exists()

    def test_missing_paths_exit_2(self):
        runner = CliRunner()
        result = runner.invoke(main, ["run", "--algorithm", "pkf"])
        assert result.exit_code == 2

    def test_partial_failure_exits_1(self, tmp_path):
        rows = ["series_id,time,value"]
        for t in (0.0, 1.0, 2.0, 3.0):
            rows.append(f"good,{t},5.0")
        for t, v in zip((0.0, 1.0, 2.0, 3.0), (1e-300, 1e280, 1e-300, 1e280)):
            rows.append(f"bad,{t},{v}")
        path = write_text(tmp_path / "p.csv", "\n".join(rows) + "\n")
        runner = CliRunner()
        result = runner.invoke(
            main, ["run", "--input", path, "--output", str(tmp_path / "o.json")]
        )
        assert result.exit_code == 1
        record = json.loads(open(str(tmp_path / "o.json")).read())
        assert "error" in record["series"]["bad"]
        assert "error" not in record["series"]["good"]

    def test_flags_override_config_file(self, tmp_path):
        data_path = panel_csv(tmp_path, n_series=1)
        config_path = write_text(
            tmp_path / "cfg.json", json.dumps({"iterations": 3, "algorithm": "pkf"})
        )
        out_a = str(tmp_path / "a.json")
        out_b = str(tmp_path / "b.json")
        out_c = str(tmp_path / "c.json")
        runner = CliRunner()
        # config alone: 3 iterations; flag override: 1 iteration
        r = runner.invoke(main, ["convergence", "--input", data_path, "--output", out_a,
                                 "--config", config_path])
        assert r.exit_code == 0, r.output
        r = runner.invoke(main, ["convergence", "--input", data_path, "--output", out_b,
                                 "--config", config_path, "--iterations", "1"])
        assert r.exit_code == 0, r.output
        r = runner.invoke(main, ["convergence", "--input", data_path, "--output", out_c,
                                 "--iterations", "3"])
        assert r.exit_code == 0, r.output
        hist = lambda p: json.loads(open(p).read())["series"]["g0"]["history"]
        assert len(hist(out_a)) == 3
        assert len(hist(out_b)) == 1
        assert open(out_a, "rb").read() == open(out_c, "rb").read()

    def test_bench_command_writes_table(self, tmp_path):
        out = str(tmp_path / "table.csv")
        traj = str(tmp_path / "traj.json")
        config = write_text(
            tmp_path / "sc.json", json.dumps({"t_end": 3.0, "dt": 0.5, "replicates": 8})
        )
        runner = CliRunner()
        result = runner.invoke(
            main, ["bench", "--seed", "1", "--output", out, "--trajectories", traj,
                   "--config", config],
        )
        assert result.exit_code == 0, result.output
        lines = open(out).read().splitlines()
        assert lines[0] == "algorithm,parameters,mse,error"
        assert len(lines) == 13  # 12 table rows
        record = json.loads(open(traj).read())
        assert "truth" in record and len(record["rows"]) == 12

    def test_batch_command_with_labels_and_summary(self, tmp_path):
        runner = CliRunner()
        data_path = str(tmp_path / "panel.csv")
        truth_path = str(tmp_path / "ptruth.csv")
        labels_path = str(tmp_path / "labels.csv")
        result = runner.invoke(
            main,
            ["simulate", "--scenario", "gene-panel", "--seed", "5",
             "--output", data_path, "--truth", truth_path, "--labels", labels_path,
             "--config", write_text(tmp_path / "pc.json", '{"n_genes": 8}')],
        )
        assert result.exit_code == 0, result.output
        out_path = str(tmp_path / "res.json")
        summary_path = str(tmp_path / "summary.json")
        result = runner.invoke(
            main,
            ["batch", "--model", "const-reg", "--iterations", "3",
             "--input", data_path, "--output", out_path,
             "--labels", labels_path, "--summary", summary_path, "--jobs", "2"],
        )
        assert result.exit_code == 0, result.output
        summary = json.loads(open(summary_path).read())
        assert set(summary["label_means"]) == {"dynamic", "static"}
        assert len(summary["series"]) == 8

    def test_gene_panel_config_seed_and_flag_override(self, tmp_path):
        runner = CliRunner()

        def simulate(name, config, *flags):
            path = tmp_path / f"{name}.csv"
            cfg = write_text(tmp_path / f"{name}.json", json.dumps(config))
            result = runner.invoke(main, ["simulate", "--scenario", "gene-panel", *flags,
                                          "--output", str(path), "--config", cfg])
            assert result.exit_code == 0, result.output
            return path.read_bytes()

        from_config = simulate("config", {"seed": 3, "n_genes": 4})
        assert from_config == simulate("flag", {"n_genes": 4}, "--seed", "3")
        assert from_config != simulate("default", {"n_genes": 4})
        assert simulate("both", {"seed": 3, "n_genes": 4}, "--seed", "5") == simulate(
            "flag5", {"n_genes": 4}, "--seed", "5"
        )

    def test_overflowing_scenario_exits_2(self, tmp_path):
        out = tmp_path / "out.csv"
        config = {"birth": {"breaks": [0], "values": [100.0]}}
        result = CliRunner().invoke(
            main, ["simulate", "--output", str(out),
                   "--config", write_text(tmp_path / "sc.json", json.dumps(config))],
        )
        assert result.exit_code == 2
        assert result.stderr.startswith("error: birth-death flow overflowed (")
        assert not out.exists()

    def test_underflowing_scenario_exits_2_naming_the_time(self, tmp_path):
        # the population underflows to 0 in the first segment, which ends at
        # the default birth break t=5
        out = tmp_path / "out.csv"
        config = {"death": {"breaks": [0], "values": [1000.0]}}
        result = CliRunner().invoke(
            main, ["simulate", "--output", str(out),
                   "--config", write_text(tmp_path / "sc.json", json.dumps(config))],
        )
        assert result.exit_code == 2
        assert result.stderr == (
            "error: birth-death flow underflowed (n0=100.0, growth=-999.95, dt=5.0) at t=5.0\n"
        )
        assert not out.exists()

    def test_end_to_end_determinism(self, tmp_path):
        runner = CliRunner()
        args_a = ["simulate", "--seed", "11", "--output", str(tmp_path / "a.csv"),
                  "--config", write_text(tmp_path / "s.json", '{"t_end": 3.0, "replicates": 4}')]
        args_b = ["simulate", "--seed", "11", "--output", str(tmp_path / "b.csv"),
                  "--config", str(tmp_path / "s.json")]
        assert runner.invoke(main, args_a).exit_code == 0
        assert runner.invoke(main, args_b).exit_code == 0
        assert open(tmp_path / "a.csv", "rb").read() == open(tmp_path / "b.csv", "rb").read()

    def test_negative_q_exits_2_before_any_series_runs(self, tmp_path):
        out = tmp_path / "o.json"
        result = CliRunner().invoke(
            main, ["run", "--algorithm", "kf", "--q", "-1",
                   "--input", panel_csv(tmp_path), "--output", str(out)],
        )
        assert result.exit_code == 2
        assert "q must be finite and non-negative" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "batch", "convergence"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_explicit_q_for_pkf_exits_2(self, tmp_path, command, source):
        out = tmp_path / "o.json"
        args = [command, "--input", panel_csv(tmp_path), "--output", str(out)]
        if source == "flag":
            args += ["--q", "2"]
        else:
            args += ["--config", write_text(tmp_path / "cfg.json", '{"q": 2.0}')]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert "q does not apply to pkf" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("algorithm", ["kf", "ukf", "urts"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_iterations_for_a_one_pass_baseline_exits_2(self, tmp_path, algorithm, source):
        out = tmp_path / "o.json"
        args = ["run", "--algorithm", algorithm, "--input", panel_csv(tmp_path),
                "--output", str(out)]
        if source == "flag":
            args += ["--iterations", "7"]
        else:
            args += ["--config", write_text(tmp_path / "cfg.json", '{"iterations": 7}')]
        result = CliRunner().invoke(main, args)
        assert (result.exit_code, result.stderr) == (
            2, "error: iterations applies only to pkf and ipls, which iterate\n"
        )
        assert not out.exists()
        with pytest.raises(InvalidConfigError, match="^iterations applies only to pkf and ipls"):
            RunConfig(algorithm=algorithm, iterations=1)
        assert RunConfig(algorithm="ipls").spec().iterations == DEFAULT_ITERATIONS

    @pytest.mark.parametrize(
        "config, flags",
        [
            *((config, flags) for config, flag in [
                ({"algorithm": "kf", "q": "abc"}, ["--q", "2"]),
                ({"iterations": "x"}, ["--iterations", "2"]),
                ({"jobs": "two"}, ["--jobs", "1"]),
                ({"model": 3}, ["--model", "const-reg"]),
                ({"retain_history": "false"}, ["--retain-history"]),
            ] for flags in ([], flag)),  # the file is checked even where a flag wins
            ({"model": "nope"}, []),
            ({"input": 3}, []),  # --input is always given
        ],
    )
    def test_bad_config_file_value_exits_2(self, tmp_path, config, flags):
        out = tmp_path / "o.json"
        result = CliRunner().invoke(
            main, ["run", "--input", panel_csv(tmp_path), "--output", str(out), *flags,
                   "--config", write_text(tmp_path / "cfg.json", json.dumps(config))],
        )
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, config",
        [
            (["--algorithm", "kf", "--retain-history"], {}),
            (["--algorithm", "kf"], {"retain_history": True}),
            (["--algorithm", "ipls"], {"algorithm": "pkf", "retain_history": True}),
        ],
    )
    def test_retain_history_with_a_baseline_exits_2(self, tmp_path, args, config):
        out = tmp_path / "o.json"
        result = CliRunner().invoke(
            main, ["run", *args, "--input", panel_csv(tmp_path), "--output", str(out),
                   "--config", write_text(tmp_path / "cfg.json", json.dumps(config))],
        )
        assert (result.exit_code, result.stderr) == (
            2, "error: retain_history applies only to pkf, whose iterations it keeps\n"
        )
        assert not out.exists()
        with pytest.raises(InvalidConfigError, match="^retain_history applies only to pkf"):
            RunConfig(algorithm="urts", retain_history=True)

    @pytest.mark.parametrize(
        "command, config, flags",
        [
            *((command, config, []) for command in ("simulate", "bench") for config in (
                {"n0": "abc"},
                {"dt": "0.5"},
                {"replicates": 2.5},
                {"birth": {"breaks": [0], "values": ["x"]}},
                {"seed": "7"},
            )),
            ("gene-panel", {"n_genes": "x"}, []),
            ("gene-panel", {"spacing": "2"}, []),
            ("gene-panel", {"seed": "3"}, []),
            # the file is checked even where the flag wins
            *((command, {"seed": "7"}, ["--seed", "3"])
              for command in ("simulate", "gene-panel", "bench")),
        ],
    )
    def test_bad_scenario_config_value_exits_2(self, tmp_path, command, config, flags):
        out = tmp_path / "out.csv"
        args = {
            "simulate": ["simulate", "--scenario", "birth-death"],
            "gene-panel": ["simulate", "--scenario", "gene-panel"],
            "bench": ["bench"],
        }[command]
        result = CliRunner().invoke(
            main, [*args, *flags, "--output", str(out),
                   "--config", write_text(tmp_path / "cfg.json", json.dumps(config))],
        )
        (key,) = config
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: config {key!r} must be ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "bench"])
    @pytest.mark.parametrize("key", ["birth", "noise", "seed"])
    def test_null_is_the_wrong_kind(self, tmp_path, command, key):
        out = tmp_path / "out.csv"
        kind = "an integer" if key == "seed" else _SCHEDULE
        result = CliRunner().invoke(
            main, [command, "--output", str(out),
                   "--config", write_text(tmp_path / "cfg.json", json.dumps({key: None}))],
        )
        assert result.exit_code == 2
        assert result.stderr == f"error: config {key!r} must be {kind}, got None\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, message",
        [
            ("batch", "the batch workflow runs the pathspace filter"),
            ("convergence", "convergence traces apply to the pathspace filter"),
        ],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_pkf_only_commands_check_the_merged_algorithm(self, tmp_path, command, message,
                                                          source):
        out = tmp_path / "o.json"
        args = [command, "--input", panel_csv(tmp_path), "--output", str(out)]
        if source == "flag":
            args += ["--algorithm", "kf"]
        else:
            args += ["--config", write_text(tmp_path / "cfg.json", '{"algorithm": "kf"}')]
        result = CliRunner().invoke(main, args)
        assert (result.exit_code, result.stderr) == (2, f"error: {message}\n")
        assert not out.exists()
        # a flag over the file's algorithm wins, as for every other key
        result = CliRunner().invoke(main, [*args, "--algorithm", "pkf"])
        assert result.exit_code == 0, result.output
        assert "filter_mean" in json.loads(out.read_text())["series"]["g0"]

    def test_convergence_keeps_history_over_the_file(self, tmp_path):
        out = tmp_path / "o.json"
        config = write_text(tmp_path / "cfg.json", '{"retain_history": false, "iterations": 2}')
        result = CliRunner().invoke(
            main, ["convergence", "--input", panel_csv(tmp_path), "--output", str(out),
                   "--config", config],
        )
        assert result.exit_code == 0, result.output
        assert len(json.loads(out.read_text())["series"]["g0"]["history"]) == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["--verbose", "run", "--algorithm", "pkf"],
            ["convergence", "--retain-history"],
        ],
    )
    def test_removed_flags_are_usage_errors(self, tmp_path, args):
        out = tmp_path / "o.json"
        result = CliRunner().invoke(
            main, [*args, "--input", panel_csv(tmp_path), "--output", str(out)]
        )
        assert result.exit_code == 2
        assert "No such option" in result.stderr
        assert not out.exists()

    def test_batch_labels_without_summary_exits_2_writing_nothing(self, tmp_path):
        out = tmp_path / "o.json"
        labels = write_text(tmp_path / "labels.csv", "series_id,label\ng0,up\n")
        result = CliRunner().invoke(
            main, ["batch", "--input", panel_csv(tmp_path), "--output", str(out),
                   "--labels", labels],
        )
        assert (result.exit_code, result.stderr) == (
            2, "error: --labels applies only with --summary\n"
        )
        assert not out.exists()

    def test_a_bad_labels_file_fails_before_any_series_runs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pathkf.cli, "batch_run", None)  # a run would fail here
        out, summary = tmp_path / "o.json", tmp_path / "s.json"
        labels = write_text(tmp_path / "labels.csv", "id,label\ng0,up\n")
        result = CliRunner().invoke(
            main, ["batch", "--input", panel_csv(tmp_path), "--output", str(out),
                   "--labels", labels, "--summary", str(summary)],
        )
        assert (result.exit_code, result.stderr) == (
            2, "error: line 1: expected header 'series_id,label'\n"
        )
        assert not out.exists() and not summary.exists()

    def test_a_config_with_a_byte_order_mark_reads_as_without(self, tmp_path):
        text = json.dumps({"iterations": 2, "input": panel_csv(tmp_path)})
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        outputs = []
        for name, config in (("plain", write_text(tmp_path / "plain.json", text)), ("marked", marked)):
            out = tmp_path / f"{name}.json.out"
            result = CliRunner().invoke(
                main, ["run", "--config", str(config), "--output", str(out)]
            )
            assert result.exit_code == 0, result.output
            outputs.append((result.stdout, out.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_birth_death_labels_exit_2_writing_nothing(self, tmp_path):
        data, labels = tmp_path / "data.csv", tmp_path / "labels.csv"
        result = CliRunner().invoke(
            main, ["simulate", "--scenario", "birth-death", "--output", str(data),
                   "--labels", str(labels)],
        )
        assert (result.exit_code, result.stderr) == (
            2, "error: --labels applies only to the gene-panel scenario\n"
        )
        assert not data.exists() and not labels.exists()

    @pytest.mark.parametrize(
        "scenario, config, message",
        [
            ("birth-death", {"replicates": 10**9},
             "81 grid points x 1000000000 replicates"),
            ("gene-panel", {"n_genes": 10**9},
             "1000000000 genes x 14 timepoints x 2 replicates"),
        ],
    )
    def test_oversized_scenario_exits_2_before_drawing(
        self, tmp_path, monkeypatch, scenario, config, message
    ):
        # a scenario that reached its generator would fail here, not allocate
        monkeypatch.setattr(np.random, "default_rng", None)
        data = tmp_path / "data.csv"
        result = CliRunner().invoke(
            main, ["simulate", "--scenario", scenario, "--output", str(data),
                   "--config", write_text(tmp_path / "sc.json", json.dumps(config))],
        )
        assert (result.exit_code, result.stderr) == (
            2, f"error: a scenario may draw at most 100000000 samples, got {message}\n"
        )
        assert not data.exists()

    @pytest.mark.parametrize(
        "command, text, message",
        [
            (["run"], '{"q": %s}' % ("9" * 5000), "is not valid JSON: Exceeds the limit"),
            (["run", "--algorithm", "kf"], '{"q": 1%s}' % ("0" * 400),
             "config 'q' must be a number, got 1000"),
            (["simulate"], '{"n0": -1%s}' % ("0" * 400), "config 'n0' must be a number, got -1000"),
            (["bench"], '{"t_end": NaN}', "t_end must be finite, got nan"),
            (["bench"], '{"t_end": Infinity}', "t_end must be finite, got inf"),
            (["simulate"], '{"dt": NaN}', "dt must be finite, got nan"),
            (["simulate", "--scenario", "gene-panel"], '{"noise_level": Infinity}',
             "noise_level must be finite, got inf"),
            (["simulate", "--scenario", "gene-panel"], '{"spacing": Infinity}',
             "spacing must be finite, got inf"),
            (["simulate"], '{"seed": -1}', "seed must be non-negative, got -1"),
            (["simulate"], '{"n0": NaN}', "n0 must be finite, got nan"),
            (["simulate"], '{"birth": {"breaks": [0, NaN], "values": [0.05, 0.15]}}',
             "birth breaks must be finite, got nan"),
            (["simulate"], '{"death": {"breaks": [0], "values": [NaN]}}',
             "death values must be finite, got nan"),
            (["simulate"], '{"noise": {"breaks": [0], "values": [Infinity]}}',
             "noise values must be finite, got inf"),
            (["bench"], '{"t_end": 1e300}',
             "t_end / dt must give at most 1000000 grid points, got t_end=1e+300, dt=0.25"),
        ],
        ids=["digit-limit", "q-past-float", "n0-past-float", "t_end-nan", "t_end-inf", "dt-nan",
             "noise_level-inf", "spacing-inf", "negative-seed", "n0-nan", "birth-break-nan",
             "death-value-nan", "noise-value-inf", "grid-too-large"],
    )
    def test_config_number_errors_exit_2(self, tmp_path, command, text, message):
        out = tmp_path / "o.out"
        io = ["--input", panel_csv(tmp_path)] if command[0] == "run" else []
        result = CliRunner().invoke(
            main, [*command, *io, "--output", str(out),
                   "--config", write_text(tmp_path / "cfg.json", text)],
        )
        assert result.exit_code == 2, result.output
        (line,) = result.stderr.splitlines()
        assert line.startswith("error: ") and message in line
        assert not out.exists()

    @settings(deadline=None, max_examples=120,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=st.data())
    def test_no_config_number_ends_in_a_traceback(self, tmp_path, case):
        command, kinds = case.draw(st.sampled_from(_NUMBER_COMMANDS), label="command")
        key = case.draw(st.sampled_from(sorted(kinds)), label="key")
        values = st.integers(1, 9).map(lambda d: f"{d}" * 5000)  # past Python's digit limit
        if kinds[key] in (int, float):
            values |= st.sampled_from(["NaN", "Infinity", "-Infinity"])
            if key not in _COUNT_KEYS:
                values |= st.integers(10**399, 10**400 - 1).flatmap(
                    lambda n: st.sampled_from([str(n), str(-n)])
                )
        value = case.draw(values, label="value")
        io = [] if command[0] in ("simulate", "bench") else ["--input", panel_csv(tmp_path)]
        result = CliRunner().invoke(
            main, [*command, *io, "--output", str(tmp_path / "o.out"),
                   "--config", write_text(tmp_path / "cfg.json", f'{{"{key}": {value}}}')],
        )
        if result.exit_code != 0:
            assert result.exit_code == 2, result.output
            (line,) = result.stderr.splitlines()
            assert line.startswith("error: ")

    def test_bench_trajectories_write_failure_exits_2(self, tmp_path):
        config = write_text(
            tmp_path / "sc.json", json.dumps({"t_end": 3.0, "dt": 0.5, "replicates": 8})
        )
        result = CliRunner().invoke(
            main, ["bench", "--output", str(tmp_path / "table.csv"),
                   "--trajectories", str(tmp_path), "--config", config],
        )
        assert result.exit_code == 2
        assert "cannot write" in result.output
