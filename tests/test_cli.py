"""Ingestion, serialization, batch execution, and the command-line surface."""

import json
import multiprocessing
import os
import time

import numpy as np
import pytest
from click.testing import CliRunner

from pathkf import (
    BirthDeathScenario,
    GroundTruth,
    ModelKind,
    TimeGrid,
    TimeSeriesData,
    run_pkf,
    run_ukf,
    simulate_birth_death,
)
import pathkf.cli
from pathkf.bench import BenchmarkReport
from pathkf.cli import (
    WORKER_DIED,
    IoError,
    ParseError,
    RunConfig,
    batch_run,
    main,
    read_series_csv,
    write_batch_results,
    write_result,
    write_series_csv,
    write_truth_csv,
)

from test_core import arrays_in


def write_text(path, text):
    path.write_text(text)
    return str(path)


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

        def dying(spec, data, *rest):
            if data.series_id == "g5":
                time.sleep(1.0)  # the other worker finishes g0-g4 meanwhile
                os._exit(1)
            return run_spec(spec, data, *rest)

        monkeypatch.setattr(pathkf.cli, "run_spec", dying)
        result = runner.invoke(main, args + ["--jobs", "2", "--output", out2])
        assert result.exit_code == 1, result.output
        serial = json.loads((tmp_path / "j1.json").read_text())["series"]
        pooled = json.loads((tmp_path / "j2.json").read_text())["series"]
        assert pooled.pop("g5") == {"error": WORKER_DIED}
        serial.pop("g5")
        assert pooled == serial

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

    def test_baseline_matches_direct_call(self, tmp_path):
        series, _ = read_series_csv(panel_csv(tmp_path, n_series=2))
        summary = batch_run(RunConfig(algorithm="ukf"), series)
        for data, outcome in zip(series, summary.outcomes):
            direct = run_ukf(data, ModelKind.BIRTH_DEATH)
            assert outcome.result.means.tobytes() == direct.means.tobytes()
            assert outcome.result.variances.tobytes() == direct.variances.tobytes()


class TestCommands:
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

    @pytest.mark.parametrize(
        "config",
        [
            {"algorithm": "kf", "q": "abc"},
            {"iterations": "x"},
            {"jobs": "two"},
            {"model": "nope"},
            {"retain_history": "false"},
        ],
    )
    def test_bad_config_file_value_exits_2(self, tmp_path, config):
        out = tmp_path / "o.json"
        result = CliRunner().invoke(
            main, ["run", "--input", panel_csv(tmp_path), "--output", str(out),
                   "--config", write_text(tmp_path / "cfg.json", json.dumps(config))],
        )
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert not out.exists()

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
