"""The perf benchmark harness: output files, baseline gate, CLI."""

import json
import os

import pytest

from repro.analysis.bench import (
    BENCHMARKS,
    BenchResult,
    bench_sweep_parallel,
    compare_to_baseline,
    load_baseline,
    machine_metadata,
    profile_benchmarks,
    run_benchmarks,
    write_baseline,
    write_results,
)
from repro.analysis.cli import main


def _fake_results():
    return {
        "single_config": BenchResult("single_config", runs=[0.5, 0.4, 0.6]),
        "comparator": BenchResult("comparator", runs=[0.010]),
    }


class TestComparisonLogic:
    def test_regression_over_threshold_fails(self):
        results = _fake_results()
        baseline = {"single_config": 0.3, "comparator": 0.009}
        regressions = compare_to_baseline(results, baseline, threshold=0.20)
        # 0.5 vs 0.3 is a 1.67x slowdown; 0.010 vs 0.009 is within 20%.
        assert len(regressions) == 1
        assert "single_config" in regressions[0]

    def test_within_threshold_passes(self):
        results = _fake_results()
        baseline = {"single_config": 0.45, "comparator": 0.010}
        assert compare_to_baseline(results, baseline, threshold=0.20) == []

    def test_benches_missing_from_baseline_are_ignored(self):
        results = _fake_results()
        assert compare_to_baseline(results, {}, threshold=0.20) == []

    def test_boundary_is_strictly_greater(self):
        results = {"x": BenchResult("x", runs=[1.2])}
        assert compare_to_baseline(results, {"x": 1.0}, threshold=0.20) == []
        results = {"x": BenchResult("x", runs=[1.21])}
        assert compare_to_baseline(results, {"x": 1.0}, threshold=0.20)

    def test_baseline_roundtrip(self, tmp_path):
        path = write_baseline(_fake_results(), tmp_path / "BASELINE.json")
        baseline = load_baseline(path)
        assert baseline["single_config"] == pytest.approx(0.5)
        assert baseline["comparator"] == pytest.approx(0.010)

    def test_load_rejects_non_baseline_files(self, tmp_path):
        bogus = tmp_path / "x.json"
        bogus.write_text(json.dumps({"kind": "something_else"}))
        with pytest.raises(ValueError, match="not a bench baseline"):
            load_baseline(bogus)


class TestOutputFiles:
    def test_write_results_one_file_per_bench(self, tmp_path):
        paths = write_results(_fake_results(), tmp_path)
        names = sorted(p.name for p in paths)
        assert names == ["BENCH_comparator.json", "BENCH_single_config.json"]
        payload = json.loads((tmp_path / "BENCH_single_config.json").read_text())
        assert payload["name"] == "single_config"
        assert payload["median_s"] == pytest.approx(0.5)
        assert payload["runs"] == [0.5, 0.4, 0.6]
        assert payload["meta"]["cpu_count"] >= 1
        assert payload["meta"]["python"]

    def test_machine_metadata_fields(self):
        meta = machine_metadata()
        for key in ("python", "platform", "machine", "cpu_count", "taken_at"):
            assert key in meta

    def test_registry_covers_required_workloads(self):
        assert set(BENCHMARKS) >= {
            "single_config",
            "comparator",
            "hierarchy_access",
            "hierarchy_access_traced",
            "sweep_parallel",
        }

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            run_benchmarks(names=["nope"])


class TestRealWorkloads:
    def test_comparator_bench_runs(self):
        result = run_benchmarks(names=["comparator"], quick=True)["comparator"]
        assert result.median_s > 0
        # the vectorized path must beat the gate-level scan decisively
        assert result.extra["fast_speedup"] > 1.0

    def test_sweep_parallel_bench_records_speedup(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        result = run_benchmarks(
            names=["sweep_parallel"], quick=True, jobs=2
        )["sweep_parallel"]
        assert result.skipped is None
        assert result.extra["jobs"] == 2.0
        assert result.extra["serial_median_s"] > 0
        assert result.extra["parallel_median_s"] > 0
        assert result.extra["speedup"] > 0

    def test_sweep_parallel_skips_on_single_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        result = bench_sweep_parallel(quick=True, jobs=2)
        assert result.skipped == "insufficient_cpus"
        assert result.runs == []
        assert result.median_s == 0.0
        assert result.extra["cpus"] == 1.0

    def test_sweep_parallel_skips_with_one_worker(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        result = bench_sweep_parallel(quick=True, jobs=1)
        assert result.skipped == "insufficient_cpus"


class TestEngineSelection:
    def test_engine_aware_benches_get_fast_suffix(self):
        results = run_benchmarks(
            names=["hierarchy_access"], quick=True, engine="fast"
        )
        assert list(results) == ["hierarchy_access_fast"]
        assert results["hierarchy_access_fast"].name == "hierarchy_access_fast"
        assert results["hierarchy_access_fast"].median_s > 0

    def test_engine_agnostic_benches_keep_their_name(self):
        results = run_benchmarks(
            names=["comparator"], quick=True, engine="fast"
        )
        assert list(results) == ["comparator"]

    def test_object_engine_keeps_plain_names(self):
        results = run_benchmarks(
            names=["hierarchy_access"], quick=True, engine="object"
        )
        assert list(results) == ["hierarchy_access"]


class TestSkippedResults:
    def _skipped(self):
        return BenchResult(
            "sweep_parallel",
            runs=[],
            extra={"cpus": 1.0},
            skipped="insufficient_cpus",
        )

    def test_compare_ignores_skipped_results(self):
        results = {"sweep_parallel": self._skipped()}
        baseline = {"sweep_parallel": 0.5}
        assert compare_to_baseline(results, baseline, threshold=0.20) == []

    def test_load_baseline_drops_skipped_entries(self, tmp_path):
        results = {
            "sweep_parallel": self._skipped(),
            "comparator": BenchResult("comparator", runs=[0.010]),
        }
        path = write_baseline(results, tmp_path / "BASELINE.json")
        assert load_baseline(path) == {"comparator": pytest.approx(0.010)}

    def test_skipped_reason_serialized(self, tmp_path):
        paths = write_results({"sweep_parallel": self._skipped()}, tmp_path)
        payload = json.loads(paths[0].read_text())
        assert payload["skipped"] == "insufficient_cpus"
        assert payload["median_s"] == 0.0


class TestProfile:
    def test_profile_writes_pstats_dump(self, tmp_path):
        import pstats

        paths = profile_benchmarks(
            names=["comparator"], quick=True, output_dir=tmp_path
        )
        assert [p.name for p in paths] == ["BENCH_profile_comparator.pstats"]
        stats = pstats.Stats(str(paths[0]))
        assert stats.total_calls > 0

    def test_profile_cli_flag(self, tmp_path, capsys):
        rc = main(
            [
                "bench",
                "--quick",
                "--only",
                "comparator",
                "--profile",
                "--output-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "BENCH_profile_comparator.pstats").exists()
        assert "pstats" in capsys.readouterr().out


class TestBenchCli:
    def test_bench_writes_files_and_succeeds(self, tmp_path, capsys):
        rc = main(
            [
                "bench",
                "--quick",
                "--only",
                "comparator",
                "--output-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "BENCH_comparator.json").exists()
        assert "comparator" in capsys.readouterr().out

    def test_bench_fails_on_regression(self, tmp_path, capsys):
        baseline = tmp_path / "BASELINE.json"
        write_baseline(
            {"comparator": BenchResult("comparator", runs=[1e-12])}, baseline
        )
        rc = main(
            [
                "bench",
                "--quick",
                "--only",
                "comparator",
                "--output-dir",
                str(tmp_path),
                "--baseline",
                str(baseline),
            ]
        )
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_warn_only_downgrades_regression(self, tmp_path, capsys):
        baseline = tmp_path / "BASELINE.json"
        write_baseline(
            {"comparator": BenchResult("comparator", runs=[1e-12])}, baseline
        )
        rc = main(
            [
                "bench",
                "--quick",
                "--only",
                "comparator",
                "--output-dir",
                str(tmp_path),
                "--baseline",
                str(baseline),
                "--warn-only",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.err
        assert "warn-only" in captured.out

    def test_write_baseline_flag(self, tmp_path):
        target = tmp_path / "NEW_BASELINE.json"
        rc = main(
            [
                "bench",
                "--quick",
                "--only",
                "comparator",
                "--output-dir",
                str(tmp_path),
                "--write-baseline",
                str(target),
            ]
        )
        assert rc == 0
        assert "comparator" in load_baseline(target)
