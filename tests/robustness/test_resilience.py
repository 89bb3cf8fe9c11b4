"""Retry, graceful degradation, and checkpoint/resume for sweeps.

The executor-level tests run in-process (``jobs=1``), where job
functions may be closures; ``tests/analysis/test_parallel.py`` holds
the same contract against worker processes.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.analysis.runner import result_checkpoint, spec_pair_jobs
from repro.common.errors import SimulationError
from repro.obs.manifest import config_fingerprint
from repro.robustness import safeio, supervisor
from repro.robustness.resilience import Checkpoint, FailureRecord
from repro.robustness.supervisor import SupervisedSweepExecutor, SweepJob


@pytest.fixture
def sleeps(monkeypatch):
    """Record backoff sleeps instead of waiting them out."""
    waits = []
    monkeypatch.setattr(supervisor.time, "sleep", waits.append)
    return waits


def run_jobs(jobs, **options):
    """Run ``(label, fn)`` pairs through the in-process executor."""
    executor = SupervisedSweepExecutor(1, **options)
    return executor.run([SweepJob(label, fn) for label, fn in jobs])


@pytest.mark.usefixtures("sleeps")
class TestRetries:
    def test_all_jobs_succeed_first_try(self):
        outcome = run_jobs([("a", lambda: 1), ("b", lambda: 2)])
        assert outcome.results == {"a": 1, "b": 2}
        assert outcome.complete
        assert outcome.ordered_results(["b", "a"]) == [2, 1]

    def test_transient_failure_is_retried(self):
        calls = {"n": 0}
        events = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return "ok"

        outcome = run_jobs(
            [("flaky", flaky)],
            retries=2,
            on_event=lambda label, event: events.append(event),
        )
        assert outcome.results["flaky"] == "ok"
        assert calls["n"] == 3
        assert events == ["retry", "retry", "ok"]
        assert outcome.complete

    def test_backoff_is_exponential(self, sleeps):
        def always_fails():
            raise RuntimeError("no")

        run_jobs([("bad", always_fails)], retries=3, backoff_s=0.5)
        assert sleeps == [0.5, 1.0, 2.0]

    def test_exhausted_job_becomes_failure_record(self):
        def always_fails():
            raise ValueError("deterministic bug")

        outcome = run_jobs(
            [("good", lambda: 7), ("bad", always_fails), ("after", lambda: 8)],
            retries=1,
        )
        # Graceful degradation: the good jobs' results survive.
        assert outcome.results == {"good": 7, "after": 8}
        assert not outcome.complete
        (failure,) = outcome.failures
        assert failure.label == "bad"
        assert failure.attempts == 2
        assert failure.error_type == "ValueError"
        assert "deterministic bug" in failure.message
        assert "always_fails" in failure.traceback

    def test_keyboard_interrupt_is_not_swallowed(self):
        def interrupted():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_jobs([("x", interrupted)])


@pytest.mark.usefixtures("sleeps")
class TestCheckpoint:
    def _checkpoint(self, path):
        return Checkpoint(
            path, serialize=lambda r: {"v": r}, deserialize=lambda p: p["v"]
        )

    def test_checkpoint_written_and_resumed(self, tmp_path):
        path = tmp_path / "ckpt.json"
        ran = []

        def job(label, value):
            def fn():
                ran.append(label)
                return value

            return (label, fn)

        first = run_jobs(
            [job("a", 1), job("b", 2)], checkpoint=self._checkpoint(path)
        )
        assert first.results == {"a": 1, "b": 2}
        payload = json.loads(path.read_text())
        assert payload["kind"] == "sweep_checkpoint"
        assert set(payload["completed"]) == {"a", "b"}

        ran.clear()
        second = run_jobs(
            [job("a", 1), job("b", 2), job("c", 3)],
            checkpoint=self._checkpoint(path),
        )
        assert ran == ["c"]  # completed jobs were not re-run
        assert second.resumed == ["a", "b"]
        assert second.results == {"a": 1, "b": 2, "c": 3}

    def test_failed_jobs_are_retried_on_resume(self, tmp_path):
        path = tmp_path / "ckpt.json"
        healthy = {"now": False}

        def sometimes():
            if not healthy["now"]:
                raise RuntimeError("down")
            return 42

        jobs = [("ok", lambda: 1), ("sick", sometimes)]
        first = run_jobs(jobs, retries=1, checkpoint=self._checkpoint(path))
        assert [f.label for f in first.failures] == ["sick"]

        healthy["now"] = True
        second = run_jobs(jobs, retries=1, checkpoint=self._checkpoint(path))
        assert second.resumed == ["ok"]
        assert second.results["sick"] == 42
        assert second.complete
        # The stale failure record is gone from the checkpoint too.
        payload = json.loads(path.read_text())
        assert payload["failures"] == []

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": 1, "kind": "spec_sweep"}))
        ckpt = self._checkpoint(path)
        with pytest.raises(ValueError):
            ckpt.load()

    def test_failure_record_roundtrip(self):
        record = FailureRecord(
            "lbl", 3, "RuntimeError", "boom", spec={"fn": "f"}, key="k"
        )
        assert FailureRecord.from_dict(record.to_dict()) == record

    def test_stale_cell_reruns_and_overwrites_its_cell(self, tmp_path):
        """A label stored under another key is not a result for this
        job: it reruns, is listed stale, and its new cell replaces the
        old one, so the next identical run resumes it."""
        path = tmp_path / "ckpt.json"

        def square(x):
            return x * x

        def run(arg):
            executor = SupervisedSweepExecutor(
                1, checkpoint=self._checkpoint(path)
            )
            return executor.run([SweepJob("cell", square, (arg,))])

        assert run(2).stale == []
        moved = run(3)
        assert moved.stale == ["cell"] and moved.resumed == []
        assert moved.results == {"cell": 9}
        stored = json.loads(path.read_text())["completed"]["cell"]
        key = SweepJob("cell", square, (3,)).key()
        assert stored == {"key": key, "result": {"v": 9}}
        again = run(3)
        assert again.resumed == ["cell"] and again.stale == []


class TestCellKey:
    def test_key_is_the_sha256_of_the_canonical_spec(self):
        job = SweepJob("any label", json.dumps, ([1, "a"],), {"indent": 2})
        spec = {"fn": "json.dumps", "args": [[1, "a"]], "kwargs": {"indent": 2}}
        assert job.spec() == spec
        canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
        assert job.key() == hashlib.sha256(canonical.encode()).hexdigest()
        # the label names the cell; it is not part of what it computes
        other = SweepJob("other", json.dumps, ([1, "a"],), {"indent": 2})
        assert other.key() == job.key()

    def test_config_argument_enters_the_spec_as_its_asdict_tree(self):
        (job,) = spec_pair_jobs([("wrf", "wrf")], 4_000, engine="fast")
        config = job.args[0]
        spec_config = job.spec()["args"][0]
        assert spec_config == json.loads(json.dumps(dataclasses.asdict(config)))
        # one canonical rule: the config's fingerprint is the same digest
        assert safeio.canonical_sha256(spec_config) == config_fingerprint(config)

    def test_each_computed_input_moves_the_key(self):
        base = spec_pair_jobs([("wrf", "wrf")], 4_000)[0].key()
        for other in (
            spec_pair_jobs([("wrf", "wrf")], 5_000),
            spec_pair_jobs([("wrf", "wrf")], 4_000, engine="fast"),
            spec_pair_jobs([("wrf", "wrf")], 4_000, llc_kib=64),
            spec_pair_jobs([("wrf", "wrf")], 4_000, seed=1),
        ):
            assert other[0].key() != base


def run_pairs(pairs, checkpoint_path=None, **options):
    """SPEC-pair cells through the in-process executor, as the CLI's
    sweep commands run them."""
    executor = SupervisedSweepExecutor(
        1, checkpoint=result_checkpoint(checkpoint_path), **options
    )
    return executor.run(spec_pair_jobs(pairs, 4_000))


class TestSweepIntegration:
    def test_resilient_sweep_returns_results(self, tmp_path):
        outcome = run_pairs(
            [("specrand", "specrand")], checkpoint_path=tmp_path / "sweep.json"
        )
        assert outcome.complete
        (result,) = outcome.results.values()
        assert result.baseline.cycles > 0
        # Resume: nothing re-runs, the result round-trips the serializer.
        again = run_pairs(
            [("specrand", "specrand")], checkpoint_path=tmp_path / "sweep.json"
        )
        assert again.resumed == [result.label]
        restored = again.results[result.label]
        assert restored.timecache.cycles == result.timecache.cycles
        assert restored.normalized_time == pytest.approx(
            result.normalized_time
        )

    def test_unknown_benchmark_becomes_failure_record(self):
        """A cell that raises when it runs must not sink the sweep: the
        other pair completes and the failure is recorded with the
        cell's spec."""
        outcome = run_pairs(
            [("nosuch", "nosuch"), ("specrand", "specrand")], retries=0
        )
        (failure,) = outcome.failures
        assert failure.error_type == "ConfigError"
        assert failure.spec["args"][1:] == ["nosuch", "nosuch"]
        assert list(outcome.results) == ["2Xspecrand"]

    def test_partial_results_with_one_failure(self, monkeypatch):
        import repro.analysis.runner as runner_mod

        real = runner_mod.run_spec_pair_experiment

        def sabotaged(config, a, b, **kwargs):
            if a == "lbm":
                raise SimulationError("forced")
            return real(config, a, b, **kwargs)

        monkeypatch.setattr(
            runner_mod, "run_spec_pair_experiment", sabotaged
        )
        outcome = run_pairs(
            [("specrand", "specrand"), ("lbm", "lbm")], retries=0
        )
        assert len(outcome.results) == 1
        (failure,) = outcome.failures
        assert failure.error_type == "SimulationError"
        assert "lbm" in failure.label.lower()

