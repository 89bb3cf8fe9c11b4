"""Retry, graceful degradation, and checkpoint/resume for sweeps.

The executor-level tests run in-process (``jobs=1``), where job
functions may be closures; ``tests/analysis/test_parallel.py`` holds
the same contract against worker processes.
"""

import json

import pytest

from repro.analysis.experiment import SimulationBudget
from repro.analysis.runner import result_checkpoint, spec_pair_jobs
from repro.common.errors import ConfigError, SimulationTimeout
from repro.robustness import supervisor
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
        record = FailureRecord("lbl", 3, "RuntimeError", "boom")
        assert FailureRecord.from_dict(record.to_dict()) == record


def run_pairs(pairs, checkpoint_path=None, budget=None, **options):
    """SPEC-pair cells through the in-process executor, as the CLI's
    sweep commands run them."""
    executor = SupervisedSweepExecutor(
        1, checkpoint=result_checkpoint(checkpoint_path), **options
    )
    return executor.run(spec_pair_jobs(pairs, 4_000, budget=budget))


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

    def test_budget_timeout_becomes_failure_record(self):
        """One forced timeout must not sink the sweep: the other pair
        completes and the timeout is recorded."""
        tight = SimulationBudget(max_instructions=100)
        outcome = run_pairs([("specrand", "specrand")], budget=tight, retries=0)
        (failure,) = outcome.failures
        assert failure.error_type == "SimulationTimeout"
        assert not outcome.results

    @pytest.mark.parametrize(
        "limits", [{"wall_clock_s": -1.0}, {"max_instructions": -1}]
    )
    def test_negative_budget_is_a_config_error(self, limits):
        """A negative wall-clock budget used to spend three attempts
        before the pair was recorded as a SimulationTimeout."""
        with pytest.raises(ConfigError, match=next(iter(limits))):
            SimulationBudget(**limits)
        SimulationBudget(wall_clock_s=0.0, max_instructions=0)  # 0 is a budget

    def test_partial_results_with_one_failure(self, monkeypatch):
        import repro.analysis.runner as runner_mod

        real = runner_mod.run_spec_pair_experiment

        def sabotaged(config, a, b, **kwargs):
            if a == "lbm":
                raise SimulationTimeout("forced")
            return real(config, a, b, **kwargs)

        monkeypatch.setattr(
            runner_mod, "run_spec_pair_experiment", sabotaged
        )
        outcome = run_pairs(
            [("specrand", "specrand"), ("lbm", "lbm")], retries=0
        )
        assert len(outcome.results) == 1
        (failure,) = outcome.failures
        assert failure.error_type == "SimulationTimeout"
        assert "lbm" in failure.label.lower()


def test_experiment_budget_passthrough():
    """A generous budget changes nothing about the result."""
    from repro.analysis.experiment import run_spec_pair_experiment
    from repro.common.config import scaled_experiment_config

    config = scaled_experiment_config(num_cores=1)
    unbudgeted = run_spec_pair_experiment(
        config, "specrand", "specrand", instructions=3_000
    )
    budgeted = run_spec_pair_experiment(
        config,
        "specrand",
        "specrand",
        instructions=3_000,
        budget=SimulationBudget(wall_clock_s=120.0, max_instructions=10**9),
    )
    assert budgeted.timecache.cycles == unbudgeted.timecache.cycles
    assert budgeted.baseline.cycles == unbudgeted.baseline.cycles
