"""Supervised execution: hang kills, crash reschedules, quarantine.

Sabotage specs stand in for real-world failure (OOM kills, deadlocks)
so every path is deterministic: ``("kill", code)`` makes the worker die
mid-protocol, ``("hang", s)`` makes it go silent, ``("raise", msg)``
makes the job raise.  The supervisor must convert each into either a
recovered reschedule or a loud, provenance-rich quarantine — never a
silently missing result.
"""

import json

import pytest

from repro.common.errors import ConfigError
from repro.robustness.resilience import Checkpoint, FailureRecord
from repro.robustness.supervisor import (
    SupervisedSweepExecutor,
    SweepJob,
    load_quarantine_record,
    quarantine_record_path,
    write_quarantine_record,
)


def probe(value):
    """Tiny deterministic picklable job."""
    return {"value": value * 2}


def _jobs(n=2):
    return [
        SweepJob(
            label=f"j{i}",
            fn=probe,
            args=(i,),
            provenance={
                "seed": 40 + i,
                "engine": "fast",
                "config_sha256": "cafe" * 16,
                "batch_window": 4096,
            },
        )
        for i in range(n)
    ]


def _sabotage(label, models):
    """Sabotage ``label`` per ``models``: {attempt: spec} ({0: spec}
    sabotages every attempt)."""

    def sabotage_for(lab, attempt):
        if lab != label:
            return None
        return models.get(0) or models.get(attempt)

    return sabotage_for


class TestRecovery:
    def test_killed_worker_is_detected_and_rescheduled(self):
        executor = SupervisedSweepExecutor(
            2,
            retries=2,
            backoff_s=0.01,
            poll_s=0.01,
            sabotage_for=_sabotage("j0", {1: ("kill", 9)}),
        )
        outcome = executor.run(_jobs())
        assert outcome.complete
        assert outcome.results["j0"] == {"value": 0}
        assert executor.report.crashes_detected == 1
        assert executor.report.reschedules == 1

    def test_hung_worker_is_killed_at_deadline(self):
        executor = SupervisedSweepExecutor(
            2,
            retries=1,
            backoff_s=0.01,
            deadline_s=0.3,
            poll_s=0.01,
            sabotage_for=_sabotage("j1", {1: ("hang", 30.0)}),
        )
        outcome = executor.run(_jobs())
        assert outcome.complete
        assert executor.report.hangs_killed == 1

    def test_raise_sabotage_travels_the_failure_path(self):
        executor = SupervisedSweepExecutor(
            2,
            retries=0,
            backoff_s=0.01,
            poll_s=0.01,
            sabotage_for=_sabotage("j0", {1: ("raise", "boom")}),
        )
        outcome = executor.run(_jobs())
        (failure,) = outcome.failures
        assert failure.error_type == "FaultInjectionError"
        assert "boom" in failure.message
        assert failure.traceback  # worker-side traceback crossed the pipe


class TestQuarantine:
    def test_poison_job_quarantined_with_full_provenance(self, tmp_path):
        qdir = tmp_path / "quarantine"
        executor = SupervisedSweepExecutor(
            2,
            retries=1,
            backoff_s=0.01,
            poll_s=0.01,
            quarantine_dir=qdir,
            manifest_id="deadbeef" * 8,
            sabotage_for=_sabotage("j0", {0: ("kill", 9)}),
        )
        outcome = executor.run(_jobs())
        assert outcome.results["j1"] == {"value": 2}  # sweep continued
        (failure,) = outcome.failures
        assert failure.label == "j0"
        assert failure.error_type == "WorkerCrashError"
        assert failure.attempts == 2  # retries + 1, kills count
        # enrichment: job provenance + sweep manifest id
        assert failure.seed == 40
        assert failure.engine == "fast"
        assert failure.config_sha256 == "cafe" * 16
        assert failure.batch_window == 4096
        assert failure.manifest_id == "deadbeef" * 8
        # the standalone record round-trips
        assert failure.record_path
        record = load_quarantine_record(failure.record_path)
        assert record.to_dict() == failure.to_dict()

    def test_quarantined_failure_lands_in_checkpoint(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpoint = Checkpoint(
            path, serialize=dict, deserialize=dict
        )
        executor = SupervisedSweepExecutor(
            2,
            retries=0,
            backoff_s=0.01,
            poll_s=0.01,
            checkpoint=checkpoint,
            sabotage_for=_sabotage("j0", {0: ("kill", 7)}),
        )
        executor.run(_jobs())
        payload = json.loads(path.read_text())
        (record,) = payload["failures"]
        assert record["error_type"] == "WorkerCrashError"
        assert record["seed"] == 40

    def test_record_path_sanitizes_label(self, tmp_path):
        path = quarantine_record_path(tmp_path, "a/b c:d")
        assert path.name == "a_b_c_d.failure.json"
        record = FailureRecord(
            label="a/b c:d", attempts=1, error_type="E", message="m"
        )
        written = write_quarantine_record(record, tmp_path)
        assert written == path and path.exists()
        assert record.record_path == str(path)


class TestContractCompatibility:
    def test_serial_delegation_unchanged(self):
        outcome = SupervisedSweepExecutor(1, retries=0).run(_jobs())
        assert outcome.results == {"j0": {"value": 0}, "j1": {"value": 2}}

    def test_resume_skips_completed_jobs(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpoint = Checkpoint(path, serialize=dict, deserialize=dict)
        SupervisedSweepExecutor(2, checkpoint=checkpoint).run(_jobs())
        checkpoint2 = Checkpoint(path, serialize=dict, deserialize=dict)
        again = SupervisedSweepExecutor(2, checkpoint=checkpoint2).run(_jobs())
        assert sorted(again.resumed) == ["j0", "j1"]

    def test_ordered_reassembly(self):
        jobs = _jobs(4)
        outcome = SupervisedSweepExecutor(2).run(jobs)
        assert list(outcome.results) == [j.label for j in jobs]


class TestInProcessMode:
    """``jobs == 1`` runs in this process: worker-only options are
    refused instead of silently dropped."""

    def test_sabotage_needs_worker_processes(self):
        with pytest.raises(ConfigError, match="sabotage_for.*jobs >= 2"):
            SupervisedSweepExecutor(
                1, sabotage_for=_sabotage("j0", {1: ("kill", 9)})
            )

    def test_obs_dir_needs_worker_processes(self, tmp_path):
        with pytest.raises(ConfigError, match="obs_dir.*jobs >= 2"):
            SupervisedSweepExecutor(1, obs_dir=tmp_path / "obs")
        assert not (tmp_path / "obs").exists()


class TestFailureRecordEnrichment:
    """Satellite: the enriched record schema stays backward-compatible."""

    def test_legacy_payload_backfills_defaults(self):
        legacy = {
            "label": "old",
            "attempts": 3,
            "error_type": "ValueError",
            "message": "pre-enrichment record",
        }
        record = FailureRecord.from_dict(legacy)
        assert record.seed is None
        assert record.engine == ""
        assert record.batch_window is None
        assert record.manifest_id == ""
        assert record.traceback == ""
        assert record.record_path == ""
        # and re-serialization emits the full enriched schema
        assert set(record.to_dict()) >= {
            "seed", "engine", "config_sha256", "batch_window",
            "manifest_id", "traceback", "record_path",
        }

    def test_apply_provenance_fills_only_defaults(self):
        record = FailureRecord(
            label="x", attempts=1, error_type="E", message="m", engine="object"
        )
        record.apply_provenance(
            {"seed": 5, "engine": "fast", "batch_window": 4096}
        )
        assert record.seed == 5
        assert record.engine == "object"  # existing value wins
        assert record.batch_window == 4096


class TestImportGraph:
    def test_robustness_imports_no_analysis_module(self):
        """The executor lives below the analysis layer: importing the
        robustness package must not pull any of it in."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        probe = (
            "import sys, repro.robustness as r; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('repro.analysis'))); "
            "print('__getattr__' in vars(r))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split("\n")
        assert out[0] == "[]"
        assert out[1] == "False"
