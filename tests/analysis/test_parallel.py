"""The sweep executor across modes: equivalence, resume, failures.

The load-bearing correctness check for the executor is in-process vs
worker *equivalence*: the same seeds must produce byte-identical
exported tables, checkpoints, and failure records whether cells run
in-process one by one (``jobs=1``) or out of order across supervised
workers (``jobs=2``).
"""

import json
from pathlib import Path

import pytest

from repro.analysis.experiment import run_spec_pair_experiment
from repro.analysis.export import (
    export_outcome,
    result_from_dict,
    result_to_dict,
    sweep_to_dict,
)
from repro.analysis.runner import (
    llc_sensitivity_sweep,
    result_checkpoint,
    spec_pair_jobs,
    spec_pair_sweep,
)
from repro.common.config import scaled_experiment_config
from repro.common.errors import SweepExecutionError
from repro.robustness.campaign import run_injection_uncaught
from repro.robustness.resilience import Checkpoint
from repro.robustness.supervisor import (
    SupervisedSweepExecutor,
    SweepJob,
    derive_job_seed,
    resolve_jobs,
)
from repro.workloads.mixes import pair_label

PAIRS = [("wrf", "wrf"), ("milc", "milc")]
INSTRUCTIONS = 2_000


def _sweep_bytes(results) -> bytes:
    return json.dumps(sweep_to_dict(results), sort_keys=True).encode()


def _run_pairs(pairs, jobs, checkpoint_path=None, engine="object", **options):
    """The CLI sweep commands' path: SPEC-pair cells through
    ``SupervisedSweepExecutor.run()`` with a result checkpoint."""
    executor = SupervisedSweepExecutor(
        jobs, checkpoint=result_checkpoint(checkpoint_path), **options
    )
    return executor.run(spec_pair_jobs(pairs, INSTRUCTIONS, engine=engine))


class TestSerialParallelEquivalence:
    def test_spec_pair_sweep_tables_identical(self):
        serial = spec_pair_sweep(pairs=PAIRS, instructions=INSTRUCTIONS, jobs=1)
        parallel = spec_pair_sweep(pairs=PAIRS, instructions=INSTRUCTIONS, jobs=2)
        assert _sweep_bytes(serial) == _sweep_bytes(parallel)

    def test_llc_sweep_identical_across_grid(self):
        serial = llc_sensitivity_sweep(
            pairs=PAIRS[:1],
            llc_sizes_kib=(32, 64),
            instructions=INSTRUCTIONS,
            jobs=1,
        )
        parallel = llc_sensitivity_sweep(
            pairs=PAIRS[:1],
            llc_sizes_kib=(32, 64),
            instructions=INSTRUCTIONS,
            jobs=2,
        )
        assert sorted(serial) == sorted(parallel)
        for kib in serial:
            assert _sweep_bytes(serial[kib]) == _sweep_bytes(parallel[kib])

    def test_checkpoints_byte_identical(self, tmp_path):
        paths = {}
        records = {}
        for jobs in (1, 2):
            path = tmp_path / f"ck{jobs}.json"
            outcome = _run_pairs(PAIRS, jobs, checkpoint_path=path)
            assert outcome.complete
            paths[jobs] = path.read_bytes()
            # A pair of an unknown benchmark raises when it runs, and is
            # quarantined the same way in both modes.
            poisoned = tmp_path / f"p{jobs}.json"
            failed = _run_pairs(
                [("nosuch", "nosuch")],
                jobs,
                checkpoint_path=poisoned,
                engine="fast",
                retries=0,
            )
            (record,) = failed.failures
            assert record.record_path == str(
                tmp_path / f"p{jobs}.json.quarantine" / "2Xnosuch.failure.json"
            )
            records[jobs] = record
        assert paths[1] == paths[2]
        for record in records.values():
            assert record.error_type == "ConfigError"
            (config, _, _) = record.spec["args"]
            assert record.spec["kwargs"]["seed"] == 0xBEEF
            assert config["hierarchy"]["engine"] == "fast"
            assert record.key and record.traceback
        one, two = (records[j].to_dict() for j in (1, 2))
        for fields in (one, two):
            del fields["traceback"]
            fields["record_path"] = Path(fields["record_path"]).name
        assert one == two

    def test_exported_outcome_byte_identical(self, tmp_path):
        labels = [pair_label(a, b) for a, b in PAIRS]
        blobs = {}
        for jobs in (1, 2):
            outcome = _run_pairs(PAIRS, jobs)
            target = tmp_path / f"out{jobs}.json"
            export_outcome(outcome, labels, target)
            blobs[jobs] = target.read_bytes()
        assert blobs[1] == blobs[2]


class TestResume:
    def test_resume_after_kill_with_two_workers(self, tmp_path):
        """A partially-written checkpoint (what a killed run leaves
        behind) resumes under --jobs 2: completed cells load, missing
        cells re-run, and the final file matches an uninterrupted run."""
        path = tmp_path / "ck.json"
        outcome = _run_pairs(PAIRS, 2, checkpoint_path=path)
        assert outcome.complete
        full = path.read_bytes()

        # Simulate the kill: drop one completed cell from the checkpoint
        # (resealing the checksum — this models a checkpoint that was
        # legitimately written before the kill, not a corrupt one; the
        # corrupt case is covered by tests/robustness/test_safeio.py).
        from repro.robustness import safeio

        payload = json.loads(full)
        killed_label = pair_label(*PAIRS[1])
        del payload["completed"][killed_label]
        path.write_text(json.dumps(safeio.seal(payload)))
        safeio.backup_path(path).unlink()

        resumed = _run_pairs(PAIRS, 2, checkpoint_path=path)
        assert resumed.complete
        assert resumed.resumed == [pair_label(*PAIRS[0])]
        assert path.read_bytes() == full

    def test_fully_complete_checkpoint_runs_nothing(self, tmp_path):
        path = tmp_path / "ck.json"
        _run_pairs(PAIRS, 2, checkpoint_path=path)
        again = _run_pairs(PAIRS, 2, checkpoint_path=path)
        assert sorted(again.resumed) == sorted(pair_label(a, b) for a, b in PAIRS)


#: both executor modes: in-process and supervised worker slots
MODES = (1, 2)


class TestFailurePropagation:
    # sbit-corruption at seed 0 deterministically raises
    # InvariantViolation (verified by the fault-campaign tests); any
    # change there will fail this test loudly, not silently.
    DETECTED = ("sbit-corruption", 0)

    def test_invariant_violation_from_child_is_recorded(self):
        model, seed = self.DETECTED
        for jobs in MODES:
            executor = SupervisedSweepExecutor(jobs, retries=0)
            outcome = executor.run(
                [
                    SweepJob("inject", run_injection_uncaught, (model, seed)),
                    # a trivially-succeeding job riding along
                    SweepJob("clean", derive_job_seed, (1, "x")),
                ]
            )
            assert "clean" in outcome.results
            (failure,) = outcome.failures
            assert failure.label == "inject"
            assert failure.error_type == "InvariantViolation"
            assert failure.message  # the diagnostic detail survived

    def test_map_raises_sweep_execution_error(self):
        model, seed = self.DETECTED
        for jobs in MODES:
            executor = SupervisedSweepExecutor(jobs, retries=0)
            with pytest.raises(SweepExecutionError, match="InvariantViolation"):
                executor.map(
                    [SweepJob("inject", run_injection_uncaught, (model, seed))]
                )

    def test_failure_lands_in_checkpoint(self, tmp_path):
        model, seed = self.DETECTED
        for jobs in MODES:
            path = tmp_path / f"ck{jobs}.json"
            checkpoint = Checkpoint(
                path, serialize=result_to_dict, deserialize=result_from_dict
            )
            executor = SupervisedSweepExecutor(
                jobs, retries=0, checkpoint=checkpoint
            )
            executor.run(
                [SweepJob("inject", run_injection_uncaught, (model, seed))]
            )
            payload = json.loads(path.read_text())
            (record,) = payload["failures"]
            assert record["label"] == "inject"
            assert record["error_type"] == "InvariantViolation"


class TestExecutorContract:
    def test_duplicate_labels_rejected(self):
        job = SweepJob("same", run_injection_uncaught, ("sbit-corruption", 0))
        for jobs in MODES:
            with pytest.raises(ValueError, match="unique"):
                SupervisedSweepExecutor(jobs).run([job, job])

    def test_derived_seeds_deterministic_and_distinct(self):
        assert derive_job_seed(7, "a") == derive_job_seed(7, "a")
        assert derive_job_seed(7, "a") != derive_job_seed(7, "b")
        assert derive_job_seed(7, "a") != derive_job_seed(8, "a")

    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(0) == 1
        assert resolve_jobs(4) == 4
        assert resolve_jobs(None) >= 1

    def test_ordered_reassembly(self):
        config = scaled_experiment_config(num_cores=1, llc_kib=32)
        jobs = [
            SweepJob(
                pair_label(a, b),
                run_spec_pair_experiment,
                (config, a, b),
                {"instructions": INSTRUCTIONS, "seed": 1},
            )
            for a, b in [("milc", "milc"), ("wrf", "wrf"), ("gobmk", "gobmk")]
        ]
        for mode in MODES:
            outcome = SupervisedSweepExecutor(mode, retries=0).run(jobs)
            assert list(outcome.results) == [j.label for j in jobs]
