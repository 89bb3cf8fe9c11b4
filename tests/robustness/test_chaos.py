"""The chaos campaign: seeded plans, scorecard accounting, zero silence.

Also hosts the PR's acceptance test: a chaos-interrupted ``table2
--jobs 2 --resume`` must print byte-identical tables to an
uninterrupted serial run.
"""

import pytest

from repro.analysis.cli import EXIT_FATAL, EXIT_OK, EXIT_PARTIAL, main
from repro.common.errors import FaultInjectionError
from repro.robustness import safeio
from repro.robustness.chaos import (
    CHAOS_MODELS,
    CORRUPT_VARIANTS,
    ChaosPlan,
    ResilienceScorecard,
    run_chaos_campaign,
)


class TestPlan:
    def test_generation_is_deterministic(self):
        a = ChaosPlan.generate(3)
        b = ChaosPlan.generate(3)
        assert a == b
        assert ChaosPlan.generate(4) != a

    def test_counts_respected_and_models_covered(self):
        counts = {"kill": 2, "hang": 1, "corrupt": 4, "io_error": 3}
        plan = ChaosPlan.generate(0, counts)
        by_model = {}
        for event in plan.events:
            by_model[event.model] = by_model.get(event.model, 0) + 1
        assert by_model == counts
        assert [e.index for e in plan.events] == list(range(10))

    def test_default_quick_mix_spans_all_models_with_50_plus(self):
        plan = ChaosPlan.generate(0)
        models = {e.model for e in plan.events}
        assert models == set(CHAOS_MODELS)
        assert len(plan.events) >= 50

    def test_corrupt_variants_drawn_from_known_set(self):
        plan = ChaosPlan.generate(1, {"corrupt": 12})
        assert {e.variant for e in plan.events} <= set(CORRUPT_VARIANTS)

    def test_unknown_model_rejected(self):
        with pytest.raises(FaultInjectionError, match="unknown chaos"):
            ChaosPlan.generate(0, {"gremlins": 1})


class TestScorecard:
    def test_accounting_and_render(self):
        plan = ChaosPlan.generate(0, {"kill": 1, "corrupt": 1})
        scorecard = ResilienceScorecard(seed=0)
        scorecard.record(plan.events[0], "recovered", "ok")
        scorecard.record(plan.events[1], "silent", "bad")
        assert scorecard.total == 2
        assert scorecard.silent_total == 1
        rendered = scorecard.render()
        assert "kill" in rendered and "corrupt" in rendered
        assert "total" in rendered
        payload = scorecard.to_dict()
        assert payload["kind"] == "resilience_scorecard"
        assert payload["silent"] == {"corrupt": 1}

    def test_unknown_outcome_rejected(self):
        plan = ChaosPlan.generate(0, {"kill": 1})
        with pytest.raises(FaultInjectionError):
            ResilienceScorecard(seed=0).record(plan.events[0], "shrug")


class TestCampaign:
    def test_small_campaign_zero_silent_all_models(self, tmp_path):
        counts = {"kill": 1, "hang": 1, "corrupt": 4, "io_error": 2}
        scorecard = run_chaos_campaign(
            seed=2, counts=counts, jobs=2, workdir=tmp_path
        )
        assert scorecard.total == sum(counts.values())
        assert scorecard.silent_total == 0
        # every injection classified exactly once
        assert len(scorecard.details) == scorecard.total
        for model, n in counts.items():
            assert (
                scorecard.recovered.get(model, 0)
                + scorecard.quarantined.get(model, 0)
                == n
            )

    def test_corrupt_only_campaign_is_deterministic(self, tmp_path):
        counts = {"corrupt": 6, "io_error": 3}
        a = run_chaos_campaign(seed=5, counts=counts, workdir=tmp_path / "a")
        b = run_chaos_campaign(seed=5, counts=counts, workdir=tmp_path / "b")
        assert a.to_dict() == b.to_dict()


class TestChaosCli:
    def test_chaos_command_exit_zero_and_scorecard_output(
        self, tmp_path, capsys
    ):
        out_path = tmp_path / "scorecard.json"
        code = main(
            [
                "chaos",
                "--injections", "1",
                "--workdir", str(tmp_path / "w"),
                "--output", str(out_path),
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "silent" in out and "injections" in out
        payload = safeio.read_json_verified(
            out_path, expected_kind="resilience_scorecard"
        )
        assert payload["silent_total"] == 0
        assert payload["total"] == 4  # one per model

    def test_chaos_jobs_1_refuses_process_injections(self, tmp_path, capsys):
        """Kill/hang injections sabotage worker processes; in-process
        they would never happen, so scoring them would be a lie."""
        code = main(
            [
                "chaos",
                "--injections", "1",
                "--jobs", "1",
                "--workdir", str(tmp_path / "w"),
            ]
        )
        assert code == EXIT_FATAL
        err = capsys.readouterr().err
        assert "ConfigError" in err and "jobs >= 2" in err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_injections_below_one_is_a_config_error(
        self, tmp_path, capsys, value
    ):
        """``--injections 0`` used to run no injection, print "0 silent"
        and exit 0: a zero-silent gate that checked nothing."""
        workdir = tmp_path / "w"
        code = main(["chaos", "--injections", value, "--workdir", str(workdir)])
        assert code == EXIT_FATAL
        out, err = capsys.readouterr()
        assert out == ""
        assert f"fatal: ConfigError: --injections must be >= 1, got {value}" in err
        assert not workdir.exists()  # no injection started

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_jobs_below_one_is_a_config_error(self, tmp_path, capsys, value):
        """``--jobs 0`` used to run at 2 jobs and ``--jobs -1`` to fail
        naming ``jobs=1``; both now name the value given."""
        workdir = tmp_path / "w"
        code = main(
            [
                "chaos",
                "--injections", "1",
                "--jobs", value,
                "--workdir", str(workdir),
            ]
        )
        assert code == EXIT_FATAL
        out, err = capsys.readouterr()
        assert out == ""
        assert f"fatal: ConfigError: --jobs must be >= 1, got {value}" in err
        assert not workdir.exists()


PAIRS_ARGS = ["--instructions", "2000", "table2", "--pairs", "2", "--quiet"]


class TestAcceptanceResume:
    def test_chaos_interrupted_table2_matches_serial(self, tmp_path, capsys):
        """Acceptance: chaos-interrupt a ``table2 --jobs 2`` sweep (kill
        a worker mid-job, then corrupt the published checkpoint), resume
        it, and require byte-identical stdout to an uninterrupted serial
        run."""
        # 1. the uninterrupted serial reference
        ck_serial = tmp_path / "serial.json"
        assert (
            main(PAIRS_ARGS + ["--resume", str(ck_serial), "--jobs", "1"])
            == EXIT_OK
        )
        reference = capsys.readouterr().out

        # 2. a chaos-interrupted parallel run: worker killed on its
        # first attempt (supervisor reschedules), checkpoint then
        # corrupted on disk after the run (as a kill mid-write would)
        from repro.analysis.runner import result_checkpoint, spec_pair_jobs
        from repro.robustness.supervisor import SupervisedSweepExecutor

        # the same first-two pairs `table2 --pairs 2` sweeps
        pairs = [("specrand", "specrand"), ("lbm", "lbm")]
        ck = tmp_path / "chaos.json"
        outcome = SupervisedSweepExecutor(
            2,
            backoff_s=0.01,
            checkpoint=result_checkpoint(ck),
            sabotage_for=lambda label, attempt: ("kill", 9)
            if label == "2Xspecrand" and attempt == 1
            else None,
        ).run(spec_pair_jobs(pairs, 2_000))
        assert outcome.complete  # the kill was rescheduled, not fatal
        # corrupt the published checkpoint: torn tail
        ck.write_bytes(ck.read_bytes()[:30])

        # 3. resume under --jobs 2: heals from backup, re-runs the gap
        capsys.readouterr()
        assert (
            main(PAIRS_ARGS + ["--resume", str(ck), "--jobs", "2"])
            == EXIT_OK
        )
        resumed_out = capsys.readouterr().out
        assert resumed_out == reference


class TestExitContract:
    def test_partial_sweep_exits_3_with_quarantine_summary(
        self, tmp_path, capsys, monkeypatch
    ):
        """A sweep with a quarantined cell exits EXIT_PARTIAL, renders a
        gap marker, and names the FailureRecord file — with or without
        ``--resume`` (without one the record has no file to name)."""
        import repro.analysis.runner as runner_mod

        real_pair = runner_mod.run_spec_pair_experiment

        def poisoned_pair(config, a, b, **kwargs):
            if a == "lbm":  # the second of table2's first two pairs
                raise ValueError("poison cell")
            return real_pair(config, a, b, **kwargs)

        monkeypatch.setattr(
            runner_mod, "run_spec_pair_experiment", poisoned_pair
        )
        ck = tmp_path / "ck.json"
        for resume, record in (
            (["--resume", str(ck)], str(ck) + ".quarantine"),
            ([], "no record file"),
        ):
            code = main(
                [
                    "--instructions", "2000",
                    "table2", "--pairs", "2",
                    *resume, "--jobs", "1",
                ]
            )
            captured = capsys.readouterr()
            assert code == EXIT_PARTIAL
            assert "[quarantined]" in captured.out
            assert "geomean*" in captured.out
            assert f"quarantined 1 job(s): 2Xlbm ({record}" in captured.err
