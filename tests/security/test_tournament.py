"""Tournament harness tests: cell scoring, artifacts, and the gate.

The simulation-backed smoke tests run the cheapest cell (flush+reload,
object engine, quick sampling, small bootstrap) so the whole module
stays fast; the gate logic is additionally unit-tested on synthetic
cells so every failure direction is exercised without a simulator run.
"""

import pytest

from repro.analysis import tournament as tm
from repro.common.errors import ConfigError


def _quick_cell(defense, n_boot=50):
    return tm.run_tournament_cell(
        "flush_reload", defense, "object", seeds=(7,), quick=True,
        n_boot=n_boot,
    )


# ----------------------------------------------------------------------
# job matrix construction
# ----------------------------------------------------------------------
def test_tournament_jobs_unknown_attack_raises():
    with pytest.raises(ConfigError, match="unknown attack"):
        tm.tournament_jobs(attacks=["flush_reload", "nonexistent"])


def test_tournament_jobs_full_matrix_shape():
    jobs = tm.tournament_jobs()
    assert len(jobs) == len(tm.ATTACKS) * len(tm.DEFENSES) * len(tm.ENGINES)
    labels = [job.label for job in jobs]
    assert len(set(labels)) == len(labels)
    assert tm.cell_label("flush_reload", "timecache", "object") in labels


def test_run_tournament_cell_rejects_unknown_defense():
    # the registry refuses the name: cell_config -> with_defense
    with pytest.raises(ConfigError, match="unknown defense"):
        tm.run_tournament_cell("flush_reload", "nocache", "object", (7,))


# ----------------------------------------------------------------------
# simulation-backed smoke: defense off leaks, defense on does not
# ----------------------------------------------------------------------
def test_flush_reload_leaks_without_defense():
    cell = _quick_cell("baseline")
    assert cell["separation"] > 0.9
    assert cell["leak"] is True
    assert cell["mi_bits"] > 0.5


def test_flush_reload_silent_under_timecache():
    cell = _quick_cell("timecache")
    assert cell["separation"] <= 0.55
    assert cell["leak"] is False


def test_cell_score_is_deterministic():
    assert _quick_cell("baseline") == _quick_cell("baseline")


# ----------------------------------------------------------------------
# the driver: checkpoint resume + artifacts round-trip
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def quick_outcome(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tournament")
    outcome = tm.run_tournament(
        attacks=["flush_reload"],
        engines=("object",),
        seeds=(7,),
        quick=True,
        jobs=1,
        n_boot=50,
        checkpoint_path=tmp / "ck.json",
    )
    return tmp, outcome


def test_run_tournament_scores_both_defenses(quick_outcome):
    _, outcome = quick_outcome
    assert outcome.complete
    assert sorted(outcome.cells) == sorted(outcome.labels)
    off = outcome.cells["flush_reload|baseline|object"]
    on = outcome.cells["flush_reload|timecache|object"]
    assert off["separation"] > 0.9
    assert on["separation"] <= 0.55


def test_run_tournament_resumes_from_checkpoint(quick_outcome):
    tmp, first = quick_outcome
    second = tm.run_tournament(
        attacks=["flush_reload"],
        engines=("object",),
        seeds=(7,),
        quick=True,
        jobs=1,
        n_boot=50,
        checkpoint_path=tmp / "ck.json",
    )
    assert sorted(second.sweep.resumed) == sorted(first.labels)
    assert second.cells == first.cells


def test_scorecard_round_trip(quick_outcome, tmp_path):
    _, outcome = quick_outcome
    path = tm.write_scorecard(outcome, tmp_path / "SECURITY.json",
                              params={"quick": True})
    loaded = tm.load_scorecard(path)
    assert loaded["kind"] == "security_scorecard"
    assert loaded["cells"] == outcome.cells
    assert loaded["gaps"] == []
    assert loaded["params"] == {"quick": True}


def test_baseline_round_trip_keeps_gate_fields_only(quick_outcome, tmp_path):
    _, outcome = quick_outcome
    path = tm.write_security_baseline(outcome, tmp_path / "BASELINE.json")
    baseline = tm.load_security_baseline(path)
    assert sorted(baseline) == sorted(outcome.cells)
    for label, cell in baseline.items():
        assert sorted(cell) == [
            "ci_high", "ci_low", "leak", "mi_bits", "separation",
        ]
        assert cell["separation"] == outcome.cells[label]["separation"]


def test_render_scorecard_lines(quick_outcome):
    _, outcome = quick_outcome
    text = tm.render_scorecard(outcome)
    assert "flush_reload|baseline|object" in text
    assert "LEAK" in text
    assert "safe" in text


# ----------------------------------------------------------------------
# gate semantics on synthetic cells (no simulator needed)
# ----------------------------------------------------------------------
def _cell(defense, *, ci_low=0.45, ci_high=0.58, separation=0.5):
    return {
        "defense": defense,
        "ci_low": ci_low,
        "ci_high": ci_high,
        "separation": separation,
    }


def test_gate_passes_against_itself(quick_outcome, tmp_path):
    _, outcome = quick_outcome
    path = tm.write_security_baseline(outcome, tmp_path / "BASELINE.json")
    baseline = tm.load_security_baseline(path)
    assert tm.compare_to_security_baseline(outcome.cells, baseline) == []


def test_gate_flags_defense_regression():
    cells = {"a|timecache|object": _cell("timecache", ci_low=0.80)}
    baseline = {"a|timecache|object": {"separation": 0.50, "leak": False}}
    failures = tm.compare_to_security_baseline(cells, baseline)
    assert len(failures) == 1
    assert "defense regression" in failures[0]


def test_gate_tolerance_absorbs_small_drift():
    cells = {"a|timecache|object": _cell("timecache", ci_low=0.54)}
    baseline = {"a|timecache|object": {"separation": 0.50, "leak": False}}
    assert tm.compare_to_security_baseline(cells, baseline) == []


def test_gate_sanity_direction_fires_when_leak_vanishes():
    cells = {"a|baseline|object": _cell("baseline", ci_high=0.52)}
    baseline = {"a|baseline|object": {"separation": 1.0, "leak": True}}
    failures = tm.compare_to_security_baseline(cells, baseline)
    assert len(failures) == 1
    assert "sanity failure" in failures[0]


def test_gate_sanity_direction_needs_confident_silence():
    # CI high still reaches the leak cutoff: not confidently silent.
    cells = {"a|baseline|object": _cell("baseline", ci_high=0.70)}
    baseline = {"a|baseline|object": {"separation": 1.0, "leak": True}}
    assert tm.compare_to_security_baseline(cells, baseline) == []


def test_gate_ignores_one_sided_cells():
    # A new attack (no baseline entry) and a retired baseline entry
    # (no scored cell) must both be inert.
    cells = {"new|timecache|object": _cell("timecache", ci_low=0.99)}
    baseline = {"old|baseline|object": {"separation": 1.0, "leak": True}}
    assert tm.compare_to_security_baseline(cells, baseline) == []


def test_gate_direction_covers_every_noncontrol_defense():
    # The regression direction keys off the registry's control flag, not
    # a hard-coded name — a new defense is gated from its first cell.
    cells = {"a|selective_flush|object": _cell("selective_flush", ci_low=0.80)}
    baseline = {"a|selective_flush|object": {"separation": 0.50, "leak": False}}
    failures = tm.compare_to_security_baseline(cells, baseline)
    assert len(failures) == 1
    assert "defense regression" in failures[0]


def test_gate_waives_known_boundary_cells():
    # evict_time self-times the victim; TimeCache cannot close it, the
    # baseline records that, and the gate reports-but-never-fails it.
    cells = {"evict_time|timecache|object": _cell("timecache", ci_low=0.99)}
    baseline = {
        "evict_time|timecache|object": {
            "separation": 1.0,
            "leak": True,
            "known_boundary": True,
        }
    }
    waived = []
    failures = tm.compare_to_security_baseline(
        cells, baseline, waived=waived
    )
    assert failures == []
    # never silently dropped: without drift there is nothing to report…
    assert waived == []
    # …but when the flagged cell trips the direction, it lands in waived
    hot = {
        "evict_time|timecache|object": {
            "separation": 0.50,
            "leak": True,
            "known_boundary": True,
        }
    }
    waived = []
    assert tm.compare_to_security_baseline(cells, hot, waived=waived) == []
    assert len(waived) == 1
    assert "known boundary" in waived[0]
    # and without a waived sink the exemption still holds (no failure)
    assert tm.compare_to_security_baseline(cells, hot) == []


def test_baseline_payload_flags_self_timing_cells():
    outcome = tm.TournamentOutcome(
        cells={
            "evict_time|timecache|object": {
                "attack": "evict_time", "defense": "timecache",
                "engine": "object", "label": "evict_time|timecache|object",
                "seeds": [7], "separation": 1.0, "ci_low": 1.0,
                "ci_high": 1.0, "mi_bits": 0.9, "leak": True,
            },
            "evict_time|baseline|object": {
                "attack": "evict_time", "defense": "baseline",
                "engine": "object", "label": "evict_time|baseline|object",
                "seeds": [7], "separation": 1.0, "ci_low": 1.0,
                "ci_high": 1.0, "mi_bits": 0.9, "leak": True,
            },
            "flush_reload|timecache|object": {
                "attack": "flush_reload", "defense": "timecache",
                "engine": "object", "label": "flush_reload|timecache|object",
                "seeds": [7], "separation": 0.5, "ci_low": 0.5,
                "ci_high": 0.5, "mi_bits": 0.0, "leak": False,
            },
        },
        sweep=None,
        labels=[],
    )
    cells = tm.baseline_payload(outcome)["cells"]
    # self-timing attack × defended arm: flagged
    assert cells["evict_time|timecache|object"]["known_boundary"] is True
    # control arm leaking is expected — no flag
    assert "known_boundary" not in cells["evict_time|baseline|object"]
    # defended arm of a closable attack — no flag
    assert "known_boundary" not in cells["flush_reload|timecache|object"]


def test_gate_fails_on_doctored_committed_baseline(quick_outcome, tmp_path):
    """The ISSUE's acceptance check: a doctored baseline must fail.

    Lower the recorded defended separation far below what the harness
    reproduces and the gate must flag it as a defense regression.
    """
    _, outcome = quick_outcome
    baseline = tm.load_security_baseline(
        tm.write_security_baseline(outcome, tmp_path / "B.json")
    )
    baseline["flush_reload|timecache|object"]["separation"] = 0.30
    failures = tm.compare_to_security_baseline(
        outcome.cells, baseline, tolerance=0.05
    )
    assert any("flush_reload|timecache|object" in f for f in failures)


# ----------------------------------------------------------------------
# overhead cells: what each defense costs, beside what it blocks
#
# Every field of an overhead cell is a pure function of (config, seeds)
# — identical across runs and ``jobs`` fan-outs.  The smoke runs a
# one-attack slice under ``jobs=2`` with a checkpoint.
# ----------------------------------------------------------------------
def test_tournament_jobs_add_overhead_cells_on_request():
    jobs = tm.tournament_jobs(overhead_instructions=8_000)
    leakage = len(tm.ATTACKS) * len(tm.DEFENSES) * len(tm.ENGINES)
    assert len(jobs) == leakage + len(tm.DEFENSES) * len(tm.ENGINES)
    labels = [job.label for job in jobs]
    assert len(set(labels)) == len(labels)
    assert labels[leakage:] == [
        tm.overhead_label(defense, engine)
        for defense in tm.DEFENSES
        for engine in tm.ENGINES
    ]
    assert jobs[-1].args == ("copy_on_access", "fast", 8_000, 7)
    # the default adds none: the gated tournament is the leakage matrix
    assert len(tm.tournament_jobs()) == leakage


def test_overhead_cell_control_normalizes_to_one():
    cell = tm.run_overhead_cell("baseline", "object", 2_000, 7)
    assert cell["slowdown"] == pytest.approx(1.0)
    assert cell["sim_cycles"] == cell["control_cycles"]
    assert cell["llc_mpki"] == cell["control_llc_mpki"]


@pytest.mark.parametrize("defense, runs", [("baseline", 1), ("timecache", 2)])
def test_overhead_cell_simulates_the_control_once(monkeypatch, defense, runs):
    """The control's own cell reuses its run as the control run; any
    other defense's cell runs the defense and then the control."""
    from repro.analysis import experiment

    real, calls = experiment._run_configured, []

    def counted(config, build):
        calls.append(config.defense)
        return real(config, build)

    monkeypatch.setattr(experiment, "_run_configured", counted)
    cell = tm.run_overhead_cell(defense, "object", 2_000, 7)
    assert len(calls) == runs
    assert cell["label"] == tm.overhead_label(defense, "object")


def test_overhead_cell_defenses_cost_something():
    tc = tm.run_overhead_cell("timecache", "object", 2_000, 7)
    sf = tm.run_overhead_cell("selective_flush", "object", 2_000, 7)
    assert tc["slowdown"] > 1.0
    assert sf["slowdown"] > 1.0
    # flush-on-switch must cost more than the s-bit discipline — the
    # whole point of the head-to-head table
    assert sf["slowdown"] > tc["slowdown"]
    assert tc["llc_mpki"] > tc["control_llc_mpki"]


OVERHEAD_KW = dict(
    attacks=["flush_reload"],
    engines=("object",),
    seeds=(7,),
    quick=True,
    jobs=2,
    n_boot=50,
    overhead_instructions=2_000,
)


@pytest.fixture(scope="module")
def overhead_outcome(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("overhead")
    outcome = tm.run_tournament(checkpoint_path=tmp / "ck.json", **OVERHEAD_KW)
    return tmp, outcome


def test_overhead_tournament_scores_every_gated_defense(overhead_outcome):
    _, outcome = overhead_outcome
    assert outcome.complete
    assert sorted(outcome.cells) == sorted(outcome.labels)
    for defense in tm.DEFENSES:
        assert f"flush_reload|{defense}|object" in outcome.cells
        assert tm.overhead_label(defense, "object") in outcome.cells
    # flush+reload is a reuse channel: every non-control defense in the
    # gated axis closes it, the control leaks
    assert outcome.cells["flush_reload|baseline|object"]["leak"] is True
    for defense in ("timecache", "selective_flush", "copy_on_access"):
        assert outcome.cells[f"flush_reload|{defense}|object"]["leak"] is False


def test_overhead_tournament_resumes_from_checkpoint(overhead_outcome):
    tmp, first = overhead_outcome
    second = tm.run_tournament(checkpoint_path=tmp / "ck.json", **OVERHEAD_KW)
    assert sorted(second.sweep.resumed) == sorted(first.labels)
    assert second.cells == first.cells


def test_overhead_tournament_deterministic_across_fresh_runs(
    overhead_outcome, tmp_path
):
    """A fresh checkpoint (nothing to resume) under the same jobs=2
    fan-out must reproduce every cell bit-for-bit."""
    _, first = overhead_outcome
    fresh = tm.run_tournament(checkpoint_path=tmp_path / "ck2.json", **OVERHEAD_KW)
    assert not fresh.sweep.resumed
    assert fresh.cells == first.cells


def test_scorecard_round_trip_keeps_overhead_cells(overhead_outcome, tmp_path):
    _, outcome = overhead_outcome
    path = tm.write_scorecard(outcome, tmp_path / "SECURITY.json")
    loaded = tm.load_scorecard(path)
    assert loaded["cells"] == outcome.cells
    assert loaded["gaps"] == []
    assert sum(label.startswith("overhead|") for label in loaded["cells"]) == 4


def test_gate_scorecard_and_baseline_read_leakage_cells_only(
    overhead_outcome, tmp_path
):
    _, outcome = overhead_outcome
    baseline = tm.load_security_baseline(
        tm.write_security_baseline(outcome, tmp_path / "B.json")
    )
    assert sorted(baseline) == sorted(
        f"flush_reload|{defense}|object" for defense in tm.DEFENSES
    )
    assert tm.compare_to_security_baseline(outcome.cells, baseline) == []
    assert "overhead" not in tm.render_scorecard(outcome)


def test_render_matrix_rows(overhead_outcome):
    _, outcome = overhead_outcome
    text = tm.render_matrix(outcome, ["flush_reload"], tm.DEFENSES, ["object"])
    for defense in tm.DEFENSES:
        assert defense in text
    assert "slowdown" in text
    # the control leaks flush+reload: a * marker must appear
    assert "*" in text
    # an arm that was not run renders as a gap, not a crash
    assert "—" in tm.render_matrix(outcome, ["flush_reload"], ["ftm"], ["object"])
