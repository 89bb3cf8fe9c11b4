"""End-to-end tests for the ``repro tournament`` command and its gate."""

import json

import pytest

from repro.analysis import tournament as tm
from repro.analysis.cli import EXIT_FATAL, build_parser, main
from repro.robustness import safeio


def _run(tmp_path, *extra, quiet=True):
    output = tmp_path / "SECURITY.json"
    argv = [
        "tournament", "--quick", "--attacks", "flush_reload",
        "--engine", "object", "--boot", "50", "--jobs", "1",
        "--output", str(output), *extra,
    ]
    if quiet:
        argv.append("--quiet")
    return main(argv), output


def test_parser_accepts_tournament_flags():
    args = build_parser().parse_args(
        [
            "tournament", "--quick", "--jobs", "2", "--engine", "fast",
            "--attacks", "flush_reload", "--seeds", "2", "--boot", "100",
            "--baseline", "b.json", "--tolerance", "0.1",
            "--update-baseline", "nb.json", "--resume", "ck.json",
        ]
    )
    assert args.command == "tournament"
    assert args.engine == "fast"
    assert args.attacks == ["flush_reload"]
    assert args.tolerance == 0.1


def test_tournament_parser_accepts_defenses():
    args = build_parser().parse_args(
        [
            "tournament", "--quick", "--jobs", "2",
            "--engine", "both", "--attacks", "flush_reload",
            "--defenses", "timecache", "--defenses", "baseline",
            "--boot", "100", "--resume", "ck.json",
        ]
    )
    assert args.command == "tournament"
    assert args.defenses == ["timecache", "baseline"]
    assert args.output == "SECURITY.json"
    # without the flag the CLI falls back to the gated axis
    assert build_parser().parse_args(["tournament"]).defenses is None


def test_tournament_writes_scorecard_and_manifest(tmp_path, capsys):
    status, output = _run(tmp_path)
    assert status == 0
    out = capsys.readouterr().out
    # one leakage cell per gated defense
    for defense in tm.DEFENSES:
        assert f"flush_reload|{defense}|object" in out
    scorecard = json.loads(output.read_text())
    assert scorecard["kind"] == "security_scorecard"
    for defense in tm.DEFENSES:
        assert f"flush_reload|{defense}|object" in scorecard["cells"]
    assert scorecard["params"]["defenses"] == list(tm.DEFENSES)
    assert scorecard["gaps"] == []
    manifest = json.loads((tmp_path / "SECURITY.json.manifest.json").read_text())
    assert manifest["extra"]["cells"] == len(scorecard["cells"])


def test_tournament_writes_overhead_matrix(tmp_path, capsys):
    """The scorecard holds one overhead cell per gated defense beside
    its leakage cell, and stdout ends with the overhead-vs-leakage
    matrix."""
    status, output = _run(tmp_path)
    assert status == 0
    out = capsys.readouterr().out
    assert "slowdown" in out
    scorecard = json.loads(output.read_text())
    assert sorted(scorecard["cells"]) == sorted(
        f"{kind}|{defense}|object"
        for kind in ("flush_reload", "overhead")
        for defense in tm.DEFENSES
    )
    assert scorecard["params"]["overhead_instructions"] == 8_000
    manifest = json.loads((tmp_path / "SECURITY.json.manifest.json").read_text())
    assert manifest["extra"]["cells"] == 2 * len(tm.DEFENSES)


def test_tournament_scores_named_defenses(tmp_path, capsys):
    """``--defenses`` replaces the gated axis, here with the Section
    VIII comparison arms, which are registered but not gated."""
    status, output = _run(
        tmp_path, "--defenses", "ftm", "--defenses", "partition_flush"
    )
    assert status == 0
    cells = json.loads(output.read_text())["cells"]
    assert sorted(cells) == [
        "flush_reload|ftm|object",
        "flush_reload|partition_flush|object",
        "overhead|ftm|object",
        "overhead|partition_flush|object",
    ]
    # FTM's per-core bits cannot tell time-sliced tasks apart
    assert cells["flush_reload|ftm|object"]["leak"] is True
    assert cells["flush_reload|partition_flush|object"]["leak"] is False
    assert cells["overhead|partition_flush|object"]["slowdown"] > 1.0


def test_tournament_rejects_unknown_attack(tmp_path, capsys):
    argv = [
        "tournament", "--quick", "--attacks", "bogus",
        "--output", str(tmp_path / "S.json"), "--quiet",
    ]
    assert main(argv) == EXIT_FATAL


@pytest.mark.parametrize("flag", ["--boot", "--seeds"])
@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command", ["tournament"])
def test_count_flags_below_one_are_fatal_before_any_cell(
    tmp_path, capsys, monkeypatch, command, flag, value
):
    """A count below 1 is a ConfigError (exit 1) before any cell runs,
    not a silent fall-back to the default or a quarantined sweep."""

    def must_not_run(*args, **kwargs):
        raise AssertionError(f"run_tournament ran despite {flag} {value}")

    monkeypatch.setattr(tm, "run_tournament", must_not_run)
    argv = [
        command, "--quick", flag, value, "--jobs", "1",
        "--output", str(tmp_path / "out.json"),
    ]
    assert main(argv) == EXIT_FATAL
    assert f"fatal: ConfigError: {flag} must be >= 1, got {value}" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "out.json").exists()


def test_tournament_update_then_gate_passes(tmp_path, capsys):
    baseline = tmp_path / "BASELINE.json"
    status, _ = _run(tmp_path, "--update-baseline", str(baseline))
    assert status == 0
    assert baseline.exists()
    status, _ = _run(tmp_path, "--baseline", str(baseline), quiet=False)
    assert status == 0
    captured = capsys.readouterr()
    assert "security gate passed" in captured.out + captured.err


def test_tournament_gate_fails_on_doctored_baseline(tmp_path, capsys):
    """ISSUE acceptance: an injected regression must fail the gate."""
    baseline = tmp_path / "BASELINE.json"
    status, _ = _run(tmp_path, "--update-baseline", str(baseline))
    assert status == 0
    doc = json.loads(baseline.read_text())
    doc["cells"]["flush_reload|timecache|object"]["separation"] = 0.30
    # Re-seal so only the gate (not the integrity check) can object.
    baseline.write_text(json.dumps(safeio.seal(doc)))
    status, _ = _run(tmp_path, "--baseline", str(baseline))
    assert status == EXIT_FATAL
    err = capsys.readouterr().err
    assert "SECURITY REGRESSION" in err
    assert "flush_reload|timecache|object" in err
