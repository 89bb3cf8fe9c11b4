"""Tests for the artifact-regeneration CLI."""

import pytest

from repro.analysis import cli
from repro.analysis.cli import build_parser, main
from repro.common.errors import ReproError


def test_parser_lists_all_commands():
    parser = build_parser()
    # every documented command parses
    for command in ("micro", "rsa", "table2", "fig8", "fig9", "fig10"):
        flags = [] if command in ("micro", "rsa", "fig10") else ["--pairs", "1"]
        args = parser.parse_args([command, *flags])
        assert args.command == command


@pytest.mark.parametrize("command", ["table2", "fig8", "fig9", "export"])
@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_pairs_below_one_is_a_config_error(capsys, command, pairs):
    """``--pairs -1`` used to drop the last pair and exit 0."""
    assert main(["--instructions", "3000", command, "--pairs", pairs]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"fatal: ConfigError: --pairs must be >= 1, got {pairs}" in err


@pytest.mark.parametrize("instructions", ["0", "-5"])
def test_instructions_below_one_is_a_config_error(capsys, instructions):
    """``--instructions -5 fig9`` used to render a table of empty programs."""
    assert main(["--instructions", instructions, "fig9"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert (
        f"fatal: ConfigError: --instructions must be >= 1, got {instructions}"
        in err
    )


JOBS_COMMANDS = [
    "table2",
    "fig8",
    "fig9",
    "fig10",
    "export",
    "bench",
    "tournament",
    "compare-defenses",
]


@pytest.mark.parametrize("command", JOBS_COMMANDS)
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_a_config_error(capsys, command, jobs):
    """``--jobs 0`` and ``--jobs -1`` used to run every cell serially
    and exit 0: the executor floors a worker count at 1."""
    assert main(["--instructions", "3000", command, "--jobs", jobs]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"fatal: ConfigError: --jobs must be >= 1, got {jobs}" in err


def test_an_omitted_jobs_flag_means_one_worker_per_cpu(monkeypatch):
    """No ``--jobs``: the executor gets ``None``, which it resolves to
    one worker per CPU."""
    seen = []

    class Stop(ReproError):
        pass

    def executor(jobs, **kwargs):
        seen.append(jobs)
        raise Stop("recorded")

    monkeypatch.setattr(cli, "SupervisedSweepExecutor", executor)
    assert main(["--instructions", "3000", "table2", "--pairs", "1"]) == 1
    assert seen == [None]


def test_fig10_takes_no_pairs():
    """fig10 sweeps a fixed set of pairs; it used to accept and ignore
    ``--pairs``."""
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig10", "--pairs", "1"])


def test_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_micro_command_prints_both_configs(capsys):
    assert main(["--instructions", "1000", "micro"]) == 0
    out = capsys.readouterr().out
    assert "baseline" in out and "TimeCache" in out
    assert "256" in out


def test_table2_command_prints_rows(capsys):
    assert main(["--instructions", "8000", "table2", "--pairs", "2"]) == 0
    out = capsys.readouterr().out
    assert "2Xspecrand" in out
    assert "geomean" in out


def test_fig9_command_prints_parsec(capsys):
    assert main(["--instructions", "8000", "fig9", "--pairs", "1"]) == 0
    out = capsys.readouterr().out
    assert "fluidanimate" in out
    assert "fa-MPKI" in out


def test_fig10_command_prints_series(capsys):
    assert main(["--instructions", "8000", "fig10"]) == 0
    out = capsys.readouterr().out
    assert "32KiB" in out and "128KiB" in out


def test_compare_command(capsys):
    assert main(["--instructions", "8000", "compare", "--bench", "namd"]) == 0
    out = capsys.readouterr().out
    assert "timecache" in out and "partition" in out


def test_export_command(tmp_path, capsys):
    target = str(tmp_path / "out.json")
    assert (
        main(
            ["--instructions", "6000", "export", "--output", target, "--pairs", "1"]
        )
        == 0
    )
    from repro.analysis.export import load_json, summarize_json

    payload = load_json(target)
    assert summarize_json(payload)["count"] == 1
    # Without --resume the document is still a sweep outcome.
    assert payload["failures"] == payload["resumed"] == payload["gaps"] == []


def test_table2_with_explicit_jobs(capsys):
    """--jobs 2 runs the sweep in worker processes; same output."""
    assert (
        main(["--instructions", "6000", "table2", "--pairs", "2", "--jobs", "2"])
        == 0
    )
    out = capsys.readouterr().out
    assert "2Xspecrand" in out
    assert "geomean" in out


def test_jobs_accepted_by_sweep_and_bench_commands():
    parser = build_parser()
    for argv in (
        ["table2", "--jobs", "4"],
        ["fig9", "--jobs", "1"],
        ["export", "--jobs", "2"],
        ["bench", "--quick", "--jobs", "2"],
    ):
        args = parser.parse_args(argv)
        assert args.jobs == int(argv[-1])
    # single-simulation commands deliberately have no --jobs
    import pytest

    with pytest.raises(SystemExit):
        parser.parse_args(["micro", "--jobs", "2"])


def test_export_resume_with_jobs_writes_outcome(tmp_path):
    target = str(tmp_path / "out.json")
    checkpoint = str(tmp_path / "ck.json")
    assert (
        main(
            [
                "--instructions",
                "4000",
                "export",
                "--output",
                target,
                "--pairs",
                "1",
                "--resume",
                checkpoint,
                "--jobs",
                "2",
            ]
        )
        == 0
    )
    from repro.analysis.export import load_json

    payload = load_json(target)
    assert len(payload["results"]) == 1
    assert payload["failures"] == []
