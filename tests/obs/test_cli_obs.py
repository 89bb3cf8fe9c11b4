"""The `repro trace` / `repro obs summarize` commands and --quiet."""

import json

import pytest

from repro.analysis.cli import main
from repro.obs import EVENT_KINDS, Console, load_manifest, read_events


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace_cli")
    rc = main(
        ["trace", "--output-dir", str(out), "--lines", "12",
         "--sample-every", "2000"]
    )
    assert rc == 0
    return out


def test_trace_writes_jsonl_stream(trace_dir):
    events = list(read_events(trace_dir / "trace.jsonl"))
    assert events
    kinds = {e.kind for e in events}
    assert kinds <= EVENT_KINDS
    # the defining beats of a traced flush+reload
    for expected in ("phase.begin", "cache.fill", "access.first_miss",
                     "ctx.switch", "metrics.sample"):
        assert expected in kinds, f"missing {expected}"


def test_trace_writes_loadable_perfetto_file(trace_dir):
    with open(trace_dir / "trace.perfetto.json") as handle:
        payload = json.load(handle)
    trace = payload["traceEvents"]
    assert [e["name"] for e in trace if e["ph"] == "B"] == [
        "flush", "wait", "probe"
    ]
    assert any(e["ph"] == "C" for e in trace)  # metrics counter track


def test_trace_manifest_indexes_artifacts(trace_dir):
    payload = load_manifest(trace_dir / "manifest.json")
    names = {a["name"] for a in payload["artifacts"]}
    assert names == {"trace.jsonl", "trace.perfetto.json"}
    assert payload["command"][:2] == ["repro", "trace"]
    assert payload["extra"]["probe_hits"] == 0  # TimeCache defends
    assert payload["extra"]["events"] == len(
        list(read_events(trace_dir / "trace.jsonl"))
    )
    assert all(len(a["sha256"]) == 64 for a in payload["artifacts"])


def test_obs_summarize(trace_dir, capsys):
    rc = main(["obs", "summarize", str(trace_dir / "trace.jsonl")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "events over" in out
    assert "cache.fill" in out
    assert "phases:" in out
    assert "probe" in out


def test_obs_summarize_exports_perfetto(trace_dir, tmp_path, capsys):
    target = tmp_path / "exported.json"
    rc = main(
        ["obs", "summarize", str(trace_dir / "trace.jsonl"),
         "--perfetto", str(target)]
    )
    assert rc == 0
    with open(target) as handle:
        assert json.load(handle)["traceEvents"]


def test_obs_summarize_empty_trace_fails(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    rc = main(["obs", "summarize", str(empty)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "no events" in captured.err


def _write_lines(path, events, torn_tail=False):
    with open(path, "w") as handle:
        for event in events:
            handle.write(event.to_json_line() + "\n")
        if torn_tail:
            handle.write('{"kind":"cache.evict","ts":99')


def test_obs_summarize_warns_on_torn_tail_and_drops(tmp_path, capsys):
    from repro.obs import TraceEvent

    path = tmp_path / "dropped.jsonl"
    # seqs start at 3 (ring dropped the head) and skip 6 (mid-stream gap)
    events = [
        TraceEvent(kind="cache.fill", ts=i, seq=s)
        for i, s in enumerate([3, 4, 5, 7])
    ]
    _write_lines(path, events, torn_tail=True)
    rc = main(["obs", "summarize", str(path)])
    captured = capsys.readouterr()
    assert rc == 3  # partial: the trace is usable but incomplete
    assert "WARNING" in captured.err
    assert "torn trailing line" in captured.err
    assert "3 event(s) dropped before the stream start" in captured.err
    assert "1 event(s) missing mid-stream" in captured.err
    assert "4 events" in captured.out  # the summary still renders


def test_obs_summarize_clean_trace_stays_quiet(trace_dir, capsys):
    rc = main(["obs", "summarize", str(trace_dir / "trace.jsonl")])
    captured = capsys.readouterr()
    assert rc == 0
    assert "WARNING" not in captured.err


@pytest.fixture(scope="module")
def obs_sweep_dir(tmp_path_factory):
    from tests.obs.test_shards import _jobs
    from repro.robustness.supervisor import SupervisedSweepExecutor

    obs_dir = tmp_path_factory.mktemp("cli_obs") / "obs"
    outcome = SupervisedSweepExecutor(2, retries=0, obs_dir=obs_dir).run(_jobs())
    assert not outcome.failures
    return obs_dir


def test_obs_flame_prints_folded_stacks(obs_sweep_dir, capsys):
    rc = main(["obs", "flame", "--obs-dir", str(obs_sweep_dir)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "job:alpha" in captured.out
    assert "kernel;" in captured.out


def test_obs_flame_writes_file(obs_sweep_dir, tmp_path, capsys):
    out = tmp_path / "folded.txt"
    rc = main(["obs", "flame", "--obs-dir", str(obs_sweep_dir), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines and all(line.rsplit(" ", 1)[1].isdigit() for line in lines)


def test_obs_flame_empty_dir_is_fatal(tmp_path, capsys):
    rc = main(["obs", "flame", "--obs-dir", str(tmp_path)])
    assert rc == 1
    assert "no obs shards" in capsys.readouterr().err


def test_obs_top_once_renders_heartbeat_and_shards(obs_sweep_dir, capsys):
    rc = main(["obs", "top", str(obs_sweep_dir), "--once"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "sweep done" in captured.out
    assert "3/3" in captured.out
    assert "alpha" in captured.out


@pytest.mark.parametrize(
    "command",
    ["table2", "fig8", "fig9", "export", "tournament", "compare-defenses"],
)
def test_obs_dir_help_names_the_jobs_requirement(command):
    from repro.analysis.cli import build_parser

    subparsers = next(
        a for a in build_parser()._actions if a.dest == "command"
    )
    (option,) = [
        a
        for a in subparsers.choices[command]._actions
        if "--obs-dir" in a.option_strings
    ]
    assert "--jobs >= 2" in option.help
    assert "exits 1 at --jobs 1" in option.help


def test_obs_dir_at_jobs_1_exits_1_and_writes_nothing(tmp_path, capsys):
    """Every supervised sweep command refuses --obs-dir at --jobs 1,
    whether or not it also resumes from a checkpoint."""
    obs_dir = tmp_path / "obs"
    for command in ("table2", "fig8", "fig9", "export"):
        for resume in (["--resume", str(tmp_path / "ck.json")], []):
            rc = main(
                [
                    "--instructions", "2000",
                    command, "--pairs", "1",
                    *resume,
                    "--jobs", "1",
                    "--obs-dir", str(obs_dir),
                ]
            )
            assert rc == 1, (command, resume)
            assert "ConfigError" in capsys.readouterr().err
            assert not obs_dir.exists()
            assert not (tmp_path / "ck.json").exists()


def test_obs_dir_without_resume_writes_shards(tmp_path, capsys):
    from repro.obs.shards import list_shards

    obs_dir = tmp_path / "obs"
    rc = main(
        [
            "--instructions", "2000",
            "table2", "--pairs", "1", "--jobs", "2", "--quiet",
            "--obs-dir", str(obs_dir),
        ]
    )
    assert rc == 0
    assert "2Xspecrand" in capsys.readouterr().out
    assert (obs_dir / "merged_trace.json").exists()
    assert (obs_dir / "counters.json").exists()
    assert len(list_shards(obs_dir)) == 1


def test_obs_top_once_without_heartbeat(tmp_path, capsys):
    rc = main(["obs", "top", str(tmp_path), "--once"])
    assert rc == 1
    assert "no heartbeat" in capsys.readouterr().out


def test_quiet_suppresses_progress_not_artifacts(tmp_path, capsys):
    out = tmp_path / "quiet_trace"
    rc = main(
        ["--quiet", "trace", "--output-dir", str(out), "--lines", "4",
         "--sample-every", "0"]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "reload hits" in captured.out       # the artifact line stays
    assert "config sha256" not in captured.out  # progress chatter goes
    # the flag is also accepted after the subcommand
    rc = main(["obs", "summarize", str(out / "trace.jsonl"), "--quiet"])
    assert rc == 0


def test_console_routing(capsys):
    console = Console()
    console.info("progress")
    console.result("artifact")
    console.error("bad")
    captured = capsys.readouterr()
    assert "progress" in captured.out
    assert "artifact" in captured.out
    assert "bad" in captured.err

    quiet = Console(quiet=True)
    quiet.info("progress")
    quiet.result("artifact")
    quiet.error("bad")
    captured = capsys.readouterr()
    assert "progress" not in captured.out
    assert "artifact" in captured.out
    assert "bad" in captured.err
