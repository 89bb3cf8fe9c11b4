"""Cross-process obs shards: worker output under --jobs N, lossless merge."""

import json

import pytest

from repro.common.config import scaled_experiment_config
from repro.core.timecache import TimeCacheSystem
from repro.memsys.hierarchy import AccessKind
from repro.obs import ObsSession, merge_counts
from repro.obs.shards import (
    list_shards,
    load_shard,
    merge_shards,
    merged_folded_stacks,
    read_heartbeat,
    shard_path,
    write_heartbeat,
    write_merged,
    write_shard,
)
from repro.robustness.supervisor import SupervisedSweepExecutor, SweepJob

LABELS = ("alpha", "beta", "gamma")


def batched_job(seed):
    """Picklable worker payload that drives the batched kernel, so the
    shard carries kernel phases and sim counters."""
    config = scaled_experiment_config(l1_kib=4, llc_kib=64, engine="fast")
    line = config.hierarchy.line_bytes
    system = TimeCacheSystem(config)
    addrs = [((i * 31 + seed) % 200) * line for i in range(800)]
    out = system.hierarchy.access_batch(0, addrs, AccessKind.LOAD, now=0, advance=0)
    return {"seed": seed, "l1_hits": sum(1 for r in out.results if r.level == "L1")}


def _jobs():
    return [
        SweepJob(
            label=label,
            fn=batched_job,
            args=(i,),
            provenance={"seed": i, "engine": "fast"},
        )
        for i, label in enumerate(LABELS)
    ]


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    obs_dir = tmp_path_factory.mktemp("sweep") / "obs"
    outcome = SupervisedSweepExecutor(2, retries=0, obs_dir=obs_dir).run(_jobs())
    assert len(outcome.results) == len(LABELS)
    return obs_dir


def test_jobs2_sweep_writes_one_shard_per_job(swept):
    paths = list_shards(swept)
    assert [p.name for p in paths] == sorted(
        f"shard-{label}.json" for label in LABELS
    )
    for path, label in zip(paths, sorted(LABELS)):
        shard = load_shard(path)
        assert shard["label"] == label
        assert shard["ok"] is True
        assert shard["pid"] > 0
        assert shard["kernel_phases"]["windows"] > 0
        assert any(k.startswith("sim.") for k in shard["counters"])
        # the job span wraps the whole attempt
        names = [s["name"] for s in shard["spans"]]
        assert f"job:{label}" in names
        assert shard["meta"]["provenance"]["engine"] == "fast"


def test_sweep_writes_merged_trace_and_counters(swept):
    assert (swept / "merged_trace.json").exists()
    assert (swept / "counters.json").exists()
    hb = read_heartbeat(swept)
    assert hb is not None and hb["status"] == "done"
    assert hb["done"] == len(LABELS)


def test_merged_counters_totals_equal_sum_of_shards(swept):
    _, counters = merge_shards(swept)
    shard_counts = [load_shard(p)["counters"] for p in list_shards(swept)]
    assert counters["totals"] == merge_counts(*shard_counts)
    assert set(counters["shards"]) == set(LABELS)
    # kernel phase totals are the shard sum too
    windows = sum(load_shard(p)["kernel_phases"]["windows"] for p in list_shards(swept))
    assert counters["kernel_phases"]["windows"] == windows


def test_merged_trace_has_distinct_worker_process_tracks(swept):
    with open(swept / "merged_trace.json") as handle:
        trace = json.load(handle)["traceEvents"]
    names = {
        e["pid"]: e["args"]["name"]
        for e in trace
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert names[1] == "supervisor"
    assert {names[i + 2] for i in range(len(LABELS))} == {
        f"worker:{label}" for label in sorted(LABELS)
    }
    # supervisor track carries one attempt window per job
    sup = [e for e in trace if e["ph"] == "X" and e["pid"] == 1]
    assert sorted(e["name"] for e in sup) == sorted(
        f"job:{label}" for label in LABELS
    )
    # every worker has span slices and a kernel-phase lane
    for index in range(len(LABELS)):
        pid = index + 2
        tids = {e["tid"] for e in trace if e["ph"] == "X" and e["pid"] == pid}
        assert {1, 2} <= tids
    # slices land on the merged wall axis: no negative timestamps
    assert all(e["ts"] >= 0 for e in trace if e["ph"] == "X")


def test_merge_is_deterministic_given_labels(swept):
    first = merge_shards(swept)
    second = merge_shards(swept)
    assert first == second


def test_merged_folded_stacks_cover_jobs_and_kernel(swept):
    folded = merged_folded_stacks(swept)
    for label in LABELS:
        assert f"job:{label}" in folded
    assert any(key.startswith("kernel;") for key in folded)


def test_failed_attempt_still_writes_a_shard(tmp_path):
    session = ObsSession(label="boom")
    with session.span("job:boom", "sweep"):
        session.counters.bump("work.units", 3)
    path = write_shard(session, tmp_path, attempt=2, ok=False)
    assert path == shard_path(tmp_path, "boom")
    shard = load_shard(path)
    assert shard["ok"] is False
    assert shard["attempt"] == 2
    assert shard["counters"]["work.units"] == 3


def test_shard_label_sanitization(tmp_path):
    assert shard_path(tmp_path, "a b/c:d").name == "shard-a_b_c_d.json"


def test_heartbeat_round_trip_and_tolerance(tmp_path):
    assert read_heartbeat(tmp_path) is None
    write_heartbeat(
        tmp_path, status="running", done=1, total=4, failed=0,
        in_flight=[{"label": "x", "attempt": 1, "age_s": 0.5, "pid": 42}],
        quarantined=["y"],
    )
    hb = read_heartbeat(tmp_path)
    assert hb["status"] == "running"
    assert hb["in_flight"][0]["label"] == "x"
    # a torn/corrupt heartbeat reads as None, not an exception
    (tmp_path / "heartbeat.json").write_text('{"kind": "obs_heartbeat"')
    assert read_heartbeat(tmp_path) is None


def test_write_merged_with_no_shards_is_empty_but_valid(tmp_path):
    trace_path, counters_path = write_merged(tmp_path)
    with open(trace_path) as handle:
        trace = json.load(handle)["traceEvents"]
    assert [e["args"]["name"] for e in trace if e["ph"] == "M"] == ["supervisor"]
    with open(counters_path) as handle:
        counters = json.load(handle)
    assert counters["totals"] == {}
