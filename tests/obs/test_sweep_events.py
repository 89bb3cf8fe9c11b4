"""Sweep executor progress events, in-process and across workers."""

import os

import pytest

from repro.obs import RingBufferSink, Tracer
from repro.robustness.supervisor import SupervisedSweepExecutor, SweepJob


def _square(x):
    """Module-level, like every job a worker process runs."""
    return x * x


def _jobs(n):
    return [SweepJob(label=f"job{i}", fn=_square, args=(i,)) for i in range(n)]


def _traced_run(jobs_arg, sweep_jobs):
    ring = RingBufferSink()
    tracer = Tracer(ring)
    executor = SupervisedSweepExecutor(jobs_arg, retries=0, tracer=tracer)
    outcome = executor.run(sweep_jobs)
    tracer.close()
    return outcome, ring.events


def test_serial_sweep_emits_lifecycle_events():
    outcome, events = _traced_run(1, _jobs(3))
    assert len(outcome.results) == 3
    kinds = [e.kind for e in events]
    assert kinds[0] == "sweep.begin"
    assert kinds[-1] == "sweep.end"
    assert kinds.count("sweep.job_done") == 3
    assert kinds.count("sweep.heartbeat") == 3
    assert events[0].args == {"n_jobs": 3, "workers": 1}
    assert events[-1].args == {"ok": 3, "failed": 0, "resumed": 0}
    hb = [e.args for e in events if e.kind == "sweep.heartbeat"]
    assert [h["done"] for h in hb] == [1, 2, 3]
    assert all(h["total"] == 3 for h in hb)


def test_failed_job_emits_job_failed():
    jobs = _jobs(2) + [SweepJob(label="boom", fn=_square, args=("nan",))]
    outcome, events = _traced_run(1, jobs)
    assert len(outcome.failures) == 1
    kinds = [e.kind for e in events]
    assert kinds.count("sweep.job_failed") == 1
    assert events[-1].args["failed"] == 1
    failed = next(e for e in events if e.kind == "sweep.job_failed")
    assert failed.args["label"] == "boom"


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs >=2 CPUs")
def test_pool_sweep_emits_same_lifecycle():
    outcome, events = _traced_run(2, _jobs(4))
    assert len(outcome.results) == 4
    kinds = [e.kind for e in events]
    assert kinds[0] == "sweep.begin"
    assert kinds[-1] == "sweep.end"
    assert events[0].args == {"n_jobs": 4, "workers": 2}
    assert kinds.count("sweep.job_done") == 4
    # one heartbeat per completion, as in-process; the poll loop adds
    # in-flight heartbeats while workers run
    hb = [
        e.args
        for e in events
        if e.kind == "sweep.heartbeat" and "in_flight" not in e.args
    ]
    assert [h["done"] for h in hb] == [1, 2, 3, 4]
    done = [e for e in events if e.kind == "sweep.job_done"]
    assert all("duration_s" in e.args and "attempts" in e.args for e in done)


@pytest.mark.parametrize("jobs_arg", [1, 2])
def test_resumed_jobs_emit_job_resumed(tmp_path, jobs_arg):
    from repro.robustness.resilience import Checkpoint

    path = tmp_path / "ck.json"
    SupervisedSweepExecutor(
        jobs_arg, retries=0, checkpoint=Checkpoint(path, int, int)
    ).run(_jobs(2))
    ring = RingBufferSink()
    tracer = Tracer(ring)
    SupervisedSweepExecutor(
        jobs_arg,
        retries=0,
        tracer=tracer,
        checkpoint=Checkpoint(path, int, int),
    ).run(_jobs(3))
    tracer.close()
    kinds = [e.kind for e in ring.events]
    assert kinds.count("sweep.job_resumed") == 2
    assert kinds.count("sweep.job_done") == 1
    assert ring.events[-1].args == {"ok": 3, "failed": 0, "resumed": 2}


def test_untraced_executor_unchanged():
    executor = SupervisedSweepExecutor(1, retries=0)
    outcome = executor.run(_jobs(2))
    assert [outcome.results[f"job{i}"] for i in range(2)] == [0, 1]
