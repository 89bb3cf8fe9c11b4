"""Observers attached after the ports are bound still see every access.

A context's ports are bound at its first step and capture the
hierarchy's listener lists and counter handles.  An observer attached
later is seen only because attaching mutates those lists in place, and
``stats.reset()`` zeroes counters in place.  So each observer below is
attached between two ``Kernel.run`` calls, after the first has bound
every port, and must record over the second run what the same observer
attached at construction records over it.
"""

import pytest

from repro.common import scaled_experiment_config
from repro.obs.sampler import MetricsSampler
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from repro.os.kernel import Kernel
from repro.os.process import Process, Task
from repro.robustness.invariants import InvariantChecker
from repro.workloads.parsec import build_parsec_workload
from repro.workloads.spec import build_spec_pair

ENGINES = ("object", "fast")

#: steps of the first run, before the late observer attaches
FIRST_STEPS = 300

#: name -> (config factory taking the engine, build, a sampler cadence
#: the first run ends before)
WORKLOADS = {
    "spec_pair": (
        lambda e: scaled_experiment_config(quantum_cycles=3_000, engine=e),
        lambda k: build_spec_pair(k, "perlbench", "wrf", 6_000, seed=3),
        50_000,
    ),
    "parsec": (
        lambda e: scaled_experiment_config(num_cores=2, engine=e),
        lambda k: build_parsec_workload(k, "x264", 6_000, seed=5),
        20_000,
    ),
}


def _run(engine, workload, attach, read, late):
    """Run ``workload`` in two ``Kernel.run`` calls with the observer
    ``attach(kernel)`` returns, attached at construction or (``late``)
    between the calls; returns ``read(observer)`` between the calls and
    after the second, and the simulated time between them."""
    make_config, build, _ = WORKLOADS[workload]
    kernel = Kernel(make_config(engine))
    observer = None if late else attach(kernel)
    build(kernel)
    kernel.run(max_steps=FIRST_STEPS)
    assert not kernel.all_done()
    assert None not in kernel.system.hierarchy._ports  # every port bound
    if late:
        observer = attach(kernel)
    at_mark = read(observer)
    mark = kernel.system.clock.now
    kernel.run()
    assert kernel.all_done()
    return at_mark, read(observer), mark


def _early_and_late(engine, workload, attach, read):
    ids = Task._next_tid, Process._next_pid
    runs = []
    for late in (False, True):
        Task._next_tid, Process._next_pid = ids  # traces name the tasks
        runs.append(_run(engine, workload, attach, read, late))
    assert runs[0][2] == runs[1][2]  # the same run, to the cycle
    return runs


CASES = pytest.mark.parametrize(
    "engine,workload", [(e, w) for e in ENGINES for w in sorted(WORKLOADS)]
)


@CASES
def test_late_tracer_sees_every_access(engine, workload):
    def attach(kernel):
        ring = RingBufferSink(capacity=1 << 22)
        Tracer(ring).attach(kernel.system)
        return ring

    def read(ring):
        assert ring.dropped == 0
        return [
            (e.kind, e.src, e.ctx, e.ts, sorted(e.args.items()))
            for e in ring.events
        ]

    early, late = _early_and_late(engine, workload, attach, read)
    after = early[1][len(early[0]):]
    assert {"cache.fill", "access.first_miss"} <= {event[0] for event in after}
    assert late[0] == []
    assert late[1] == after


@pytest.mark.parametrize("engine", ENGINES)
def test_late_invariant_checker_checks_every_access(engine):
    # Only on the two pinned threads: a checker attached mid-run does not
    # know which task owns the s-bits a later switch restores, so on a
    # time-sliced pair it flags them whatever the access path.
    early, late = _early_and_late(
        engine,
        "parsec",
        lambda kernel: InvariantChecker(kernel.system).attach(),
        lambda checker: (checker.checked_accesses, checker.scans),
    )
    (accesses, scans), (all_accesses, all_scans), _ = early
    assert late[0] == (0, 0)
    assert late[1] == (all_accesses - accesses, all_scans - scans)
    assert all_accesses > accesses > 0


@CASES
def test_late_sampler_samples_every_window(engine, workload):
    every = WORKLOADS[workload][2]
    early, late = _early_and_late(
        engine,
        workload,
        lambda kernel: MetricsSampler(kernel.system, every_cycles=every).attach(),
        lambda sampler: [
            (s.ts, dict(s.window), dict(s.derived)) for s in sampler.samples
        ],
    )
    # The first run ends before the first sample is due, so both samplers
    # sample at the same times.  Their first windows differ: the early
    # one's counts from construction, the late one's from the mark.
    assert early[0] == late[0] == []
    assert len(early[1]) >= 3
    assert [s[0] for s in late[1]] == [s[0] for s in early[1]]
    assert late[1][1:] == early[1][1:]


@CASES
def test_stats_reset_after_binding_still_counts(engine, workload):
    def reset(kernel):
        kernel.system.hierarchy.stats.reset()
        return kernel.system

    def read(system):
        return system.hierarchy.stats.get("accesses")

    early, late = _early_and_late(engine, workload, reset, read)
    assert late[0] == 0
    assert late[1] == early[1] - early[0] > 0
