"""Wall-clock spans, kernel phase accumulators, and the obs session."""

import pytest

from repro.common.config import scaled_experiment_config
from repro.common.errors import SimulationError
from repro.core.timecache import TimeCacheSystem
from repro.memsys.hierarchy import AccessKind
from repro.obs import ObsSession, PhaseAccumulator, SpanProfiler
from repro.obs.spans import KERNEL_PHASES, folded_to_lines, session_scope


# ----------------------------------------------------------------------
# PhaseAccumulator
# ----------------------------------------------------------------------
def test_phase_accumulator_payload_round_trip():
    acc = PhaseAccumulator()
    acc.plan_ns = 100
    acc.apply_ns = 300
    acc.windows = 2
    acc.events = 7
    other = PhaseAccumulator().load(acc.to_payload()).load(acc.to_payload())
    assert other.plan_ns == 200  # load() sums
    assert other.windows == 4
    assert other.events == 14


def test_kernel_phases_constant_matches_accumulator():
    acc = PhaseAccumulator()
    assert set(acc.phase_ns()) == set(KERNEL_PHASES)


# ----------------------------------------------------------------------
# SpanProfiler
# ----------------------------------------------------------------------
def test_spans_nest():
    prof = SpanProfiler()
    with prof.span("outer"):
        with prof.span("inner"):
            pass
    # children close before parents
    assert [s.name for s in prof.spans] == ["inner", "outer"]
    inner, outer = prof.spans
    assert inner.path == ("outer", "inner")
    assert outer.path == ("outer",)
    assert outer.start_ns <= inner.start_ns <= inner.end_ns <= outer.end_ns


def test_folded_stacks_self_time_invariant():
    prof = SpanProfiler()
    with prof.span("root"):
        with prof.span("child"):
            pass
        with prof.span("child"):
            pass
    folded = prof.folded_stacks()
    assert set(folded) == {"root", "root;child"}
    root_total = next(s for s in prof.spans if s.name == "root").duration_ns
    # self times sum back to the root duration (flamegraph invariant)
    assert folded["root"] + folded["root;child"] == root_total
    lines = folded_to_lines(folded)
    assert all(" " in line for line in lines)
    assert lines == sorted(lines)


def test_span_profiler_payload_round_trip():
    prof = SpanProfiler()
    with prof.span("outer"):
        with prof.span("inner"):
            pass
    clone = SpanProfiler().load(prof.to_payload())
    assert [s.path for s in clone.spans] == [s.path for s in prof.spans]
    assert clone.folded_stacks() == prof.folded_stacks()


# ----------------------------------------------------------------------
# ObsSession + the construction-time attach
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["object", "fast"])
def test_session_attaches_kernel_profiler_on_construction(engine):
    config = scaled_experiment_config(l1_kib=4, llc_kib=64, engine=engine)
    line = config.hierarchy.line_bytes
    addrs = [i * line for i in range(512)]
    with session_scope(ObsSession("t")) as session:
        system = TimeCacheSystem(config)
        assert system.hierarchy.kernel_profiler is session.kernel_phases
        system.hierarchy.access_batch(0, addrs, AccessKind.LOAD, now=0, advance=0)
        payload = session.to_payload()
    phases = payload["kernel_phases"]
    # neither engine has a vectorized batch: every access is fallback
    assert phases["fallback_ns"] > 0
    assert phases["scalar_accesses"] == len(addrs)
    # finalize folded the system's stats into the counter tree
    assert any(k.startswith("sim.") for k in payload["counters"])


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_rejected_batch_counts_no_accesses(engine):
    """A batch rejected before its first access adds nothing to
    ``scalar_accesses``; the next batch adds exactly what it ran."""
    config = scaled_experiment_config(l1_kib=4, llc_kib=64, engine=engine)
    line = config.hierarchy.line_bytes
    with session_scope(ObsSession("t")) as session:
        hierarchy = TimeCacheSystem(config).hierarchy
        with pytest.raises(SimulationError):
            hierarchy.access_batch(0, [0, line, 2 * line], nows=[10, 5, 20])
        assert session.kernel_phases.scalar_accesses == 0
        hierarchy.access_batch(0, [0, line], nows=[30, 40])
    assert hierarchy.stats.get("accesses") == 2
    assert session.kernel_phases.scalar_accesses == 2


def test_no_session_means_no_profiler():
    config = scaled_experiment_config(l1_kib=4, llc_kib=64)
    system = TimeCacheSystem(config)
    assert system.hierarchy.kernel_profiler is None


def test_profiler_does_not_change_results():
    """Instrumentation must be observational: same batch, same results."""
    config = scaled_experiment_config(l1_kib=4, llc_kib=64, engine="fast")
    line = config.hierarchy.line_bytes
    addrs = [((i * 37) % 300) * line for i in range(2000)]

    def run(profiled):
        system = TimeCacheSystem(config)
        if profiled:
            system.hierarchy.kernel_profiler = PhaseAccumulator()
        out = system.hierarchy.access_batch(
            0, addrs, AccessKind.LOAD, now=0, advance=1
        )
        return out.now, [r.latency for r in out.results]

    assert run(False) == run(True)


def test_session_scope_restores_previous():
    from repro.obs import current_session

    outer = ObsSession("outer")
    with session_scope(outer):
        with session_scope(ObsSession("inner")):
            assert current_session().label == "inner"
        assert current_session() is outer
    assert current_session() is not outer
