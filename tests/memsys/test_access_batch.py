"""Focused ``access_batch`` tests: boundary straddling and API contract.

The differential fuzz in ``test_engine_equivalence.py`` covers random
traces; here we pin down the *deliberately awkward* cases — partial
batches that straddle flushes, capacity evictions, and context switches —
plus the argument-validation contract, on both engines.
"""

import pytest

from repro.common.config import scaled_experiment_config
from repro.common.errors import SimulationError
from repro.core import TimeCacheSystem
from repro.memsys import AccessKind

LINE = 64
LOAD = AccessKind.LOAD
STORE = AccessKind.STORE
IFETCH = AccessKind.IFETCH


def _config(engine, **tc):
    cfg = scaled_experiment_config(seed=3, engine=engine)
    if tc:
        cfg = cfg.with_timecache(**tc)
    return cfg


def _snapshot(system):
    final = {}
    for cache in system.hierarchy.all_caches():
        final[cache.name] = (
            cache.sbits.tolist(),
            cache.tc.tolist(),
            cache.valid.tolist(),
            sorted(cache.resident_line_addrs()),
        )
    return final


def _observe(results):
    return [(r.latency, r.level, r.first_access) for r in results]


def _run_scalar(system, ctx, addrs, kinds, now, advance=1):
    out = []
    cursor = now
    for addr, kind in zip(addrs, kinds):
        result = system.access(ctx, addr, kind, cursor)
        cursor += advance + result.latency
        out.append(result)
    return out, cursor


@pytest.mark.parametrize("engine", ["object", "fast"])
@pytest.mark.parametrize("tc_enabled", [False, True])
def test_eviction_straddling_batch_matches_scalar(engine, tc_enabled):
    """One big batch touching far more lines than the caches hold forces
    fills and evictions mid-batch; results and state must match the
    scalar loop exactly."""
    # 600 distinct lines, revisited, overflow every level of the scaled
    # config's hierarchy.
    addrs = [(i * 37 % 600) * LINE for i in range(2000)]
    kinds = [LOAD if i % 5 else IFETCH for i in range(2000)]
    tc = {} if tc_enabled else {"enabled": False}
    batched = TimeCacheSystem(_config(engine, **tc))
    outcome = batched.access_batch(0, addrs, kinds, now=0, advance=1)
    scalar = TimeCacheSystem(_config(engine, **tc))
    expected, cursor = _run_scalar(scalar, 0, addrs, kinds, 0)
    assert _observe(outcome.results) == _observe(expected)
    assert outcome.now == cursor
    assert _snapshot(batched) == _snapshot(scalar)
    assert batched.stats_snapshot() == scalar.stats_snapshot()


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_flush_boundary_between_batches(engine):
    """Flushes between partial batches must behave exactly like flushes
    between scalar accesses (invalidation, then first-access refills)."""
    addrs = [i * LINE for i in range(48)]
    batched = TimeCacheSystem(_config(engine))
    scalar = TimeCacheSystem(_config(engine))

    first = batched.access_batch(0, addrs, LOAD, now=0, advance=1)
    ref_first, cursor = _run_scalar(scalar, 0, addrs, [LOAD] * 48, 0)
    for addr in addrs[::3]:
        batched.flush(0, addr, first.now)
        scalar.flush(0, addr, cursor)
    second = batched.access_batch(0, addrs, LOAD, now=first.now, advance=1)
    ref_second, _ = _run_scalar(scalar, 0, addrs, [LOAD] * 48, cursor)

    assert _observe(first.results) == _observe(ref_first)
    assert _observe(second.results) == _observe(ref_second)
    # The flushed lines leave L1 and miss again; the untouched lines in
    # between still hit there.
    assert all(r.level != "L1" for r in second.results[::3])
    assert all(r.level == "L1" for r in second.results[1::3])
    assert _snapshot(batched) == _snapshot(scalar)


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_context_switch_between_batches(engine):
    """A context switch between partial batches: the incoming task's
    s-bits get comparator-repaired, so re-accesses slow down identically
    on both paths."""
    addrs = [i * LINE for i in range(40)]
    batched = TimeCacheSystem(_config(engine))
    scalar = TimeCacheSystem(_config(engine))

    b1 = batched.access_batch(0, addrs, LOAD, now=0, advance=1)
    _, cursor = _run_scalar(scalar, 0, addrs, [LOAD] * 40, 0)
    cost_b = batched.context_switch(0, 1, 0, b1.now)
    cost_s = scalar.context_switch(0, 1, 0, cursor)
    assert (cost_b.dma_cycles, cost_b.comparator_cycles) == (
        cost_s.dma_cycles,
        cost_s.comparator_cycles,
    )
    b2 = batched.access_batch(0, addrs, LOAD, now=b1.now, advance=1)
    ref2, _ = _run_scalar(scalar, 0, addrs, [LOAD] * 40, cursor)
    assert _observe(b2.results) == _observe(ref2)
    # New task, no saved s-bits: every re-access is a first access again.
    assert all(r.first_access for r in b2.results)
    assert _snapshot(batched) == _snapshot(scalar)


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_store_heavy_and_mixed_kind_batches(engine):
    """Uniform-store batches (a permanent fallback on the fast engine)
    and interleaved load/store/ifetch batches both match the scalar
    loop."""
    addrs = [(i % 37) * LINE for i in range(150)]
    stores = TimeCacheSystem(_config(engine))
    out = stores.access_batch(0, addrs, STORE, now=5, advance=1)
    ref_sys = TimeCacheSystem(_config(engine))
    ref, cursor = _run_scalar(ref_sys, 0, addrs, [STORE] * 150, 5)
    assert _observe(out.results) == _observe(ref)
    assert out.now == cursor
    assert _snapshot(stores) == _snapshot(ref_sys)

    kinds = [(LOAD, STORE, IFETCH)[i % 3] for i in range(150)]
    mixed = TimeCacheSystem(_config(engine))
    out2 = mixed.access_batch(0, addrs, kinds, now=5, advance=1)
    ref_sys2 = TimeCacheSystem(_config(engine))
    ref2, cursor2 = _run_scalar(ref_sys2, 0, addrs, kinds, 5)
    assert _observe(out2.results) == _observe(ref2)
    assert out2.now == cursor2
    assert _snapshot(mixed) == _snapshot(ref_sys2)


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_small_batch_and_empty_batch(engine):
    """Small batches (and the empty batch) go through the API and match
    the scalar loop."""
    system = TimeCacheSystem(_config(engine))
    empty = system.access_batch(0, [], LOAD, now=9)
    assert empty.results == [] and empty.now == 9

    addrs = [i * LINE for i in range(5)]
    out = system.access_batch(0, addrs, LOAD, now=9, advance=1)
    ref_sys = TimeCacheSystem(_config(engine))
    _run_scalar(ref_sys, 0, [], [], 0)
    ref, cursor = _run_scalar(ref_sys, 0, addrs, [LOAD] * 5, 9)
    assert _observe(out.results) == _observe(ref)
    assert out.now == cursor


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_advance_zero_charges_latency_only(engine):
    system = TimeCacheSystem(_config(engine))
    addrs = [i * LINE for i in range(40)]
    out = system.access_batch(0, addrs, LOAD, now=0, advance=0)
    assert out.now == sum(r.latency for r in out.results)


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_batch_argument_validation(engine):
    """Bad arguments raise SimulationError on both engines."""
    system = TimeCacheSystem(_config(engine))
    many = [i * LINE for i in range(64)]
    with pytest.raises(SimulationError, match="advance"):
        system.access_batch(0, many, LOAD, advance=-1)
    with pytest.raises(SimulationError):
        system.access_batch(0, many, [LOAD, STORE])  # wrong kinds length
    with pytest.raises(SimulationError, match="non-decreasing"):
        system.access_batch(0, many, LOAD, nows=list(range(63, -1, -1)))
    with pytest.raises(SimulationError):
        system.access_batch(0, many, LOAD, nows=[0, 1, 2])  # wrong length
    with pytest.raises(SimulationError, match="out of range"):
        system.access_batch(99, many, LOAD)


@pytest.mark.parametrize("engine", ["object", "fast"])
@pytest.mark.parametrize(
    "bad", [{"advance": 1.5}, {"advance": "1"}, {"now": 1.5}, {"now": "0"}]
)
def test_a_non_integer_advance_or_now_is_rejected_before_any_access(
    engine, bad
):
    """A float or string ``advance`` or ``now`` used to pass the checks
    and raise TypeError inside the accesses (a float ``advance`` only
    after filling a line and counting accesses).  It is now rejected
    before the ports are bound, and nothing moves."""
    system = TimeCacheSystem(
        scaled_experiment_config(num_cores=2, seed=3, engine=engine)
    )
    system.access_batch(0, [LINE], LOAD, now=0)  # non-empty starting state
    before_stats = system.stats_snapshot()
    before_state = _snapshot(system)
    args = {"now": 0, "advance": 1, **bad}
    name = next(iter(bad))
    for ctx in (0, 1):
        with pytest.raises(SimulationError, match=f"{name} must be an integer"):
            system.access_batch(ctx, [0x1000, 0x1000, 0x2000, 0x3000], LOAD, **args)
    assert system.hierarchy._ports[1] is None  # never bound
    assert system.stats_snapshot() == before_stats
    assert _snapshot(system) == before_state
    assert system.clock.now == 0


@pytest.mark.parametrize("engine", ["object", "fast"])
@pytest.mark.parametrize("per_address", [False, True])
def test_a_non_integer_address_raises_at_its_access(engine, per_address):
    """``access`` raises TypeError on a float address, and so does a
    batch, at that address, after the accesses before it ran: it no
    longer truncates the address and carries on."""
    addrs = [LINE, 2 * LINE, LINE, 2.5 * LINE, 3 * LINE]
    kinds = [LOAD] * len(addrs) if per_address else LOAD
    batched = TimeCacheSystem(_config(engine))
    single = TimeCacheSystem(_config(engine))
    with pytest.raises(TypeError):
        batched.access_batch(0, addrs, kinds, now=0)
    with pytest.raises(TypeError):
        _run_scalar(single, 0, addrs, [LOAD] * len(addrs), 0)
    assert batched.stats_snapshot() == single.stats_snapshot()
    assert batched.stats_snapshot()["hierarchy.accesses"] == 3
    assert _snapshot(batched) == _snapshot(single)
    assert batched.clock.now == single.clock.now


def _batch_outcome(engine, addrs, kinds, nows):
    system = TimeCacheSystem(_config(engine))
    system.access_batch(0, [LINE, 5 * LINE], STORE, now=0)  # warm state
    out = system.access_batch(0, addrs, kinds, now=50, advance=1, nows=nows)
    return (
        _observe(out.results),
        out.now,
        _snapshot(system),
        system.stats_snapshot(),
    )


@pytest.mark.parametrize("engine", ["object", "fast"])
@pytest.mark.parametrize("kind", [LOAD, STORE, IFETCH])
@pytest.mark.parametrize("pinned", [False, True])
def test_single_kind_equals_the_same_kind_per_address(engine, kind, pinned):
    """A single kind binds one port for the whole batch; a list naming
    that kind at every address resolves the same port per access.  Both
    give the same results, cursor, cache state and stats."""
    addrs = [(i * 7 % 90) * LINE for i in range(300)]
    nows = [50 + 4 * i for i in range(300)] if pinned else None
    single = _batch_outcome(engine, addrs, kind, nows)
    assert single == _batch_outcome(engine, addrs, [kind] * 300, nows)


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_a_non_access_kind_entry_is_served_as_a_load(engine):
    """``access`` serves any kind that is neither a store nor an ifetch
    as a load; per-address kinds in a batch keep that rule."""
    addrs = [(i * 5 % 60) * LINE for i in range(120)]
    kinds = [(LOAD, STORE, None, IFETCH, "store")[i % 5] for i in range(120)]
    as_loads = [LOAD if k is None or k == "store" else k for k in kinds]
    got = _batch_outcome(engine, addrs, kinds, None)
    assert got == _batch_outcome(engine, addrs, as_loads, None)


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_short_kinds_list_raises_before_any_access(engine):
    system = TimeCacheSystem(_config(engine))
    system.access_batch(0, [LINE], LOAD, now=0)  # non-empty starting state
    before_stats = system.stats_snapshot()
    before_state = _snapshot(system)
    addrs = [i * LINE for i in range(40)]
    with pytest.raises(SimulationError, match="kinds has 39 entries for 40"):
        system.access_batch(0, addrs, [STORE] * 39, now=5)
    assert system.stats_snapshot() == before_stats
    assert _snapshot(system) == before_state


@pytest.mark.parametrize("engine", ["object", "fast"])
@pytest.mark.parametrize("n", [4, 40])
def test_rejected_nows_batch_changes_nothing(engine, n):
    """Issue times that go backwards only at the last access are still
    rejected before the first access: no cache state or counter moves."""
    system = TimeCacheSystem(_config(engine))
    system.access_batch(0, [LINE], LOAD, now=0)  # non-empty starting state
    before_stats = system.stats_snapshot()
    before_state = _snapshot(system)
    addrs = [i * LINE for i in range(n)]
    nows = [100 + i for i in range(n - 1)] + [0]
    with pytest.raises(SimulationError, match="non-decreasing"):
        system.access_batch(0, addrs, LOAD, nows=nows)
    assert system.stats_snapshot() == before_stats
    assert _snapshot(system) == before_state


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_nows_pins_issue_times(engine):
    """Explicit per-access issue times: results match issuing each access
    scalar at the same pinned time, and the returned now is the last
    pinned time."""
    addrs = [(i % 50) * LINE for i in range(200)]
    nows = [i * 3 for i in range(200)]
    system = TimeCacheSystem(_config(engine))
    out = system.access_batch(0, addrs, LOAD, nows=nows)
    ref_sys = TimeCacheSystem(_config(engine))
    ref = [ref_sys.access(0, a, LOAD, t) for a, t in zip(addrs, nows)]
    assert _observe(out.results) == _observe(ref)
    assert out.now == nows[-1]
    assert _snapshot(system) == _snapshot(ref_sys)


def test_fast_and_object_batches_agree_with_listeners():
    """An attached post-access listener forces the fast engine's batch
    through the scalar reference path; both engines must still agree."""
    seen = {"object": [], "fast": []}
    outs = {}
    for engine in ("object", "fast"):
        system = TimeCacheSystem(_config(engine))
        record = seen[engine].append
        system.hierarchy.post_access_listeners.append(
            lambda ctx, addr, kind, now, result, record=record: record(
                (ctx, addr, kind, now, result.latency)
            )
        )
        addrs = [(i * 11 % 90) * LINE for i in range(120)]
        outs[engine] = system.access_batch(0, addrs, LOAD, now=0, advance=1)
    assert seen["object"] == seen["fast"]
    assert _observe(outs["object"].results) == _observe(outs["fast"].results)
    assert outs["object"].now == outs["fast"].now


# ---------------------------------------------------------------------------
# Adversarial stream shapes: miss storms, conflicts, stores after fills
# ---------------------------------------------------------------------------


def _assert_batch_matches_scalar(engine, addrs, kinds, advance=1, tc=None):
    tc = tc or {}
    batched = TimeCacheSystem(_config(engine, **tc))
    outcome = batched.access_batch(0, addrs, kinds, now=0, advance=advance)
    scalar = TimeCacheSystem(_config(engine, **tc))
    if isinstance(kinds, AccessKind):
        kinds = [kinds] * len(addrs)
    expected, cursor = _run_scalar(scalar, 0, addrs, kinds, 0, advance)
    assert _observe(outcome.results) == _observe(expected)
    assert outcome.now == cursor
    assert _snapshot(batched) == _snapshot(scalar)
    assert batched.stats_snapshot() == scalar.stats_snapshot()
    return batched, scalar


@pytest.mark.parametrize("engine", ["object", "fast"])
@pytest.mark.parametrize("tc_enabled", [False, True])
def test_all_miss_window_matches_scalar(engine, tc_enabled):
    """A batch of nothing but cold misses — no hit anywhere — must match
    the scalar loop bit-identically."""
    addrs = [i * LINE for i in range(1500)]
    tc = {} if tc_enabled else {"enabled": False}
    _assert_batch_matches_scalar(engine, addrs, LOAD, tc=tc)


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_same_set_conflict_storm(engine):
    """Every access maps to one cache set (stride covers any power-of-two
    set count up to 64): chained same-set victim selections inside one
    batch must pick the exact victims the in-order loop would."""
    addrs = [((i * 13 % 40) * 64) * LINE for i in range(1200)]
    kinds = [LOAD if i % 7 else IFETCH for i in range(1200)]
    _assert_batch_matches_scalar(engine, addrs, kinds)


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_window_boundary_evictions(engine):
    """A 700-line stride cycle evicts on nearly every access; LRU stamps
    and s-bits must carry from one eviction to the next exactly."""
    addrs = [(i * 37 % 700) * LINE for i in range(1400)]
    _assert_batch_matches_scalar(engine, addrs, LOAD)


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_stores_to_just_filled_lines(engine):
    """A store immediately following the load that filled its line (same
    batch) must hit the freshly filled slot and set the dirty bit, not
    re-fill."""
    addrs, kinds = [], []
    for i in range(400):
        line = (i * 3 % 500) * LINE
        addrs += [line, line]
        kinds += [LOAD, STORE]
    _assert_batch_matches_scalar(engine, addrs, kinds)


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_replan_invalidation_rescans_new_hazards(engine):
    """A 32-access load/store/ifetch stream on the tiny config, shrunk
    from a milc profile stream that once crashed a vectorized batch path
    (KeyError); it must match the scalar loop."""
    import dataclasses

    from tests.conftest import tiny_config

    lines = [
        2097237, 2097205, 2097225, 2097157, 2097165, 2097161, 2097225,
        2097233, 2097393, 2097237, 2097177, 2097253, 2097157, 2097393,
        2097177, 2097273, 2097233, 2097218, 2097199, 2097200, 2097394,
        65558, 2097165, 2097274, 2097204, 2097163, 2097260, 524295,
        2097394, 2097394, 2097219, 2097253,
    ]
    codes = "LSLSLLSSLSLLLSLLLLSLLILLLLLILSLL"
    addrs = [line * LINE for line in lines]
    kinds = [{"L": LOAD, "S": STORE, "I": IFETCH}[c] for c in codes]
    cfg = tiny_config()
    cfg = dataclasses.replace(
        cfg, hierarchy=dataclasses.replace(cfg.hierarchy, engine=engine)
    )
    batched = TimeCacheSystem(cfg)
    outcome = batched.access_batch(0, addrs, kinds, now=0, advance=1)
    scalar = TimeCacheSystem(cfg)
    expected, cursor = _run_scalar(scalar, 0, addrs, kinds, 0, 1)
    assert _observe(outcome.results) == _observe(expected)
    assert outcome.now == cursor
    assert _snapshot(batched) == _snapshot(scalar)
    assert batched.stats_snapshot() == scalar.stats_snapshot()


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_repeated_line_touches_last_write_wins(engine):
    """Many touches of the same lines inside one batch must leave exactly
    the scalar loop's final LRU stamps."""
    addrs = []
    for i in range(50):
        addrs += [0, LINE * 3, 0, 0, LINE * 3]
    addrs += [i * LINE for i in range(30)]  # then some churn
    batched, scalar = _assert_batch_matches_scalar(engine, addrs, LOAD)
    if engine == "fast":
        for cb, cs in zip(
            batched.hierarchy.all_caches(), scalar.hierarchy.all_caches()
        ):
            assert cb._last_used == cs._last_used, cb.name
