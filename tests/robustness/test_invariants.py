"""The invariant checker: silent on healthy runs, loud on corruption."""

import dataclasses

import pytest

from repro.common.errors import ConfigError, InvariantViolation
from repro.common.rng import DeterministicRng
from repro.core.timecache import TimeCacheSystem
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from repro.robustness.campaign import _drive, campaign_config
from repro.robustness.invariants import InvariantChecker

from tests.conftest import tiny_config


@pytest.fixture
def system():
    return TimeCacheSystem(tiny_config(num_cores=1))


@pytest.fixture
def checked(system):
    checker = InvariantChecker(system).attach()
    return system, checker


def test_rejects_baseline_config():
    baseline = TimeCacheSystem(tiny_config(enabled=False))
    with pytest.raises(ConfigError):
        InvariantChecker(baseline)


def test_clean_run_raises_nothing(checked):
    system, checker = checked
    _drive(system, DeterministicRng(3), rounds=6)
    checker.scan_all()
    assert checker.scans > 0
    assert checker.checked_accesses > 0


def test_clean_campaign_machine_raises_nothing():
    system = TimeCacheSystem(campaign_config())
    checker = InvariantChecker(system).attach()
    _drive(system, DeterministicRng(11))
    checker.scan_all()


def test_detects_sbit_on_invalid_slot(checked):
    system, checker = checked
    l1d = system.hierarchy.l1d[0]
    assert not l1d.valid[0, 0]
    l1d.sbits[0, 0] = 1  # bit with no line behind it
    with pytest.raises(InvariantViolation) as exc:
        checker.scan(l1d)
    assert exc.value.invariant == "sbit-implies-valid-line"


def test_detects_unearned_sbit(checked):
    system, checker = checked
    system.context_switch(None, 1, ctx=0, now=0)
    system.load(0, 0x1000, now=10)  # task 1 fills and earns the slot
    system.context_switch(1, 2, ctx=0, now=500)
    # Hand task 2 the bit without it ever touching the line.
    pos = system.hierarchy.l1d[0].lookup(system.hierarchy.line_addr(0x1000))
    assert pos is not None
    system.hierarchy.l1d[0].sbits[pos] = 1
    with pytest.raises(InvariantViolation) as exc:
        checker.scan_all()
    assert exc.value.invariant == "sbit-subset-of-entitlement"


def test_detects_tc_out_of_domain(checked):
    system, checker = checked
    system.load(0, 0x2000, now=10)
    llc = system.hierarchy.llc
    pos = llc.lookup(system.hierarchy.line_addr(0x2000))
    llc.tc[pos] = system.context_engine.domain.mask + 5
    with pytest.raises(InvariantViolation) as exc:
        checker.scan(llc)
    assert exc.value.invariant == "tc-in-domain"


def test_detects_tc_mismatch_with_fill_time(checked):
    system, checker = checked
    system.load(0, 0x2000, now=10)
    llc = system.hierarchy.llc
    pos = llc.lookup(system.hierarchy.line_addr(0x2000))
    llc.tc[pos] = int(llc.tc[pos]) + 1  # in-domain but wrong
    with pytest.raises(InvariantViolation) as exc:
        checker.scan(llc)
    assert exc.value.invariant == "tc-matches-fill-time"


def test_per_access_check_catches_exploited_stale_bit(checked):
    """A corrupt s-bit is not just a latent state error: if an access is
    actually *served* through it, the per-access path must flag it."""
    system, checker = checked
    system.context_switch(None, 1, ctx=0, now=0)
    system.load(0, 0x1000, now=10)
    system.context_switch(1, 2, ctx=0, now=500)
    pos = system.hierarchy.l1d[0].lookup(system.hierarchy.line_addr(0x1000))
    system.hierarchy.l1d[0].sbits[pos] = 1  # forged visibility for task 2
    with pytest.raises(InvariantViolation) as exc:
        system.load(0, 0x1000, now=600)
    assert exc.value.invariant == "stale-visibility-exploited"
    assert exc.value.task == 2


def test_eviction_with_surviving_sbits_detected(checked):
    system, checker = checked
    system.load(0, 0x1000, now=10)
    l1d = system.hierarchy.l1d[0]
    # Sabotage the eviction path: a listener ahead of the checker's puts
    # the bit back, so the checker sees it survive the invalidation.

    def corrupting(cache, event, s, w, ctx):
        if event == "invalidate":
            cache.sbits[s, w] = 1  # bits survive the invalidation

    l1d.event_listeners.insert(0, corrupting)
    with pytest.raises(InvariantViolation) as exc:
        system.flush(0, 0x1000, now=100)
    assert exc.value.invariant == "sbits-cleared-on-eviction"


def test_detach_restores_hooks(system):
    checker = InvariantChecker(system).attach()
    checker.detach()
    assert all(c.event_listeners == [] for c in system.hierarchy.all_caches())
    assert not system.hierarchy.pre_access_listeners
    assert not system.hierarchy.post_access_listeners
    assert not system.switch_listeners
    # A second detach is a no-op, and the system still runs clean.
    checker.detach()
    system.load(0, 0x1000, now=10)


@pytest.mark.parametrize("detach_first", ["checker", "tracer"])
@pytest.mark.parametrize("attach_first", ["checker", "tracer"])
@pytest.mark.parametrize("engine", ["object", "fast"])
def test_checker_and_tracer_share_the_cache_listeners(
    engine, attach_first, detach_first
):
    """The checker joins each cache's listener list, and the system's
    switch listeners, beside a tracer: whichever attaches or detaches
    first, the tracer sees every fill and both see every switch while
    attached, each is gone after its own detach, and once both have
    detached no cache and no switch keeps a listener."""
    config = tiny_config(num_cores=1)
    config = dataclasses.replace(
        config, hierarchy=dataclasses.replace(config.hierarchy, engine=engine)
    )
    system = TimeCacheSystem(config)
    caches = system.hierarchy.all_caches()
    checker = InvariantChecker(system)
    ring = RingBufferSink()
    tracer = Tracer(ring)
    attach = {"checker": checker.attach, "tracer": lambda: tracer.attach(system)}
    detach = {"checker": checker.detach, "tracer": tracer.detach}
    other = {"checker": "tracer", "tracer": "checker"}
    attach[attach_first]()
    attach[other[attach_first]]()
    lines = iter(range(0x1000, 0x100000, 64))

    def fresh_loads(count):
        """Loads of lines not seen before, each filling the L1D and the
        LLC; returns (fills counted, fills traced) meanwhile."""
        fills = sum(cache.stats.get("fills") for cache in caches)
        traced = len(ring.events)
        for _ in range(count):
            system.load(0, next(lines), now=system.clock.now + 10)
        fills = sum(cache.stats.get("fills") for cache in caches) - fills
        new_events = ring.events[traced:]
        return fills, sum(event.kind == "cache.fill" for event in new_events)

    tasks = iter(range(1, 100))

    def switch():
        """One context switch; returns which observers saw it."""
        scans, traced = checker.scans, len(ring.events)
        system.context_switch(None, next(tasks), 0, now=system.clock.now + 10)
        saw = set()
        if checker.scans > scans:
            saw.add("checker")
        if any(e.kind == "ctx.switch" for e in ring.events[traced:]):
            saw.add("tracer")
        return saw

    on_switch = {"checker": checker._on_switch, "tracer": tracer.on_context_switch}
    fills, traced = fresh_loads(40)
    assert fills >= 80 and traced == fills
    assert switch() == {"checker", "tracer"}
    detach[detach_first]()
    assert on_switch[detach_first] not in system.switch_listeners
    fills, traced = fresh_loads(40)
    assert traced == (fills if detach_first == "checker" else 0)
    assert switch() == {other[detach_first]}
    detach[other[detach_first]]()
    assert all(cache.event_listeners == [] for cache in caches)
    assert system.switch_listeners == []
    fresh_loads(4)
    assert switch() == set()
    assert all(cache.event_listeners == [] for cache in caches)


def test_bootstrap_adopts_preexisting_state(system):
    # Warm the caches BEFORE attaching: existing bits must be adopted as
    # legitimate, not reported.
    system.context_switch(None, 1, ctx=0, now=0)
    for i in range(8):
        system.load(0, 0x1000 + i * 64, now=10 + i * 300)
    checker = InvariantChecker(system).attach()
    checker.scan_all()
    r = system.load(0, 0x1000, now=5_000)
    assert not r.first_access  # adopted visibility still serves hits


def test_first_access_discipline_violation_detected(system):
    """If the hierarchy ever served a tag-hit-with-clear-s-bit at full
    speed, the checker must notice.  Simulated by lying to the checker
    through a post-listener that rewrites the result."""
    from repro.memsys.hierarchy import AccessResult

    checker = InvariantChecker(system).attach()
    system.context_switch(None, 1, ctx=0, now=0)
    system.load(0, 0x1000, now=10)
    system.context_switch(1, 2, ctx=0, now=500)

    # Replace the checker's post hook with one that feeds it a forged
    # "L1-speed, no first access" result for task 2's first touch.
    post = checker._post_access
    system.hierarchy.post_access_listeners.remove(post)

    def forged(ctx, line, kind, now, result):
        post(ctx, line, kind, now, AccessResult(3, "L1", False))

    system.hierarchy.post_access_listeners.append(forged)
    with pytest.raises(InvariantViolation) as exc:
        system.load(0, 0x1000, now=600)
    assert exc.value.invariant == "first-access-discipline"
