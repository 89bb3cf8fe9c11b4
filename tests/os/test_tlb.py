"""Tests for the per-context TLB."""

import pytest

from repro.core.timecache import TimeCacheSystem
from repro.cpu.cpu import HardwareContext
from repro.cpu.isa import Compute, Exit, Load
from repro.cpu.program import Program
from repro.os.kernel import Kernel
from repro.os.tlb import Tlb

from tests.conftest import tiny_config


class TestTlbUnit:
    def walker(self, vaddr):
        return vaddr + 0x1000_0000  # a fake page-table walk

    def test_miss_then_hit(self):
        tlb = Tlb(entries=4, walk_cycles=30)
        paddr, cost = tlb.translate(0x2000, self.walker)
        assert paddr == 0x1000_2000
        assert cost == 30
        paddr, cost = tlb.translate(0x2008, self.walker)  # same page
        assert paddr == 0x1000_2008
        assert cost == 0
        assert tlb.stats.get("hits") == 1
        assert tlb.stats.get("misses") == 1

    def test_lru_eviction(self):
        tlb = Tlb(entries=2, walk_cycles=10)
        tlb.translate(0x1000, self.walker)
        tlb.translate(0x2000, self.walker)
        tlb.translate(0x1000, self.walker)  # refresh page 1
        tlb.translate(0x3000, self.walker)  # evicts page 2 (LRU)
        _, cost = tlb.translate(0x1000, self.walker)
        assert cost == 0
        _, cost = tlb.translate(0x2000, self.walker)
        assert cost == 10  # was evicted

    def test_flush_drops_everything(self):
        tlb = Tlb(entries=4)
        tlb.translate(0x1000, self.walker)
        tlb.flush()
        assert tlb.occupancy == 0
        _, cost = tlb.translate(0x1000, self.walker)
        assert cost == tlb.walk_cycles

    def test_validation(self):
        with pytest.raises(ValueError):
            Tlb(entries=0)
        with pytest.raises(ValueError):
            Tlb(entries=1, walk_cycles=-1)



class TestTlbOnContext:
    def test_context_charges_walk_before_access(self):
        """A miss's walk cycles land on local time before the access
        issues; a hit charges nothing."""
        system = TimeCacheSystem(tiny_config())
        issued = []
        system.hierarchy.pre_access_listeners.append(
            lambda ctx, line, kind, now: issued.append((line, now))
        )
        line_of = system.hierarchy.line_addr
        ctx = HardwareContext(0, system)
        tlb = Tlb(entries=4, walk_cycles=25)

        def prog():
            yield Load(0x5000)
            yield Load(0x5010)  # same page

        ctx.install(prog(), lambda vaddr: vaddr + 0x1000_0000, tlb)
        ctx.step()
        assert issued == [(line_of(0x1000_5000), 25)]
        issue_time = ctx.local_time
        ctx.step()
        assert issued[1] == (line_of(0x1000_5010), issue_time)
        assert (tlb.stats.get("misses"), tlb.stats.get("hits")) == (1, 1)


class TestTlbInKernel:
    def run_kernel(self, tlb_entries):
        import dataclasses

        cfg = dataclasses.replace(
            tiny_config(quantum=2_000),
            tlb_entries=tlb_entries,
            tlb_walk_cycles=30,
        )
        kernel = Kernel(cfg)
        pa, pb = kernel.create_process("a"), kernel.create_process("b")
        for proc in (pa, pb):
            seg = kernel.phys.allocate_segment(f"{proc.name}.data", 8192)
            proc.address_space.map_segment(seg, 0x10000)

        def prog():
            # long enough to outlast several 2000-cycle quanta, so the
            # two processes genuinely alternate
            for _ in range(400):
                yield Load(0x10000)
                yield Load(0x11000)  # second page
                yield Compute(20)
            yield Exit()

        ta = pa.spawn(Program("a", prog), affinity=0)
        tb = pb.spawn(Program("b", prog), affinity=0)
        kernel.submit(ta)
        kernel.submit(tb)
        summary = kernel.run()
        return kernel, summary

    def test_walks_slow_the_run(self):
        _, without = self.run_kernel(tlb_entries=0)
        kernel, with_tlb = self.run_kernel(tlb_entries=8)
        assert with_tlb.makespan > without.makespan  # walk costs charged
        tlb = kernel._tlbs[0]
        assert tlb is not None
        assert tlb.stats.get("hits") > 0

    def test_switch_flushes_tlb(self):
        kernel, _ = self.run_kernel(tlb_entries=8)
        tlb = kernel._tlbs[0]
        assert tlb.stats.get("flushes") >= 2  # one per process change
        # post-switch re-walks: more misses than the 4 distinct pages
        assert tlb.stats.get("misses") > 4
