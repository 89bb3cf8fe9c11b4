"""Tests for ``replay_ops``: batched and scalar replay of an op stream."""

import dataclasses

import pytest

from repro.core.timecache import TimeCacheSystem
from repro.cpu.isa import (
    Compute,
    Exit,
    Fence,
    Flush,
    Ifetch,
    Load,
    Rdtsc,
    SleepOp,
    Store,
)
from repro.cpu.tracing import replay_ops

from tests.conftest import tiny_config

LINE = 64


def _engine_config(engine):
    cfg = tiny_config()
    return dataclasses.replace(
        cfg, hierarchy=dataclasses.replace(cfg.hierarchy, engine=engine)
    )


class TestReplayOps:
    OPS = None  # built per test; generators are single-shot

    def _ops(self):
        ops = []
        for i in range(200):
            addr = (i * 11 % 70) * LINE
            ops.append(("LSI"[i % 3], addr))
        stream = [
            {"L": Load, "S": Store, "I": Ifetch}[code](addr)
            for code, addr in ops
        ]
        # sprinkle batch boundaries through the access stream
        stream[25:25] = [Flush((3 * 11 % 70) * LINE)]
        stream[60:60] = [Compute(40)]
        stream[100:100] = [Rdtsc(), Fence()]
        stream[150:150] = [SleepOp(500)]
        stream.extend(Load(i * LINE) for i in range(48))
        return stream

    @pytest.mark.parametrize("engine", ["object", "fast"])
    def test_batch_matches_scalar_replay(self, engine):
        runs = {}
        for batch in (True, False):
            system = TimeCacheSystem(_engine_config(engine))
            results, now = replay_ops(system, self._ops(), batch=batch)
            runs[batch] = (
                [(r.latency, r.level, r.first_access) for r in results],
                now,
                system.stats_snapshot(),
            )
        assert runs[True] == runs[False]

    def test_engines_agree_through_replay(self):
        runs = {}
        for engine in ("object", "fast"):
            system = TimeCacheSystem(_engine_config(engine))
            results, now = replay_ops(system, self._ops(), batch=True)
            runs[engine] = (
                [(r.latency, r.level, r.first_access) for r in results],
                now,
            )
        assert runs["object"] == runs["fast"]

    def test_exit_stops_replay(self):
        system = TimeCacheSystem(_engine_config("fast"))
        ops = [Load(0x40), Exit(), Load(0x80)]
        results, _ = replay_ops(system, ops)
        assert len(results) == 1

    def test_translation_applied(self):
        system = TimeCacheSystem(_engine_config("fast"))
        results, _ = replay_ops(
            system, [Load(0x40)], translate=lambda v: v + 0x1000
        )
        assert 0x1040 // LINE in system.hierarchy.llc.resident_line_addrs()
