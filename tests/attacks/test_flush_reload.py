"""Flush+reload: the Section VI-A1 microbenchmark and a spy variant.

The paper's success criterion: the baseline attacker observes hits (a
fully leaking channel), the defended attacker observes zero.
"""

from repro.attacks.flush_reload import (
    run_microbenchmark_attack,
    run_spy_flush_reload,
)

from tests.conftest import tiny_config


class TestMicrobenchmark:
    def test_baseline_leaks_every_line(self):
        outcome = run_microbenchmark_attack(
            tiny_config(enabled=False), shared_lines=64, sleep_cycles=50_000
        )
        assert outcome.probe_total == 64
        assert outcome.probe_hits == 64

    def test_timecache_blocks_every_line(self):
        outcome = run_microbenchmark_attack(
            tiny_config(enabled=True), shared_lines=64, sleep_cycles=50_000
        )
        assert outcome.probe_total == 64
        assert outcome.probe_hits == 0
        assert not outcome.verdict()

    def test_latencies_cluster_by_configuration(self):
        base = run_microbenchmark_attack(
            tiny_config(enabled=False), shared_lines=32, sleep_cycles=50_000
        )
        defended = run_microbenchmark_attack(
            tiny_config(enabled=True), shared_lines=32, sleep_cycles=50_000
        )
        assert max(base.latencies) < min(defended.latencies)

    def test_hit_fraction(self):
        base = run_microbenchmark_attack(
            tiny_config(enabled=False), shared_lines=16, sleep_cycles=50_000
        )
        assert base.hit_fraction == 1.0


class TestSpy:
    SECRET = (3, 11, 17)

    def test_baseline_recovers_exact_secret(self):
        outcome = run_spy_flush_reload(
            tiny_config(enabled=False),
            secret_indices=self.SECRET,
            shared_lines=32,
            rounds=3,
        )
        assert outcome.extra["exact_recovery"]
        assert outcome.extra["recovered"] == set(self.SECRET)

    def test_timecache_recovers_nothing(self):
        outcome = run_spy_flush_reload(
            tiny_config(enabled=True),
            secret_indices=self.SECRET,
            shared_lines=32,
            rounds=3,
        )
        assert outcome.extra["recovered"] == set()
        assert outcome.probe_hits == 0

    def test_spy_sees_nothing_when_victim_idle(self):
        outcome = run_spy_flush_reload(
            tiny_config(enabled=False),
            secret_indices=(),
            shared_lines=16,
            rounds=2,
        )
        assert outcome.extra["recovered"] == set()
