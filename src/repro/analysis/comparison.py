"""Defense comparison: TimeCache vs the partitioning baseline.

Section VIII argues partitioning-based defenses (Catalyst, Apparition,
DAWG, PLcache) pay 4-12% for security that TimeCache provides at ~1%.
This module runs the same workload under three configurations —
undefended baseline, TimeCache, and CAT-style partitioning with
flush-on-switch — plus the reuse-attack microbenchmark under each, so
one call produces both columns of the comparison: does the attack still
work, and what does the defense cost?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.experiment import SingleRun, _run_configured
from repro.attacks.flush_reload import run_microbenchmark_attack
from repro.common.config import SimConfig
from repro.os.kernel import Kernel
from repro.workloads.generator import Tapes
from repro.workloads.spec import build_spec_pair


@dataclass
class DefenseReport:
    """One defense's cost and security outcome on one workload."""

    name: str
    run: SingleRun
    attack_hits: int
    attack_probes: int

    @property
    def secure(self) -> bool:
        return self.attack_hits == 0


@dataclass
class DefenseComparison:
    """Baseline + every defense, over identical work."""

    workload: str
    reports: Dict[str, DefenseReport]

    def normalized_time(self, name: str) -> float:
        base = self.reports["baseline"].run.cycles
        if base == 0:
            return 1.0
        return self.reports[name].run.cycles / base

    def overhead(self, name: str) -> float:
        return self.normalized_time(name) - 1.0

    def render(self) -> str:
        lines = [
            f"defense comparison — {self.workload}",
            f"{'defense':<14} {'norm. time':>10} {'LLC MPKI':>9} "
            f"{'attack':>14}",
        ]
        lines.append("-" * len(lines[-1]))
        for name, report in self.reports.items():
            attack = (
                "leaks" if report.attack_hits else "blocked"
            ) if name != "baseline" else f"{report.attack_hits} hits"
            lines.append(
                f"{name:<14} {self.normalized_time(name):>10.4f} "
                f"{report.run.llc_mpki:>9.4f} {attack:>14}"
            )
        return "\n".join(lines)


def compare_defenses(
    config: SimConfig,
    bench_a: str = "perlbench",
    bench_b: str = "perlbench",
    instructions: int = 120_000,
    partition_domains: int = 2,
    seed: int = 0xBEEF,
) -> DefenseComparison:
    """Run baseline / TimeCache / partitioning over the same pair.

    ``config`` should be a TimeCache-enabled configuration; the other two
    are derived from it so geometry and workloads match exactly.
    """
    configs: List = [
        ("baseline", config.baseline()),
        ("timecache", config),
        ("partition", config.with_partitioning(domains=partition_domains)),
    ]
    # The op tapes do not depend on the configuration: every run walks
    # the ones the first emitted.
    tapes: Tapes = {}

    def build(kernel: Kernel) -> None:
        build_spec_pair(
            kernel, bench_a, bench_b, instructions, seed=seed, tapes=tapes
        )

    reports: Dict[str, DefenseReport] = {}
    for name, cfg in configs:
        run = _run_configured(cfg, build)
        attack = run_microbenchmark_attack(
            cfg, shared_lines=64, sleep_cycles=50_000
        )
        reports[name] = DefenseReport(
            name=name,
            run=run,
            attack_hits=attack.probe_hits,
            attack_probes=attack.probe_total,
        )
    from repro.workloads.mixes import pair_label

    return DefenseComparison(pair_label(bench_a, bench_b), reports)
