"""Related-work comparison (Section VIII): TimeCache vs partitioning.

The paper's argument for TimeCache over the partitioning family
(Catalyst/Apparition on Intel CAT, DAWG, PLcache): both block reuse
attacks, but partitioning pays with reduced effective cache and flushes
at protection-boundary crossings — DAWG is quoted at 4-12% overhead and
PLcache at ~12%, versus TimeCache's 1.13%.

This benchmark runs the same workload pair and the same microbenchmark
attack under the undefended baseline, TimeCache, and the CAT+flush
baseline, asserting the paper's ordering: both defenses are secure, and
TimeCache is the cheaper one.  Every arm is a registered defense chosen
with ``config.with_defense``: its cost is the tournament's overhead cell
run on this suite's pair and 128 KiB LLC, its security the reuse
microbenchmark's hits under it.
"""

from benchmarks.conftest import bench_instructions, run_once
from repro.analysis.tournament import run_overhead_cell
from repro.attacks.flush_reload import run_microbenchmark_attack
from repro.common import scaled_experiment_config
from repro.workloads.mixes import pair_label

#: the defended arms, each against the ``baseline`` control
ARMS = ("timecache", "partition_flush")


def _compare(bench, instructions):
    """Each arm's overhead cell and the microbenchmark's probe hits
    under the control and under each arm."""
    config = scaled_experiment_config(num_cores=1, quantum_cycles=60_000)
    cells = {
        arm: run_overhead_cell(
            arm, "object", instructions, 0xBEEF, bench=bench, llc_kib=128
        )
        for arm in ARMS
    }
    hits = {
        arm: run_microbenchmark_attack(
            config.with_defense(arm), shared_lines=64, sleep_cycles=50_000
        ).probe_hits
        for arm in ("baseline",) + ARMS
    }
    return cells, hits


def _render(bench, cells, hits):
    rows = [("baseline", 1.0, cells[ARMS[0]]["control_llc_mpki"])]
    rows += [(arm, cells[arm]["slowdown"], cells[arm]["llc_mpki"]) for arm in ARMS]
    lines = [
        f"defense comparison — {pair_label(bench, bench)}",
        f"{'defense':<16} {'norm. time':>10} {'LLC MPKI':>9} {'attack':>14}",
    ]
    lines.append("-" * len(lines[-1]))
    for name, norm, mpki in rows:
        if name == "baseline":
            attack = f"{hits[name]} hits"
        else:
            attack = "leaks" if hits[name] else "blocked"
        lines.append(f"{name:<16} {norm:>10.4f} {mpki:>9.4f} {attack:>14}")
    return "\n".join(lines)


def test_timecache_cheaper_than_partitioning(benchmark):
    instructions = max(80_000, bench_instructions() // 2)
    cells, hits = run_once(benchmark, _compare, "perlbench", instructions)
    print("\n[VIII] " + _render("perlbench", cells, hits))
    tc, part = (cells[arm]["slowdown"] - 1.0 for arm in ARMS)
    print(
        f"\n[VIII] overhead: timecache {tc:.4f} vs partition_flush "
        f"{part:.4f} (paper: 1.13% vs 4-12%)"
    )
    # both defenses block the reuse attack...
    assert hits["baseline"] > 0
    assert hits["timecache"] == 0
    assert hits["partition_flush"] == 0
    # ...and TimeCache wins on cost (the paper's headline comparison)
    assert tc < part


def test_ftm_threat_model_matrix(benchmark):
    """Section VIII-B2: 'The threat model, and hence the defense
    mechanisms in TimeCache, is stronger than that of FTM.'  The matrix:
    FTM blocks the cross-core channel but not time-sliced same-core
    processes; TimeCache blocks both."""
    base = scaled_experiment_config(num_cores=1)
    ftm_cfg = base.with_defense("ftm")

    def run():
        ftm_same_core = run_microbenchmark_attack(
            ftm_cfg, shared_lines=64, sleep_cycles=100_000
        )
        tc_same_core = run_microbenchmark_attack(
            base, shared_lines=64, sleep_cycles=100_000
        )
        return ftm_same_core, tc_same_core

    ftm_same_core, tc_same_core = run_once(benchmark, run)
    print(
        f"\n[VIII-B2] same-core time-sliced flush+reload: FTM "
        f"{ftm_same_core.probe_hits}/{ftm_same_core.probe_total} hits "
        f"(leaks), TimeCache {tc_same_core.probe_hits} (blocked)"
    )
    assert ftm_same_core.probe_hits == ftm_same_core.probe_total
    assert tc_same_core.probe_hits == 0


def test_constant_time_algorithm_cost(benchmark):
    """Section VIII-C: the software alternative — a constant-time
    square-and-multiply — hides the key even on an undefended cache, but
    pays the multiply+reduce on every clear bit; TimeCache provides the
    same secrecy with no change to the victim at ~1% system cost."""
    from repro.attacks.rsa import generate_key, run_rsa_attack

    key = generate_key(seed=7, prime_bits=24)
    cfg = scaled_experiment_config(num_cores=2).baseline()

    def run():
        normal = run_rsa_attack(cfg, key=key)
        constant = run_rsa_attack(cfg, key=key, constant_time_victim=True)
        return normal, constant

    normal, constant = run_once(benchmark, run)
    slowdown = constant.victim_cycles / max(1, normal.victim_cycles)
    print(
        f"\n[VIII-C] constant-time victim: signing slowdown "
        f"{slowdown:.2f}x; decoder output "
        f"{'all-ones (no key info)' if all(constant.recovered_bits) else 'leaky'}"
        f"; normal victim recovered: {normal.key_recovered}"
    )
    assert normal.key_recovered
    assert all(b == 1 for b in constant.recovered_bits)
    zero_fraction = 1 - sum(key.d_bits) / len(key.d_bits)
    assert slowdown > 1.0 + zero_fraction / 2  # pays on every clear bit


def test_partitioning_loses_effective_cache(benchmark):
    """The static cost: even between switches, each domain runs in half
    the LLC, so miss rates rise on cache-hungry workloads."""
    instructions = max(80_000, bench_instructions() // 2)
    cells, hits = run_once(benchmark, _compare, "wrf", instructions)
    print("\n[VIII] " + _render("wrf", cells, hits))
    base_mpki = cells["partition_flush"]["control_llc_mpki"]
    part_mpki = cells["partition_flush"]["llc_mpki"]
    tc_mpki = cells["timecache"]["llc_mpki"]
    print(
        f"[VIII] LLC MPKI: baseline {base_mpki:.3f}, timecache "
        f"{tc_mpki:.3f}, partition_flush {part_mpki:.3f}"
    )
    assert part_mpki > base_mpki
    assert part_mpki > tc_mpki
