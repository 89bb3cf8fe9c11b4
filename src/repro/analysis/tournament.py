"""The attack tournament: every attack vs. every defense, scored statistically.

The repo's attacks each ship a demo entry point that answers "did this
run leak?" with a per-attack threshold.  The tournament replaces that
with the evaluation CacheBar popularized and the paper's security claim
actually needs: run each attack twice — once with the victim performing
its secret-dependent activity (the *positive* arm) and once with the
victim scheduled but inactive (the *negative* arm) — and score how well
the attacker's probe-latency distribution distinguishes the two
(:mod:`repro.security.stats`: folded ROC/AUC with a bootstrap confidence
interval, plus mutual information in bits per probe).

A *cell* is one ``(attack, defense, engine)`` triple; the full matrix is
every attack module × every defense of :data:`DEFENSES` (or of any
other registered defenses named, :mod:`repro.defenses`) × {object,
fast}.  With ``overhead_instructions`` set, one *overhead cell* per
(defense, engine) joins them: the same SPEC pair run under the defense
and under the control, whose simulated slowdown answers what a defense
costs for what it blocks (Section VIII's argument; ``repro tournament``
always runs them and renders both halves as one matrix).  Cells run
as :class:`~repro.robustness.supervisor.SweepJob`\\ s under the supervised
executor, so a hung or crashing attack is killed, retried, and at
worst quarantined without taking the tournament down, and the
checkpoint/``--resume`` path makes an interrupted tournament cheap to
finish.  The scorecard (``SECURITY.json``, both kinds of cell) and the
committed baseline (``benchmarks/security/BASELINE.json``, leakage cells
only) are crash-safe safeio documents.

Because probe latencies are *simulated* cycle counts, every score is a
pure function of (config, seeds, bootstrap seed) — identical on any
host, as is every field of an overhead cell.  That is what lets CI
enforce the security gate strictly, where the perf gate must stay
warn-only on noisy runners: a separation change is a code change, never
runner weather.

Gate semantics (:func:`compare_to_security_baseline`):

* **defense regression** — a defense-on cell whose AUC-separation CI
  *lower* bound rises more than ``tolerance`` above the baseline's
  recorded separation: the defense got confidently more distinguishable;
* **sanity direction** — a defense-off cell that the baseline records as
  leaking whose CI *upper* bound falls below the leak cutoff: the attack
  stopped working without any defense, i.e. the harness (or simulator)
  broke and the defended numbers are no longer evidence of anything.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.common.config import SimConfig, scaled_experiment_config
from repro.common.errors import ConfigError
from repro.defenses import defense_names, is_control_defense
from repro.obs.manifest import machine_metadata
from repro.robustness import safeio
from repro.robustness.resilience import Checkpoint, SweepOutcome
from repro.robustness.supervisor import (
    SupervisedSweepExecutor,
    SweepJob,
    derive_job_seed,
)
from repro.security.stats import LEAK_AUC_CUTOFF, score_populations

SECURITY_SCHEMA = 1
#: defense-on separation may rise this far above the baseline before the
#: gate calls it a regression (absolute AUC points, compared against the
#: CI lower bound so bootstrap wobble cannot trip it)
DEFAULT_TOLERANCE = 0.05
#: deterministic root for per-cell bootstrap seeds
BOOT_SEED_ROOT = 0x51A7
#: wall-clock seconds the supervisor gives one cell before killing it
CELL_DEADLINE_S = 120.0
ENGINES = ("object", "fast")


#: the gated defense axis: the default of every driver here and of the
#: CLI, and exactly the defenses of the committed security baseline.
#: Any other registered defense (``ftm``, ``partition_flush``) is scored
#: by naming it in ``defenses=``.
DEFENSES = ("timecache", "baseline", "selective_flush", "copy_on_access")
#: the SPEC pair an overhead cell times (same-benchmark pair keeps the
#: contention story simple: two tenants fighting over one working set)
OVERHEAD_BENCH = "wrf"

#: a collector returns (negative-arm latencies, positive-arm latencies)
Collector = Callable[[SimConfig, int, bool], Tuple[List[int], List[int]]]


# --------------------------------------------------------------------------
# per-attack collectors
#
# Each runs the attack's two arms under one config and returns the raw
# probe-latency populations.  The positive arm is the victim doing its
# secret-dependent work; the negative arm keeps the victim scheduled
# (same contention, same context switches) but inactive, so the only
# difference between the populations is the secret-dependent activity
# itself.  ``quick`` trades sample count for wall-clock; the bootstrap
# interval keeps quick verdicts honest about their extra uncertainty.
# --------------------------------------------------------------------------


def _collect_flush_reload(
    config: SimConfig, seed: int, quick: bool
) -> Tuple[List[int], List[int]]:
    from repro.attacks.flush_reload import run_microbenchmark_attack

    lines = 32 if quick else 64
    kwargs = dict(shared_lines=lines, sleep_cycles=60_000)
    pos = run_microbenchmark_attack(
        config, victim_repetitions=2, **kwargs
    ).latencies
    neg = run_microbenchmark_attack(
        config, victim_repetitions=0, **kwargs
    ).latencies
    return neg, pos


def _collect_prime_probe(
    config: SimConfig, seed: int, quick: bool
) -> Tuple[List[int], List[int]]:
    from repro.attacks.prime_probe import run_prime_probe

    rounds = 4 if quick else 8
    pos = run_prime_probe(config, victim_active=True, rounds=rounds).latencies
    neg = run_prime_probe(config, victim_active=False, rounds=rounds).latencies
    return neg, pos


def _collect_flush_flush(
    config: SimConfig, seed: int, quick: bool
) -> Tuple[List[int], List[int]]:
    from repro.attacks.flush_flush import run_flush_flush

    rounds = 8 if quick else 16
    pos = run_flush_flush(config, victim_touches=True, rounds=rounds).latencies
    neg = run_flush_flush(config, victim_touches=False, rounds=rounds).latencies
    return neg, pos


def _collect_evict_time(
    config: SimConfig, seed: int, quick: bool
) -> Tuple[List[int], List[int]]:
    from repro.attacks.evict_time import run_evict_time

    # evict+time measures the *victim's* round duration.  Each run
    # interleaves flushed and clean rounds and concatenates the two
    # lists (flushed first); the flushed rounds are where the secret
    # shows, so the game compares the flushed half of a victim that
    # uses the line against the flushed half of one that does not.
    rounds = 6 if quick else 10
    pos_out = run_evict_time(config, victim_uses_line=True, rounds=rounds)
    neg_out = run_evict_time(config, victim_uses_line=False, rounds=rounds)
    return neg_out.latencies[:rounds], pos_out.latencies[:rounds]


def _collect_evict_reload(
    config: SimConfig, seed: int, quick: bool
) -> Tuple[List[int], List[int]]:
    from repro.attacks.evict_reload import run_evict_reload

    # Same victim both arms (it always touches line 5); the arms differ
    # in what the attacker monitors — the secret line vs. a line the
    # victim never touches — mirroring how a real spy localizes secret
    # accesses by comparing monitored addresses.
    rounds = 4 if quick else 8
    pos = run_evict_reload(
        config, secret_indices=(5,), rounds=rounds, monitored_line=5
    ).latencies
    neg = run_evict_reload(
        config, secret_indices=(5,), rounds=rounds, monitored_line=9
    ).latencies
    return neg, pos


def _collect_lru(
    config: SimConfig, seed: int, quick: bool
) -> Tuple[List[int], List[int]]:
    from repro.attacks.lru_attack import run_lru_attack

    rounds = 6 if quick else 10
    pos = run_lru_attack(config, victim_touches=True, rounds=rounds).latencies
    neg = run_lru_attack(config, victim_touches=False, rounds=rounds).latencies
    return neg, pos


def _collect_coherence(
    config: SimConfig, seed: int, quick: bool
) -> Tuple[List[int], List[int]]:
    from repro.attacks.coherence_attack import run_invalidate_transfer

    rounds = 6 if quick else 10
    pos = run_invalidate_transfer(
        config, victim_touches=True, rounds=rounds
    ).latencies
    neg = run_invalidate_transfer(
        config, victim_touches=False, rounds=rounds
    ).latencies
    return neg, pos


def _collect_smt(
    config: SimConfig, seed: int, quick: bool
) -> Tuple[List[int], List[int]]:
    from repro.attacks.smt import run_smt_flush_reload

    rounds = 2 if quick else 4
    kwargs = dict(shared_lines=16, rounds=rounds)
    pos = run_smt_flush_reload(config, victim_active=True, **kwargs).latencies
    neg = run_smt_flush_reload(config, victim_active=False, **kwargs).latencies
    return neg, pos


def _collect_spectre(
    config: SimConfig, seed: int, quick: bool
) -> Tuple[List[int], List[int]]:
    from repro.attacks.spectre import PROBE_LINES, run_spectre_covert_channel

    # One run is its own game: the gadget touches exactly one of 256
    # probe lines, so the secret line's reloads are the positive
    # population and the other 255 lines' are the negative one.
    secret = 0x5A
    rounds = 3 if quick else 5
    result = run_spectre_covert_channel(
        config, secret=secret, rounds=rounds, wait_cycles=15_000
    )
    pos = [
        lat
        for i, lat in enumerate(result.latencies)
        if i % PROBE_LINES == secret
    ]
    neg = [
        lat
        for i, lat in enumerate(result.latencies)
        if i % PROBE_LINES != secret
    ]
    return neg, pos


def _collect_keystroke(
    config: SimConfig, seed: int, quick: bool
) -> Tuple[List[int], List[int]]:
    from repro.attacks.keystroke import run_keystroke_attack

    # The poll stream labels itself: a poll is a positive observation
    # when it is the first one able to complete after a true key press —
    # the attacker reflushes each round, so only that poll can observe
    # the handler fetch; everything else samples the idle distribution.
    presses = 6 if quick else 10
    poll_period = 2_000
    result = run_keystroke_attack(
        config, presses=presses, poll_period=poll_period, seed=seed
    )
    window = poll_period + 600  # one poll round plus the handler burst
    pos: List[int] = []
    neg: List[int] = []
    for t, lat in result.probe_log:
        near_press = any(
            0 <= t - press <= window for press in result.true_press_times
        )
        (pos if near_press else neg).append(lat)
    return neg, pos


def _collect_rsa(
    config: SimConfig, seed: int, quick: bool
) -> Tuple[List[int], List[int]]:
    from repro.attacks.rsa import generate_key, run_rsa_attack

    key = generate_key(seed=seed or 1, prime_bits=12 if quick else 14)
    kwargs = dict(
        key=key,
        ifetches_per_call=8,
        work_per_call=1_200,
        max_steps=10_000_000,
    )
    pos = run_rsa_attack(config, victim_signs=True, **kwargs).latencies
    neg = run_rsa_attack(config, victim_signs=False, **kwargs).latencies
    return neg, pos


# --------------------------------------------------------------------------
# the registry
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AttackSpec:
    """One attack module's entry in the tournament.

    ``cores`` and ``smt`` shape the machine the cell runs on (coherence
    and the cross-core channels need two hardware contexts; the SMT
    channel needs two hyperthreads on one core).
    """

    name: str
    collect: Collector
    cores: int = 1
    smt: bool = False
    #: the attack times the *victim's own* activity rather than probing a
    #: shared line, so per-line first-access defenses cannot close it —
    #: a known boundary recorded on the baseline cell, not a regression.
    self_timing: bool = False


#: every attack module in src/repro/attacks/, in scorecard order
ATTACKS: Dict[str, AttackSpec] = {
    spec.name: spec
    for spec in (
        AttackSpec("flush_reload", _collect_flush_reload),
        AttackSpec("prime_probe", _collect_prime_probe),
        AttackSpec("flush_flush", _collect_flush_flush),
        AttackSpec("evict_time", _collect_evict_time, self_timing=True),
        AttackSpec("evict_reload", _collect_evict_reload),
        AttackSpec("lru", _collect_lru),
        AttackSpec("coherence", _collect_coherence, cores=2),
        AttackSpec("smt", _collect_smt, smt=True),
        AttackSpec("spectre", _collect_spectre, cores=2),
        AttackSpec("keystroke", _collect_keystroke, cores=2),
        AttackSpec("rsa", _collect_rsa, cores=2),
    )
}


def cell_label(attack: str, defense: str, engine: str) -> str:
    return f"{attack}|{defense}|{engine}"


def cell_config(attack: str, defense: str, engine: str) -> SimConfig:
    """The scaled-down machine one cell runs on.

    Small caches and a short quantum keep a cell in the milliseconds
    while preserving the reuse behavior the channels ride on; the
    ``defense`` arm is applied by the registered plugin's
    :meth:`~repro.defenses.base.Defense.configure` transform.
    """
    spec = ATTACKS[attack]
    config = scaled_experiment_config(
        num_cores=spec.cores,
        llc_kib=32,
        quantum_cycles=60_000,
        engine=engine,
    )
    if spec.smt:
        config = dataclasses.replace(
            config,
            hierarchy=dataclasses.replace(
                config.hierarchy, threads_per_core=2
            ),
        )
        config.validate()
    return config.with_defense(defense)


def run_tournament_cell(
    attack: str,
    defense: str,
    engine: str,
    seeds: Sequence[int],
    quick: bool = False,
    n_boot: int = 500,
) -> Dict:
    """Worker body for one cell: collect both arms, score them.

    Module-level and argument-picklable so the supervised executor can
    run cells in worker processes.  Latency populations are pooled
    across ``seeds``; the bootstrap seed derives from the cell label so
    the score is reproducible regardless of which worker ran the cell.
    """
    spec = ATTACKS[attack]
    neg: List[int] = []
    pos: List[int] = []
    for seed in seeds:
        config = cell_config(attack, defense, engine)
        seed_neg, seed_pos = spec.collect(config, seed, quick)
        neg.extend(seed_neg)
        pos.extend(seed_pos)
    label = cell_label(attack, defense, engine)
    score = score_populations(
        neg, pos, n_boot=n_boot, seed=derive_job_seed(BOOT_SEED_ROOT, label)
    )
    return {
        "attack": attack,
        "defense": defense,
        "engine": engine,
        "label": label,
        "seeds": list(seeds),
        **score,
    }


def overhead_label(defense: str, engine: str) -> str:
    return f"overhead|{defense}|{engine}"


def _is_overhead(label: str) -> bool:
    return label.startswith("overhead|")


def run_overhead_cell(
    defense: str,
    engine: str,
    instructions: int,
    seed: int,
    bench: str = OVERHEAD_BENCH,
    llc_kib: int = 32,
) -> Dict:
    """Worker body for one overhead cell (module-level, picklable).

    The ``bench`` same-benchmark SPEC pair under ``defense`` against the
    control, on one core with ``llc_kib`` of LLC: one
    :func:`~repro.analysis.experiment.run_spec_pair_experiment`, whose
    slowdown and both runs' LLC MPKI the cell reports.
    """
    from repro.analysis.experiment import run_spec_pair_experiment

    config = scaled_experiment_config(
        num_cores=1, llc_kib=llc_kib, quantum_cycles=60_000, engine=engine
    ).with_defense(defense)
    result = run_spec_pair_experiment(config, bench, bench, instructions, seed)
    run, control = result.timecache, result.baseline
    return {
        "kind": "overhead",
        "defense": defense,
        "engine": engine,
        "label": overhead_label(defense, engine),
        "sim_cycles": run.cycles,
        "control_cycles": control.cycles,
        "slowdown": result.normalized_time,
        "llc_mpki": run.llc_mpki,
        "control_llc_mpki": control.llc_mpki,
        "instructions": instructions,
    }


# --------------------------------------------------------------------------
# the tournament driver
# --------------------------------------------------------------------------


@dataclass
class TournamentOutcome:
    """Scored cells keyed by label, plus what could not be scored."""

    cells: Dict[str, Dict]
    sweep: SweepOutcome
    labels: List[str]

    @property
    def complete(self) -> bool:
        return not self.sweep.failures


def tournament_jobs(
    attacks: Optional[Sequence[str]] = None,
    engines: Sequence[str] = ENGINES,
    defenses: Sequence[str] = DEFENSES,
    seeds: Sequence[int] = (7,),
    quick: bool = False,
    n_boot: int = 500,
    overhead_instructions: Optional[int] = None,
) -> List[SweepJob]:
    """The cell matrix as supervised sweep jobs, in scorecard order:
    the leakage cells, then — with ``overhead_instructions`` set — one
    overhead cell per (defense, engine) at that many instructions per
    process, seeded with the first seed."""
    names = list(ATTACKS) if attacks is None else list(attacks)
    unknown = [n for n in names if n not in ATTACKS]
    if unknown:
        raise ConfigError(
            f"unknown attack(s) {unknown}; known: {sorted(ATTACKS)}"
        )
    registered = defense_names()
    unknown = [d for d in defenses if d not in registered]
    if unknown:
        raise ConfigError(
            f"unknown defense(s) {unknown}; registered: {sorted(registered)}"
        )
    jobs: List[SweepJob] = []
    for name in names:
        for defense in defenses:
            for engine in engines:
                label = cell_label(name, defense, engine)
                jobs.append(
                    SweepJob(
                        label=label,
                        fn=run_tournament_cell,
                        args=(name, defense, engine, tuple(seeds)),
                        kwargs={"quick": quick, "n_boot": n_boot},
                    )
                )
    if overhead_instructions is not None:
        seed = seeds[0] if seeds else 7
        for defense in defenses:
            for engine in engines:
                jobs.append(
                    SweepJob(
                        label=overhead_label(defense, engine),
                        fn=run_overhead_cell,
                        args=(defense, engine, overhead_instructions, seed),
                    )
                )
    return jobs


def run_tournament(
    attacks: Optional[Sequence[str]] = None,
    engines: Sequence[str] = ENGINES,
    defenses: Sequence[str] = DEFENSES,
    seeds: Sequence[int] = (7,),
    quick: bool = False,
    jobs: Optional[int] = None,
    n_boot: int = 500,
    overhead_instructions: Optional[int] = None,
    checkpoint_path: Optional[Union[str, Path]] = None,
    on_event: Optional[Callable[[str, str], None]] = None,
    obs_dir: Optional[Union[str, Path]] = None,
) -> TournamentOutcome:
    """Run the cell matrix under the supervised executor.

    A checkpoint path makes the run resumable (cells completed with the
    same arguments are loaded, not re-run) and gives each poisoned cell
    a standalone failure record beside it.  Cell results are plain
    dicts, so the checkpoint keeps them as they are.
    """
    sweep_jobs = tournament_jobs(
        attacks,
        engines=engines,
        defenses=defenses,
        seeds=seeds,
        quick=quick,
        n_boot=n_boot,
        overhead_instructions=overhead_instructions,
    )
    executor = SupervisedSweepExecutor(
        jobs,
        checkpoint=None if checkpoint_path is None else Checkpoint(checkpoint_path),
        deadline_s=CELL_DEADLINE_S,
        on_event=on_event,
        obs_dir=obs_dir,
    )
    outcome = executor.run(sweep_jobs)
    labels = [job.label for job in sweep_jobs]
    cells = {
        label: outcome.results[label]
        for label in labels
        if label in outcome.results
    }
    return TournamentOutcome(cells=cells, sweep=outcome, labels=labels)


# --------------------------------------------------------------------------
# scorecard + baseline artifacts
# --------------------------------------------------------------------------


def scorecard_payload(
    outcome: TournamentOutcome, params: Optional[Mapping] = None
) -> Dict:
    """The ``SECURITY.json`` document: every scored cell (leakage and
    overhead) plus the gaps."""
    return {
        "schema": SECURITY_SCHEMA,
        "kind": "security_scorecard",
        "meta": machine_metadata(),
        "params": dict(params or {}),
        "cells": {label: dict(cell) for label, cell in outcome.cells.items()},
        "gaps": [record.label for record in outcome.sweep.failures],
    }


def write_scorecard(
    outcome: TournamentOutcome,
    path: Union[str, Path],
    params: Optional[Mapping] = None,
) -> Path:
    return safeio.write_json_atomic(
        scorecard_payload(outcome, params), Path(path)
    )


def load_scorecard(path: Union[str, Path]) -> Dict:
    return safeio.read_json_verified(
        path,
        expected_kind="security_scorecard",
        expected_schema=SECURITY_SCHEMA,
    )


def _baseline_cell(cell: Mapping) -> Dict:
    """The fields a committed baseline needs to anchor the gate.

    A ``known_boundary`` flag marks cells where the attack self-times the
    victim (see :attr:`AttackSpec.self_timing`) under a non-control
    defense: the leak is a documented limitation of per-line first-access
    defenses, so the gate reports but never fails on those cells.
    """
    base = {
        "separation": cell["separation"],
        "ci_low": cell["ci_low"],
        "ci_high": cell["ci_high"],
        "mi_bits": cell["mi_bits"],
        "leak": cell["leak"],
    }
    spec = ATTACKS.get(cell.get("attack", ""))
    if (
        spec is not None
        and spec.self_timing
        and not is_control_defense(cell.get("defense", ""))
    ):
        base["known_boundary"] = True
    return base


def baseline_payload(
    outcome: TournamentOutcome, params: Optional[Mapping] = None
) -> Dict:
    return {
        "schema": SECURITY_SCHEMA,
        "kind": "security_baseline",
        "meta": machine_metadata(),
        "params": dict(params or {}),
        "cells": {
            label: _baseline_cell(cell)
            for label, cell in outcome.cells.items()
            if not _is_overhead(label)
        },
    }


def write_security_baseline(
    outcome: TournamentOutcome,
    path: Union[str, Path],
    params: Optional[Mapping] = None,
) -> Path:
    return safeio.write_json_atomic(
        baseline_payload(outcome, params), Path(path)
    )


def load_security_baseline(path: Union[str, Path]) -> Dict[str, Dict]:
    payload = safeio.read_json_verified(
        path,
        expected_kind="security_baseline",
        expected_schema=SECURITY_SCHEMA,
    )
    return {
        label: dict(cell)
        for label, cell in payload.get("cells", {}).items()
    }


def compare_to_security_baseline(
    cells: Mapping[str, Mapping],
    baseline: Mapping[str, Mapping],
    tolerance: float = DEFAULT_TOLERANCE,
    waived: Optional[List[str]] = None,
) -> List[str]:
    """Gate messages; empty means the gate passes.

    Leakage cells only.  Two failure directions (see module docstring):
    a defense-on cell
    (any non-control registered defense) confidently more distinguishable
    than the baseline recorded, and a control cell that stopped leaking
    when the baseline says it should.  Cells present on only one side are
    ignored, so adding an attack or a defense cannot retroactively fail
    the gate.

    Baseline cells flagged ``known_boundary`` (self-timing attacks under
    a defense that cannot close them) are exempt from the
    defense-regression direction; they are still measured and, when a
    ``waived`` list is supplied, reported there — never silently dropped.
    """
    failures: List[str] = []
    for label, cell in cells.items():
        base = baseline.get(label)
        if base is None or _is_overhead(label):
            continue
        if not is_control_defense(cell["defense"]):
            allowed = float(base["separation"]) + tolerance
            if float(cell["ci_low"]) > allowed:
                message = (
                    f"{label}: defense regression — AUC separation CI low "
                    f"{cell['ci_low']:.3f} exceeds baseline "
                    f"{base['separation']:.3f} + tolerance {tolerance:.2f}"
                )
                if base.get("known_boundary"):
                    if waived is not None:
                        waived.append(f"{message} [known boundary, waived]")
                else:
                    failures.append(message)
        elif base.get("leak"):
            if float(cell["ci_high"]) < LEAK_AUC_CUTOFF:
                failures.append(
                    f"{label}: sanity failure — undefended attack no longer "
                    f"leaks (CI high {cell['ci_high']:.3f} < leak cutoff "
                    f"{LEAK_AUC_CUTOFF:.2f}); the harness, not the defense, "
                    f"changed"
                )
    return failures


def render_scorecard(outcome: TournamentOutcome) -> str:
    """One line per leakage cell: separation [CI], MI, verdict."""
    lines = []
    for label in outcome.labels:
        if _is_overhead(label):
            continue
        cell = outcome.cells.get(label)
        if cell is None:
            lines.append(f"{label:<40} [quarantined]")
            continue
        verdict = "LEAK" if cell["leak"] else "safe"
        lines.append(
            f"{label:<40} sep {cell['separation']:.3f} "
            f"[{cell['ci_low']:.3f}, {cell['ci_high']:.3f}]  "
            f"mi {cell['mi_bits']:.3f}b  {verdict}"
        )
    return "\n".join(lines)


def render_matrix(
    outcome: TournamentOutcome,
    attacks: Sequence[str],
    defenses: Sequence[str],
    engines: Sequence[str],
) -> str:
    """Rows = defense × engine; columns = slowdown, then one AUC
    separation per attack.  ``*`` marks a leaking cell, ``^`` a leaking
    cell on an attack the defense is documented not to close (see
    :attr:`AttackSpec.self_timing`); ``—`` a cell that was not scored."""
    col = 10
    header = (
        f"{'defense':<16} {'engine':<7} {'slowdown':>9}  "
        + " ".join(f"{name[:col]:>{col}}" for name in attacks)
    )
    lines = [
        "defense matrix — overhead vs leakage "
        "(AUC separation; * leak, ^ known boundary)",
        header,
        "-" * len(header),
    ]
    for defense in defenses:
        for engine in engines:
            over = outcome.cells.get(overhead_label(defense, engine))
            slowdown = (
                f"{over['slowdown']:>9.4f}" if over else f"{'—':>9}"
            )
            row = [f"{defense:<16} {engine:<7} {slowdown} "]
            for attack in attacks:
                cell = outcome.cells.get(cell_label(attack, defense, engine))
                if cell is None:
                    row.append(f"{'—':>{col}}")
                    continue
                mark = " "
                if cell["leak"]:
                    spec = ATTACKS.get(attack)
                    boundary = (
                        spec is not None
                        and spec.self_timing
                        and not is_control_defense(defense)
                    )
                    mark = "^" if boundary else "*"
                row.append(f"{cell['separation']:>{col - 1}.3f}{mark}")
            lines.append(" ".join(row))
    return "\n".join(lines)
