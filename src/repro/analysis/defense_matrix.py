"""The ``repro compare-defenses`` matrix: overhead vs. leakage, head to head.

The tournament (:mod:`repro.analysis.tournament`) answers "does attack X
still work under defense Y?"; the bench harness answers "what does the
simulator cost?".  Neither answers the question a defense paper actually
argues about: *what do you pay for what you get*.  This module joins the
two — every attack × every registered defense (:mod:`repro.defenses`) ×
both engines for the leakage axis, plus one SPEC-pair workload per
(defense, engine) for the overhead axis — into a single artifact
(``DEFENSE_MATRIX.json``) and one rendered table.

Every cell runs as a :class:`~repro.robustness.supervisor.SweepJob` under the
supervised executor, so the matrix inherits the tournament's crash
handling: a hung defense is killed and quarantined without taking the
matrix down, and the checkpoint/``--resume`` path makes an interrupted
run cheap to finish.

Determinism contract: leakage scores and the overhead cells' simulated
cycle counts are pure functions of (config, seeds) — identical on any
host and any ``--jobs`` fan-out.  Wall-clock fields (``wall_s``,
``acc_per_s``) are runner weather, carried for context but excluded from
any equality check; the determinism smoke test pins exactly the
deterministic subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

import time

from repro.analysis.tournament import ATTACKS, ENGINES, tournament_jobs
from repro.common.config import scaled_experiment_config
from repro.defenses import defense_names, get_defense, is_control_defense
from repro.obs.manifest import machine_metadata
from repro.robustness import safeio
from repro.robustness.resilience import Checkpoint, SweepOutcome
from repro.robustness.supervisor import SupervisedSweepExecutor, SweepJob

MATRIX_SCHEMA = 1
#: the SPEC pair the overhead arm times (same-benchmark pair keeps the
#: contention story simple: two tenants fighting over one working set)
OVERHEAD_BENCH = "wrf"
#: fields of an overhead cell that are pure functions of the config —
#: the determinism smoke test compares exactly these
OVERHEAD_DETERMINISTIC_FIELDS = (
    "kind",
    "defense",
    "engine",
    "label",
    "sim_cycles",
    "control_cycles",
    "slowdown",
    "instructions",
)


def overhead_label(defense: str, engine: str) -> str:
    return f"overhead|{defense}|{engine}"


def _control_defense_name() -> str:
    """The registered control arm the overhead axis normalizes against."""
    for name in defense_names():
        if is_control_defense(name):
            return name
    raise LookupError("no control defense registered")


def run_overhead_cell(
    defense: str, engine: str, instructions: int, seed: int
) -> Dict:
    """Worker body for one overhead cell (module-level, picklable).

    Runs the same SPEC pair under ``defense`` and under the registered
    control, on identical geometry, and reports the simulated slowdown
    (deterministic) plus this run's wall throughput (weather).
    """
    from repro.analysis.comparison import _run_workload

    def build(name: str):
        base = scaled_experiment_config(
            num_cores=1,
            llc_kib=32,
            quantum_cycles=60_000,
            seed=seed,
            engine=engine,
        )
        config = get_defense(name).configure(base)
        get_defense(name).check_engine(config)
        return config

    start = time.perf_counter()
    run = _run_workload(
        build(defense), OVERHEAD_BENCH, OVERHEAD_BENCH, instructions, seed
    )
    wall_s = time.perf_counter() - start
    control = _run_workload(
        build(_control_defense_name()),
        OVERHEAD_BENCH,
        OVERHEAD_BENCH,
        instructions,
        seed,
    )
    slowdown = (
        run.cycles / control.cycles if control.cycles else 1.0
    )
    return {
        "kind": "overhead",
        "defense": defense,
        "engine": engine,
        "label": overhead_label(defense, engine),
        "sim_cycles": run.cycles,
        "control_cycles": control.cycles,
        "slowdown": slowdown,
        "instructions": instructions,
        "wall_s": wall_s,
        "acc_per_s": (run.instructions / wall_s) if wall_s > 0 else 0.0,
    }


def matrix_jobs(
    attacks: Optional[Sequence[str]] = None,
    engines: Sequence[str] = ENGINES,
    defenses: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (7,),
    quick: bool = False,
    n_boot: int = 500,
    overhead_instructions: Optional[int] = None,
) -> List[SweepJob]:
    """Leakage cells (the tournament matrix) + one overhead cell per
    (defense, engine), in presentation order."""
    if defenses is None:
        defenses = defense_names()
    if overhead_instructions is None:
        overhead_instructions = 8_000 if quick else 60_000
    jobs = tournament_jobs(
        attacks,
        engines=engines,
        defenses=defenses,
        seeds=seeds,
        quick=quick,
        n_boot=n_boot,
    )
    seed = seeds[0] if seeds else 7
    for defense in defenses:
        for engine in engines:
            jobs.append(
                SweepJob(
                    label=overhead_label(defense, engine),
                    fn=run_overhead_cell,
                    args=(defense, engine, overhead_instructions, seed),
                    kwargs={},
                    provenance={"seed": seed, "engine": engine},
                )
            )
    return jobs


@dataclass
class MatrixOutcome:
    """Every scored cell keyed by label, plus what could not be scored."""

    cells: Dict[str, Dict]
    sweep: SweepOutcome
    labels: List[str]
    attacks: List[str]
    defenses: List[str]
    engines: List[str]

    @property
    def complete(self) -> bool:
        return not self.sweep.failures


def run_defense_matrix(
    attacks: Optional[Sequence[str]] = None,
    engines: Sequence[str] = ENGINES,
    defenses: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (7,),
    quick: bool = False,
    jobs: Optional[int] = None,
    n_boot: int = 500,
    overhead_instructions: Optional[int] = None,
    checkpoint_path: Optional[Union[str, Path]] = None,
    quarantine_dir: Optional[Union[str, Path]] = None,
    deadline_s: Optional[float] = 120.0,
    on_event: Optional[Callable[[str, str], None]] = None,
    obs_dir: Optional[Union[str, Path]] = None,
) -> MatrixOutcome:
    """Run the full matrix under the supervised executor.

    Cell results are plain dicts, so the checkpoint serialization is the
    identity and a ``--resume`` run loads completed cells untouched.
    """
    if defenses is None:
        defenses = defense_names()
    attack_names = list(ATTACKS) if attacks is None else list(attacks)
    sweep_jobs = matrix_jobs(
        attacks,
        engines=engines,
        defenses=defenses,
        seeds=seeds,
        quick=quick,
        n_boot=n_boot,
        overhead_instructions=overhead_instructions,
    )
    checkpoint = None
    if checkpoint_path is not None:
        checkpoint = Checkpoint(
            checkpoint_path, serialize=lambda c: c, deserialize=lambda c: c
        )
        checkpoint.load()
    executor = SupervisedSweepExecutor(
        jobs,
        checkpoint=checkpoint,
        quarantine_dir=quarantine_dir,
        deadline_s=deadline_s,
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
    return MatrixOutcome(
        cells=cells,
        sweep=outcome,
        labels=labels,
        attacks=attack_names,
        defenses=list(defenses),
        engines=list(engines),
    )


# --------------------------------------------------------------------------
# the artifact
# --------------------------------------------------------------------------


def matrix_payload(
    outcome: MatrixOutcome, params: Optional[Mapping] = None
) -> Dict:
    """The ``DEFENSE_MATRIX.json`` document."""
    return {
        "schema": MATRIX_SCHEMA,
        "kind": "defense_matrix",
        "meta": machine_metadata(),
        "params": dict(params or {}),
        "axes": {
            "attacks": outcome.attacks,
            "defenses": outcome.defenses,
            "engines": outcome.engines,
        },
        "cells": {label: dict(cell) for label, cell in outcome.cells.items()},
        "gaps": [record.label for record in outcome.sweep.failures],
    }


def write_matrix(
    outcome: MatrixOutcome,
    path: Union[str, Path],
    params: Optional[Mapping] = None,
) -> Path:
    return safeio.write_json_atomic(matrix_payload(outcome, params), Path(path))


def load_matrix(path: Union[str, Path]) -> Dict:
    return safeio.read_json_verified(
        path, expected_kind="defense_matrix", expected_schema=MATRIX_SCHEMA
    )


def render_matrix(outcome: MatrixOutcome) -> str:
    """Rows = defense × engine; columns = slowdown, then one AUC
    separation per attack.  ``*`` marks a leaking cell, ``^`` a leaking
    cell on an attack the defense is documented not to close (see
    :attr:`~repro.analysis.tournament.AttackSpec.self_timing`)."""
    col = 10
    header = (
        f"{'defense':<16} {'engine':<7} {'slowdown':>9}  "
        + " ".join(f"{name[:col]:>{col}}" for name in outcome.attacks)
    )
    lines = [
        "defense matrix — overhead vs leakage "
        "(AUC separation; * leak, ^ known boundary)",
        header,
        "-" * len(header),
    ]
    for defense in outcome.defenses:
        for engine in outcome.engines:
            over = outcome.cells.get(overhead_label(defense, engine))
            slowdown = (
                f"{over['slowdown']:>9.4f}" if over else f"{'—':>9}"
            )
            row = [f"{defense:<16} {engine:<7} {slowdown} "]
            for attack in outcome.attacks:
                cell = outcome.cells.get(f"{attack}|{defense}|{engine}")
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
