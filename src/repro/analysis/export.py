"""Structured (JSON) export of experiment results.

Downstream users want machine-readable output, not just the paper-layout
text tables: this module serializes :class:`ExperimentResult` sweeps into plain
dict/JSON form with a stable schema, and can write a whole artifact
bundle to a directory.

Schema (version 1)::

    {
      "schema": 1,
      "kind": "spec_sweep" | "parsec_sweep" | "llc_sweep",
      "results": [ {label, normalized_time, overhead, baseline: {...},
                    timecache: {...}}, ... ]
    }
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Mapping, Sequence, Union

from repro.analysis.experiment import ExperimentResult, LevelMpki, SingleRun
from repro.robustness.resilience import SweepOutcome

SCHEMA_VERSION = 1


def run_to_dict(run: SingleRun) -> Dict:
    return {
        "cycles": run.cycles,
        "instructions": run.instructions,
        "context_switches": run.context_switches,
        "switch_bookkeeping_cycles": run.switch_bookkeeping_cycles,
        "llc_mpki": run.llc_mpki,
        "levels": {
            name: {
                "mpki": level.misses,
                "first_access_mpki": level.first_access_misses,
            }
            for name, level in run.level_mpki.items()
        },
    }


def result_to_dict(result: ExperimentResult) -> Dict:
    return {
        "label": result.label,
        "normalized_time": result.normalized_time,
        "overhead": result.overhead,
        "bookkeeping_fraction": result.bookkeeping_fraction,
        "baseline": run_to_dict(result.baseline),
        "timecache": run_to_dict(result.timecache),
    }


def run_from_dict(payload: Mapping) -> SingleRun:
    """Rebuild a :class:`SingleRun` from its serialized form.

    Inverse of :func:`run_to_dict` up to the raw ``stats`` counters,
    which are not serialized (the schema keeps only the derived
    metrics); a reconstructed run has an empty ``stats`` dict.
    """
    return SingleRun(
        cycles=int(payload["cycles"]),
        instructions=int(payload["instructions"]),
        context_switches=int(payload["context_switches"]),
        switch_bookkeeping_cycles=int(payload["switch_bookkeeping_cycles"]),
        level_mpki={
            name: LevelMpki(
                name,
                misses=float(level["mpki"]),
                first_access_misses=float(level["first_access_mpki"]),
            )
            for name, level in payload.get("levels", {}).items()
        },
    )


def result_from_dict(payload: Mapping) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult`; inverse of
    :func:`result_to_dict` (the normalized/overhead fields are derived
    properties and need no restoring)."""
    return ExperimentResult(
        label=payload["label"],
        baseline=run_from_dict(payload["baseline"]),
        timecache=run_from_dict(payload["timecache"]),
    )


def sweep_to_dict(
    results: Sequence[ExperimentResult], kind: str = "spec_sweep"
) -> Dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "results": [result_to_dict(r) for r in results],
    }


def outcome_to_dict(
    outcome: SweepOutcome,
    labels: Sequence[str],
    kind: str = "spec_sweep",
) -> Dict:
    """Serialize a resilient sweep outcome: results in ``labels`` order
    plus the failure records, the resumed labels and the stale ones
    (stored under another key, so rerun).

    The payload is a superset of :func:`sweep_to_dict`'s, so existing
    loaders keep working; because results are reassembled in label order
    the bytes are identical whether the sweep ran in-process or across
    worker processes.
    """
    payload = sweep_to_dict(outcome.ordered_results(labels), kind=kind)
    payload["failures"] = [f.to_dict() for f in outcome.failures]
    payload["resumed"] = sorted(outcome.resumed)
    payload["stale"] = sorted(outcome.stale)
    # Explicit gap markers: labels that produced no result.  A partial
    # export names what is missing instead of silently shrinking.
    payload["gaps"] = [
        label for label in labels if label not in outcome.results
    ]
    return payload


def export_outcome(
    outcome: SweepOutcome,
    labels: Sequence[str],
    path: Union[str, Path],
    kind: str = "spec_sweep",
) -> Path:
    """One-call export of a resilient sweep outcome."""
    return save_json(outcome_to_dict(outcome, labels, kind=kind), path)


def save_json(payload: Mapping, path: Union[str, Path]) -> Path:
    """Write a payload as pretty-printed JSON; returns the path.

    Writes crash-safely (atomic temp+fsync+rename, content checksum,
    rotated ``.bak``) via :mod:`repro.robustness.safeio` — every JSON
    artifact the repo publishes survives a kill mid-write.
    """
    from repro.robustness import safeio

    return safeio.write_json_atomic(payload, path)


def load_json(path: Union[str, Path]) -> Dict:
    """Load an exported payload, verifying its checksum when present.

    Schema mismatch and corruption both raise ``ValueError``
    (:class:`~repro.common.errors.CheckpointCorruptionError` is a
    subclass, so historic callers keep working).
    """
    from repro.robustness import safeio

    return safeio.read_json_verified(path, expected_schema=SCHEMA_VERSION)
