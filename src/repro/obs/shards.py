"""Cross-process observability: per-worker shards and the merged view.

A supervised sweep (``repro ... --jobs N``) fans jobs across worker
processes; each worker's wall-clock spans, counters, and kernel-phase
breakdown die with the process unless written down.  This module is the
write-down and the put-back-together:

* **shards** — a worker running under an installed
  :class:`~repro.obs.spans.ObsSession` writes one JSON document per job
  via :mod:`repro.robustness.safeio` (atomic tmp+fsync+rename, so a
  chaos kill can never leave a torn shard).  Rescheduled attempts
  overwrite the same path: the shard set always describes the *final*
  attempt of every job.
* **heartbeat** — the supervisor drops a small ``heartbeat.json`` at
  its poll cadence (throttled) so ``repro obs top`` can render an
  in-flight sweep from outside the process tree.
* **merge** — :func:`merge_shards` folds every shard into one Chrome
  trace with a process track per worker (pid 1 is the supervisor,
  workers get pid 2.. in sorted-label order — deterministic given the
  job labels), its records built by :mod:`repro.obs.perfetto`, plus an
  aggregate counters document whose totals are the key-wise sum of the
  shards (:func:`merge_counts`).

Cross-process time alignment: ``perf_counter_ns`` epochs differ per
process, so each shard records a ``(wall_anchor_ns, perf_anchor_ns)``
pair captured together at session start; the merge maps every span onto
the wall-clock axis and rebases onto the earliest anchor in the set.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.obs import perfetto
from repro.obs.spans import (
    KERNEL_PHASES,
    ObsSession,
    PhaseAccumulator,
    Span,
    SpanProfiler,
    merge_counts,
)
from repro.robustness import safeio

OBS_SHARD_SCHEMA = 1
SHARD_DIR = "shards"
HEARTBEAT_NAME = "heartbeat.json"
MERGED_TRACE_NAME = "merged_trace.json"
COUNTERS_NAME = "counters.json"

__all__ = [
    "OBS_SHARD_SCHEMA",
    "heartbeat_path",
    "load_shard",
    "merge_shards",
    "read_heartbeat",
    "shard_path",
    "write_heartbeat",
    "write_merged",
    "write_shard",
]


def shard_path(obs_dir: Union[str, Path], label: str) -> Path:
    return Path(obs_dir) / SHARD_DIR / f"shard-{safeio.file_safe(label)}.json"


def heartbeat_path(obs_dir: Union[str, Path]) -> Path:
    return Path(obs_dir) / HEARTBEAT_NAME


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def write_shard(
    session: ObsSession,
    obs_dir: Union[str, Path],
    *,
    attempt: int = 1,
    ok: bool = True,
) -> Path:
    """Persist one worker session as its job's shard (crash-safe)."""
    payload = {
        "schema": OBS_SHARD_SCHEMA,
        "kind": "obs_shard",
        "pid": os.getpid(),
        "attempt": attempt,
        "ok": ok,
        "wall_anchor_ns": session.wall_anchor_ns,
        "perf_anchor_ns": session.perf_anchor_ns,
        **session.to_payload(),
    }
    path = shard_path(obs_dir, session.label)
    safeio.write_json_atomic(payload, path)
    return path


def load_shard(path: Union[str, Path]) -> Dict:
    return safeio.read_json_verified(
        path, expected_kind="obs_shard", expected_schema=OBS_SHARD_SCHEMA
    )


def list_shards(obs_dir: Union[str, Path]) -> List[Path]:
    root = Path(obs_dir) / SHARD_DIR
    if not root.is_dir():
        return []
    return sorted(p for p in root.glob("shard-*.json"))


# ----------------------------------------------------------------------
# Supervisor side: heartbeat
# ----------------------------------------------------------------------
def write_heartbeat(
    obs_dir: Union[str, Path],
    *,
    status: str,
    done: int,
    total: int,
    failed: int,
    in_flight: List[Dict],
    quarantined: Optional[List[str]] = None,
) -> Path:
    """Drop the supervisor's live-state file (atomic; small)."""
    payload = {
        "schema": OBS_SHARD_SCHEMA,
        "kind": "obs_heartbeat",
        "status": status,
        "wall_s": time.time(),
        "done": done,
        "total": total,
        "failed": failed,
        "in_flight": in_flight,
        "quarantined": list(quarantined or []),
    }
    path = heartbeat_path(obs_dir)
    safeio.write_json_atomic(payload, path)
    return path


def read_heartbeat(obs_dir: Union[str, Path]) -> Optional[Dict]:
    path = heartbeat_path(obs_dir)
    if not path.exists():
        return None
    try:
        return safeio.read_json_verified(
            path, expected_kind="obs_heartbeat",
            expected_schema=OBS_SHARD_SCHEMA,
        )
    except Exception:
        # A reader racing the atomic rename, or a corrupt file: the top
        # view just renders "no heartbeat" rather than dying.
        return None


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
def _shard_slices(shard: Dict, pid: int, base_wall_ns: int) -> List[Dict]:
    """One shard's spans (tid 1) + synthetic kernel-phase lane (tid 2)."""
    wall = int(shard.get("wall_anchor_ns", 0))
    perf = int(shard.get("perf_anchor_ns", 0))

    def to_us(t_ns: int) -> float:
        return (wall + (t_ns - perf) - base_wall_ns) / 1000.0

    spans = [Span.from_payload(raw) for raw in shard.get("spans", [])]
    slices = [
        perfetto.complete_slice(
            pid,
            1,
            span.category,
            span.name,
            to_us(span.start_ns),
            span.duration_ns / 1000.0,
            {"path": ";".join(span.path)},
        )
        for span in spans
    ]
    # The kernel phases are accumulators, not timestamped spans; render
    # them as a back-to-back lane so their relative weights are visible
    # in the same trace.  Laid out from the first span's start (or the
    # anchor when the shard recorded no spans).
    phases = shard.get("kernel_phases", {})
    t = min((span.start_ns for span in spans), default=perf)
    for phase in KERNEL_PHASES:
        dur = int(phases.get(f"{phase}_ns", 0))
        if not dur:
            continue
        slices.append(
            perfetto.complete_slice(
                pid, 2, "kernel", f"kernel:{phase}", to_us(t), dur / 1000.0, {}
            )
        )
        t += dur
    return slices


def merge_shards(
    obs_dir: Union[str, Path],
    supervisor_spans: Optional[List[Dict]] = None,
) -> Tuple[Dict, Dict]:
    """Build the merged trace + aggregate counters from a shard dir.

    Returns ``(trace_payload, counters_payload)``.  Worker pids are
    assigned in sorted-label order starting at 2 (pid 1 is the
    supervisor track), so the merge is deterministic given the job
    labels; the real OS pid of each worker survives in the process-name
    metadata.  ``supervisor_spans`` are the supervisor's own records —
    job attempt windows — on the wall-clock axis: ``name``, ``cat``,
    ``ts`` and ``dur_ns`` in ns, and ``args``.
    """
    shards = sorted(
        (load_shard(path) for path in list_shards(obs_dir)),
        key=lambda s: str(s.get("label", "")),
    )
    supervisor_spans = supervisor_spans or []
    anchors = [int(s.get("wall_anchor_ns", 0)) for s in shards] + [
        int(s["ts"]) for s in supervisor_spans
    ]
    base_wall_ns = min(anchors) if anchors else 0

    trace: List[Dict] = [perfetto.process_name(1, "supervisor")]
    for raw in supervisor_spans:
        trace.append(
            perfetto.complete_slice(
                1,
                1,
                raw.get("cat", "sweep"),
                raw["name"],
                (int(raw["ts"]) - base_wall_ns) / 1000.0,
                int(raw.get("dur_ns", 0)) / 1000.0,
                dict(raw.get("args", {})),
            )
        )

    per_shard_counts: Dict[str, Dict[str, int]] = {}
    phase_total = PhaseAccumulator()
    for index, shard in enumerate(shards):
        pid = index + 2
        label = str(shard.get("label", f"shard{index}"))
        trace.append(
            perfetto.process_name(
                pid,
                f"worker:{label}",
                os_pid=shard.get("pid", -1),
                attempt=shard.get("attempt", 1),
            )
        )
        trace.append(perfetto.thread_name(pid, 1, "spans"))
        trace.append(perfetto.thread_name(pid, 2, "kernel-phases"))
        trace.extend(_shard_slices(shard, pid, base_wall_ns))
        per_shard_counts[label] = {
            k: int(v) for k, v in shard.get("counters", {}).items()
        }
        phase_total.load(shard.get("kernel_phases", {}))

    counters_payload = {
        "schema": OBS_SHARD_SCHEMA,
        "kind": "obs_counters",
        "shards": per_shard_counts,
        "totals": merge_counts(*per_shard_counts.values()),
        "kernel_phases": phase_total.to_payload(),
    }
    return perfetto.trace_payload(trace), counters_payload


def write_merged(
    obs_dir: Union[str, Path],
    supervisor_spans: Optional[List[Dict]] = None,
) -> Tuple[Path, Path]:
    """Merge and persist; returns (trace_path, counters_path)."""
    trace_payload, counters_payload = merge_shards(obs_dir, supervisor_spans)
    obs_dir = Path(obs_dir)
    trace_path = perfetto.write_trace(trace_payload, obs_dir / MERGED_TRACE_NAME)
    counters_path = obs_dir / COUNTERS_NAME
    safeio.write_json_atomic(counters_payload, counters_path)
    return trace_path, counters_path


def merged_folded_stacks(obs_dir: Union[str, Path]) -> Dict[str, int]:
    """Aggregate folded stacks across shards for ``repro obs flame``.

    Each shard's spans fold under a ``job:<label>`` root frame; kernel
    phases fold under ``kernel;<phase>`` (summed across shards) so one
    flamegraph answers both "which job dominated" and "which kernel
    phase dominated".
    """
    shards = [load_shard(path) for path in list_shards(obs_dir)]
    phase_total = PhaseAccumulator()
    for shard in shards:
        phase_total.load(shard.get("kernel_phases", {}))
    kernel = {
        f"kernel;{phase}": ns for phase, ns in phase_total.phase_ns().items() if ns
    }
    folded = [SpanProfiler().load(s.get("spans", [])).folded_stacks() for s in shards]
    return merge_counts(*folded, kernel)
