"""Robustness layer: fault injection, invariant checking, resilient sweeps.

Independent pieces, usable separately:

* :mod:`repro.robustness.invariants` — an :class:`InvariantChecker` that
  watches a running :class:`~repro.core.timecache.TimeCacheSystem` and
  raises on any breach of the paper's security or structural invariants;
* :mod:`repro.robustness.faults` — deterministic fault models corrupting
  the defense's trusted state (s-bits, comparator, Tc, switch
  save/restore), plus the campaign driver in
  :mod:`repro.robustness.campaign` producing a detection matrix
  (``repro faults`` on the command line);
* :mod:`repro.robustness.resilience` — failure records, sweep
  outcomes, and checkpoint/resume for long sweeps;
* :mod:`repro.robustness.safeio` — crash-safe JSON persistence (atomic
  rename, content checksums, rotated last-good backups) used by every
  durable artifact writer in the repo;
* :mod:`repro.robustness.supervisor` — the one sweep executor
  (``SupervisedSweepExecutor``): an in-process loop at ``jobs == 1``,
  heartbeat-supervised worker processes otherwise; failing jobs are
  retried with backoff, then quarantined with full provenance;
* :mod:`repro.robustness.chaos` — deterministic orchestration-level
  chaos (kill/hang/corrupt/io_error) and the ``repro chaos`` resilience
  scorecard campaign.
"""

from repro.robustness.campaign import (
    DetectionMatrix,
    InjectionOutcome,
    campaign_config,
    run_fault_campaign,
    run_single_injection,
)
from repro.robustness.faults import (
    ALL_FAULT_MODELS,
    DroppedComparatorClear,
    FaultEvent,
    FaultInjector,
    FaultModel,
    SBitCorruption,
    SwitchStateLoss,
    TcCorruption,
)
from repro.robustness.invariants import InvariantChecker
from repro.robustness.chaos import (
    CHAOS_MODELS,
    ChaosEvent,
    ChaosPlan,
    ResilienceScorecard,
    run_chaos_campaign,
)
from repro.robustness.resilience import Checkpoint, FailureRecord, SweepOutcome
from repro.robustness.supervisor import (
    SupervisedSweepExecutor,
    SupervisionReport,
    SweepJob,
    load_quarantine_record,
    write_quarantine_record,
)

__all__ = [
    "ALL_FAULT_MODELS",
    "CHAOS_MODELS",
    "ChaosEvent",
    "ChaosPlan",
    "Checkpoint",
    "DetectionMatrix",
    "DroppedComparatorClear",
    "FailureRecord",
    "FaultEvent",
    "FaultInjector",
    "FaultModel",
    "InjectionOutcome",
    "InvariantChecker",
    "ResilienceScorecard",
    "SBitCorruption",
    "SupervisedSweepExecutor",
    "SupervisionReport",
    "SweepJob",
    "SweepOutcome",
    "SwitchStateLoss",
    "TcCorruption",
    "campaign_config",
    "load_quarantine_record",
    "run_chaos_campaign",
    "run_fault_campaign",
    "run_single_injection",
    "write_quarantine_record",
]
