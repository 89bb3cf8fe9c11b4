"""Cache side-channel attacks from the paper, as simulated programs.

Reuse attacks on shared software (the paper's target):

* :mod:`repro.attacks.flush_reload` — flush+reload, including the
  Section VI-A1 microbenchmark (parent/child over a 256-line shared
  array);
* :mod:`repro.attacks.evict_reload` — the clflush-free variant using an
  eviction set;
* :mod:`repro.attacks.rsa` — the classic GnuPG RSA key extraction via
  flush+reload on the square/multiply/reduce functions (Section VI-A2).

Other attacks discussed in Section VII:

* :mod:`repro.attacks.flush_flush` — timing ``clflush`` itself;
* :mod:`repro.attacks.evict_time` — evicting a shared line and timing
  the victim;
* :mod:`repro.attacks.lru_attack` — leaking through LRU replacement
  state;
* :mod:`repro.attacks.coherence_attack` — invalidate+transfer across
  cores;
* :mod:`repro.attacks.prime_probe` — the contention attack TimeCache
  explicitly does *not* target (randomizing caches do), kept here to
  demonstrate the threat-model boundary.

Every two-party attack is staged by
:class:`~repro.attacks.base.SharedArrayScenario`: it builds the machine
(kernel, shared segment, attacker and victim tasks), times each probe
(``yield from SharedArrayScenario.timed(op)``), finds congruent LLC
lines for the eviction-set attacks and classifies latencies against
:func:`~repro.attacks.base.hit_threshold`.  The generic victim programs
live in :mod:`repro.attacks.victim`.
"""

from repro.attacks.base import (
    AttackOutcome,
    SharedArrayScenario,
    hit_threshold,
)
from repro.attacks.calibration import (
    CalibrationResult,
    calibrate_hit_threshold,
)
from repro.attacks.coherence_attack import run_invalidate_transfer
from repro.attacks.evict_reload import run_evict_reload
from repro.attacks.evict_time import run_evict_time
from repro.attacks.flush_flush import run_flush_flush
from repro.attacks.flush_reload import (
    run_microbenchmark_attack,
    run_spy_flush_reload,
)
from repro.attacks.keystroke import KeystrokeResult, run_keystroke_attack
from repro.attacks.lru_attack import run_lru_attack
from repro.attacks.prime_probe import run_prime_probe
from repro.attacks.rsa import RsaAttackResult, run_rsa_attack
from repro.attacks.smt import run_smt_flush_reload
from repro.attacks.spectre import SpectreResult, run_spectre_covert_channel

__all__ = [
    "AttackOutcome",
    "CalibrationResult",
    "KeystrokeResult",
    "RsaAttackResult",
    "run_keystroke_attack",
    "SharedArrayScenario",
    "calibrate_hit_threshold",
    "hit_threshold",
    "run_evict_reload",
    "run_evict_time",
    "run_flush_flush",
    "run_invalidate_transfer",
    "run_lru_attack",
    "run_microbenchmark_attack",
    "run_prime_probe",
    "run_rsa_attack",
    "run_smt_flush_reload",
    "run_spectre_covert_channel",
    "run_spy_flush_reload",
    "SpectreResult",
]
