"""Exception hierarchy for the TimeCache reproduction.

A single root (:class:`ReproError`) lets callers catch everything the
library raises deliberately, while the subclasses keep failure categories
distinguishable in tests.
"""


class ReproError(Exception):
    """Root of all exceptions deliberately raised by :mod:`repro`."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value."""


class SimulationError(ReproError):
    """The simulator reached a state that violates its own invariants."""


class InvariantViolation(SimulationError):
    """A TimeCache security or structural invariant was observed broken.

    Raised by the robustness layer's invariant checker; carries enough
    diagnostic context (cache, slot, hardware context, task, detail) to
    localize the violating state without a debugger.
    """

    def __init__(
        self,
        detail: str,
        *,
        invariant: str = "",
        cache: str = "",
        set_idx: int = -1,
        way: int = -1,
        ctx: int = -1,
        task: object = None,
    ) -> None:
        self.invariant = invariant
        self.cache = cache
        self.set_idx = set_idx
        self.way = way
        self.ctx = ctx
        self.task = task
        where = ""
        if cache:
            where = f" [{cache} set={set_idx} way={way} ctx={ctx} task={task}]"
        super().__init__(f"{invariant or 'invariant'}: {detail}{where}")


class SimulationTimeout(ReproError):
    """A simulation exceeded its wall-clock or instruction budget."""


class SweepExecutionError(ReproError):
    """A plain (non-resilient) sweep had at least one failed job.

    Raised by :meth:`repro.robustness.supervisor.SweepExecutor.map` —
    what the plain sweeps in :mod:`repro.analysis.runner` call at any
    ``jobs`` — after every job has finished, so one bad cell cannot
    abort its siblings mid-flight; the message names the first failure.
    """


class FaultInjectionError(ReproError):
    """The fault injector itself was misused or could not inject."""


class CheckpointError(ReproError):
    """A persisted JSON artifact (checkpoint, baseline, manifest) could
    not be written or read back."""


class CheckpointCorruptionError(CheckpointError, ValueError):
    """A persisted JSON artifact failed integrity validation.

    Also a :class:`ValueError`, because pre-existing callers treat "this
    file is not what it claims to be" that way (e.g. the checkpoint
    loader's historic contract).

    Raised by :mod:`repro.robustness.safeio` when a file is truncated,
    fails its content checksum, carries an unsupported schema version,
    or is not the kind of document the caller expected — *and* no valid
    rotated backup could stand in for it.  Carries the path and the
    per-candidate reasons so an operator can see exactly what was tried.
    """

    def __init__(self, path: object, *, reasons: object = ()) -> None:
        self.path = path
        self.reasons = list(reasons)
        detail = "; ".join(str(r) for r in self.reasons) or "corrupt"
        super().__init__(f"{path}: {detail}")


class WorkerHungError(ReproError):
    """A supervised sweep worker exceeded its deadline and was killed.

    Never escapes :class:`repro.robustness.supervisor.SupervisedSweepExecutor`
    — it is the ``error_type`` recorded on the attempt so hangs are
    distinguishable from crashes in failure records and scorecards.
    """


class WorkerCrashError(ReproError):
    """A supervised sweep worker process died without delivering a result
    (killed, OOM, segfault).  Recorded, like :class:`WorkerHungError`,
    as an attempt outcome rather than raised through the sweep."""


class CalibrationError(ReproError):
    """Attacker-side calibration produced unusable latency populations.

    Raised when the measured cached and uncached populations are empty,
    degenerate, or overlap — a threshold derived from them could not
    classify hits and misses reliably, so downstream attack results
    would be meaningless rather than merely noisy.  Carries the measured
    boundary values for diagnostics.
    """

    def __init__(
        self,
        detail: str,
        *,
        cached_max: object = None,
        uncached_min: object = None,
    ) -> None:
        self.cached_max = cached_max
        self.uncached_min = uncached_min
        bounds = ""
        if cached_max is not None or uncached_min is not None:
            bounds = f" (cached_max={cached_max}, uncached_min={uncached_min})"
        super().__init__(f"{detail}{bounds}")


class LeakageStatsError(ReproError):
    """Leakage scoring was handed unusable latency populations.

    Raised by :mod:`repro.security.stats` when a distinguishability score
    (ROC/AUC, mutual information, bootstrap interval) is requested over
    an empty or one-class sample set — a number computed from such input
    would be an artifact of the harness, not a property of the channel,
    so the tournament quarantines the cell instead of recording it.
    """


class SchedulerError(ReproError):
    """An OS-layer scheduling operation was invalid (e.g. unknown process)."""


class ProgramError(ReproError):
    """A simulated program yielded an operation the CPU cannot execute."""
