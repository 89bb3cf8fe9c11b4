"""Perf benchmark harness: time the hot paths, gate regressions.

``repro bench`` times a handful of representative workloads and writes
one ``BENCH_<name>.json`` per workload (median over repeated runs plus
machine metadata), giving the repository a perf trajectory that CI can
watch.  The workloads:

* ``single_config``     — one baseline-vs-TimeCache SPEC pair experiment
  (the unit of every sweep);
* ``comparator``        — the gate-level ``compare_sram`` scan vs the
  vectorized ``fast_compare`` over the same timestamp array;
* ``hierarchy_access``  — raw access throughput through the modeled
  L1/LLC hierarchy with TimeCache enabled;
* ``hierarchy_access_traced`` — the same access trace under the
  observability layer: no tracer, a disabled tracer (the production
  default, gated at <5% overhead), and an enabled tracer streaming
  JSONL;
* ``sweep_parallel``    — a small SPEC pair sweep at ``--jobs 1`` vs
  ``--jobs N``, recording the worker-process speedup.

The engine-shaped workloads (``single_config``, ``hierarchy_access``,
``hierarchy_access_traced``, ``sweep_parallel``) accept
``engine="object"|"fast"`` and, under the
fast engine, record under a ``_fast``-suffixed name so a baseline file
holds one entry per engine.  A workload can also *decline* to produce a
number — ``sweep_parallel`` on a single-CPU machine reports
``skipped: insufficient_cpus`` instead of a meaningless median — and
skipped entries are ignored on both sides of the baseline comparison.

Comparison mode (``--baseline PATH``) loads a committed baseline (see
``benchmarks/perf/BASELINE.json``) and *fails* — returns regressions —
when any shared workload's median exceeds the baseline by more than
``threshold`` (default 20%).  Hosted CI runners have noisy, alien
hardware, so the perf-smoke job runs the comparison warn-only; the
comparison logic itself is strict and unit-tested.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.obs.manifest import machine_metadata

BENCH_SCHEMA = 1
#: relative slowdown vs baseline that counts as a regression
DEFAULT_THRESHOLD = 0.20
#: plain/disabled pairs ``hierarchy_access_traced`` times; its
#: disabled-tracer overhead is the median of their per-pair ratios
DISABLED_OVERHEAD_PAIRS = 20
#: workloads that take an ``engine=`` keyword and get a ``_fast`` suffix
ENGINE_AWARE = (
    "single_config",
    "hierarchy_access",
    "hierarchy_access_traced",
    "sweep_parallel",
)


@dataclass
class BenchResult:
    """Timing for one benchmark workload.

    ``skipped`` holds a machine-readable reason when the workload could
    not produce a meaningful number on this host (``runs`` is empty and
    ``median_s`` reads 0.0); baseline comparison ignores such entries.
    """

    name: str
    runs: List[float]
    extra: Dict[str, float] = field(default_factory=dict)
    skipped: Optional[str] = None

    @property
    def median_s(self) -> float:
        return statistics.median(self.runs) if self.runs else 0.0

    def to_dict(self, meta: Optional[Mapping] = None) -> Dict:
        payload: Dict = {
            "schema": BENCH_SCHEMA,
            "kind": "bench_result",
            "name": self.name,
            "median_s": self.median_s,
            "runs": list(self.runs),
            "extra": dict(self.extra),
        }
        if self.skipped:
            payload["skipped"] = self.skipped
        if meta is not None:
            payload["meta"] = dict(meta)
        return payload


def _time_runs(fn: Callable[[], object], repeats: int) -> List[float]:
    runs: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - start)
    return runs


# --------------------------------------------------------------------------
# workloads


def bench_single_config(quick: bool = False, engine: str = "object") -> BenchResult:
    """One SPEC pair experiment — the unit of work every sweep repeats."""
    from repro.analysis.experiment import run_spec_pair_experiment
    from repro.common.config import scaled_experiment_config

    instructions = 4_000 if quick else 40_000
    config = scaled_experiment_config(num_cores=1, llc_kib=32, engine=engine)
    runs = _time_runs(
        lambda: run_spec_pair_experiment(
            config, "wrf", "wrf", instructions=instructions, seed=0xBEEF
        ),
        repeats=3 if quick else 5,
    )
    return BenchResult(
        name="single_config",
        runs=runs,
        extra={"instructions": float(instructions)},
    )


def bench_comparator(quick: bool = False) -> BenchResult:
    """Gate-level bit-serial scan vs the vectorized functional path.

    The headline number (``runs``) times ``fast_compare`` — the path the
    experiments take on every context switch; ``extra`` records the
    gate-level ``compare_sram`` median over the same array and the
    resulting speedup.
    """
    from repro.core.comparator import BitSerialComparator
    from repro.core.timestamp import TimestampDomain

    words = 4_096 if quick else 16_384
    domain = TimestampDomain(bits=16)
    comparator = BitSerialComparator(domain)
    rng = np.random.default_rng(0xC0FFEE)
    tc_values = rng.integers(0, domain.modulus, size=words, dtype=np.int64)
    ts = int(domain.modulus // 2)
    repeats = 5 if quick else 9

    fast_runs = _time_runs(lambda: comparator.fast_compare(tc_values, ts), repeats)
    sram_runs = _time_runs(
        lambda: comparator.compare_values(tc_values, ts), repeats
    )
    fast_median = statistics.median(fast_runs)
    sram_median = statistics.median(sram_runs)
    return BenchResult(
        name="comparator",
        runs=fast_runs,
        extra={
            "words": float(words),
            "sram_median_s": sram_median,
            "fast_median_s": fast_median,
            "fast_speedup": sram_median / fast_median if fast_median else 0.0,
        },
    )


def bench_hierarchy_access(
    quick: bool = False, engine: str = "object"
) -> BenchResult:
    """Raw access throughput through the modeled hierarchy."""
    import dataclasses

    from repro.common.rng import DeterministicRng
    from repro.core.timecache import TimeCacheSystem
    from repro.memsys.hierarchy import AccessKind
    from repro.robustness.campaign import campaign_config

    accesses = 20_000 if quick else 100_000
    config = campaign_config()
    if engine != config.hierarchy.engine:
        config = dataclasses.replace(
            config,
            hierarchy=dataclasses.replace(config.hierarchy, engine=engine),
        )
    system = TimeCacheSystem(config)
    line_bytes = system.config.hierarchy.line_bytes
    rng = DeterministicRng(7)
    pool = [0x10000 + i * line_bytes for i in range(256)]
    addrs = [rng.choice(pool) for _ in range(accesses)]
    # Drive the hierarchy entry point directly so the measurement is the
    # per-access engine path, not the facade's clock bookkeeping.
    access = system.hierarchy.access
    load = AccessKind.LOAD

    def drive() -> None:
        now = 0
        for addr in addrs:
            latency = access(0, addr, load, now).latency
            now += latency if latency > 0 else 1

    runs = _time_runs(drive, repeats=3 if quick else 5)
    return BenchResult(
        name="hierarchy_access",
        runs=runs,
        extra={
            "accesses": float(accesses),
            "accesses_per_s": accesses / statistics.median(runs),
        },
    )


def bench_hierarchy_access_traced(
    quick: bool = False, engine: str = "object"
) -> BenchResult:
    """Tracing overhead on the raw-access hot path.

    Drives the ``hierarchy_access`` trace through three systems: no
    tracer at all, a *disabled* tracer (the production default — it
    attaches nothing, so the hot path must be untouched), and an
    *enabled* tracer streaming JSONL to a temp file.  The plain and
    disabled arms run in back-to-back pairs, alternating which goes
    first, so a change of host speed lands inside one pair rather than
    on one arm; the enabled arm runs in the first rounds alongside
    them.  ``runs`` (the baseline-gated number) times the disabled arm;
    ``extra`` records the three medians and the overhead ratios —
    ``overhead_disabled``, the median of the per-pair disabled/plain
    ratios less one, is locked under 5% by
    ``tests/obs/test_bench_traced.py`` and CI.
    """
    import dataclasses
    import tempfile

    from repro.common.rng import DeterministicRng
    from repro.core.timecache import TimeCacheSystem
    from repro.memsys.hierarchy import AccessKind
    from repro.obs.sinks import JsonlSink
    from repro.obs.tracer import Tracer
    from repro.robustness.campaign import campaign_config

    accesses = 20_000 if quick else 100_000
    config = campaign_config()
    if engine != config.hierarchy.engine:
        config = dataclasses.replace(
            config,
            hierarchy=dataclasses.replace(config.hierarchy, engine=engine),
        )

    def build_drive(tracer: Optional[Tracer] = None) -> Callable[[], None]:
        system = TimeCacheSystem(config)
        if tracer is not None:
            tracer.attach(system)
        line_bytes = system.config.hierarchy.line_bytes
        rng = DeterministicRng(7)
        pool = [0x10000 + i * line_bytes for i in range(256)]
        addrs = [rng.choice(pool) for _ in range(accesses)]
        access = system.hierarchy.access
        load = AccessKind.LOAD

        def drive() -> None:
            now = 0
            for addr in addrs:
                latency = access(0, addr, load, now).latency
                now += latency if latency > 0 else 1

        return drive

    def timed(drive: Callable[[], None], runs: List[float]) -> None:
        start = time.perf_counter()
        drive()
        runs.append(time.perf_counter() - start)

    enabled_repeats = 3 if quick else 5
    plain_runs: List[float] = []
    disabled_runs: List[float] = []
    enabled_runs: List[float] = []
    with tempfile.TemporaryDirectory() as tmp:
        sink = JsonlSink(Path(tmp) / "bench_trace.jsonl")
        enabled_tracer = Tracer(sink)
        plain = build_drive()
        disabled = build_drive(Tracer(enabled=False))
        enabled = build_drive(enabled_tracer)
        for drive in (plain, disabled, enabled):  # warm-up: fills + first misses
            drive()
        for round_ in range(DISABLED_OVERHEAD_PAIRS):
            pair = [(plain, plain_runs), (disabled, disabled_runs)]
            if round_ % 2:
                pair.reverse()
            for drive, runs in pair:
                timed(drive, runs)
            if round_ < enabled_repeats:
                timed(enabled, enabled_runs)
        events = float(sink.emitted)
        enabled_tracer.close()
    plain_median = statistics.median(plain_runs)
    pair_ratios = [d / p for p, d in zip(plain_runs, disabled_runs)]
    return BenchResult(
        name="hierarchy_access_traced",
        runs=disabled_runs,
        extra={
            "accesses": float(accesses),
            "pairs": float(DISABLED_OVERHEAD_PAIRS),
            "plain_median_s": plain_median,
            "disabled_median_s": statistics.median(disabled_runs),
            "enabled_median_s": statistics.median(enabled_runs),
            "overhead_disabled": statistics.median(pair_ratios) - 1.0,
            "overhead_enabled": statistics.median(enabled_runs) / plain_median - 1.0,
            "events": events,
        },
    )


def bench_sweep_parallel(
    quick: bool = False, jobs: Optional[int] = None, engine: str = "object"
) -> BenchResult:
    """A small SPEC pair sweep in-process vs across worker processes.

    ``runs`` times the parallel sweep; ``extra`` records the serial
    median and the speedup.  On a single-CPU machine (or with one
    worker) worker processes cannot beat the in-process loop, so the
    bench reports ``skipped: insufficient_cpus`` rather than a
    meaningless speedup.
    """
    from repro.analysis.runner import spec_pair_sweep
    from repro.robustness.supervisor import resolve_jobs

    workers = resolve_jobs(jobs)
    cpus = os.cpu_count() or 1
    if cpus < 2 or workers < 2:
        return BenchResult(
            name="sweep_parallel",
            runs=[],
            extra={"cpus": float(cpus), "jobs": float(workers)},
            skipped="insufficient_cpus",
        )
    pairs = [("wrf", "wrf"), ("milc", "milc"), ("perlbench", "perlbench"),
             ("gobmk", "gobmk")]
    instructions = 8_000 if quick else 40_000
    repeats = 1 if quick else 3

    serial_runs = _time_runs(
        lambda: spec_pair_sweep(
            pairs=pairs, instructions=instructions, jobs=1, engine=engine
        ),
        repeats,
    )
    parallel_runs = _time_runs(
        lambda: spec_pair_sweep(
            pairs=pairs, instructions=instructions, jobs=workers, engine=engine
        ),
        repeats,
    )
    serial_median = statistics.median(serial_runs)
    parallel_median = statistics.median(parallel_runs)
    return BenchResult(
        name="sweep_parallel",
        runs=parallel_runs,
        extra={
            "pairs": float(len(pairs)),
            "instructions": float(instructions),
            "jobs": float(workers),
            "serial_median_s": serial_median,
            "parallel_median_s": parallel_median,
            "speedup": serial_median / parallel_median if parallel_median else 0.0,
        },
    )


#: name -> workload; iteration order is execution order
BENCHMARKS: Dict[str, Callable[..., BenchResult]] = {
    "single_config": bench_single_config,
    "comparator": bench_comparator,
    "hierarchy_access": bench_hierarchy_access,
    "hierarchy_access_traced": bench_hierarchy_access_traced,
    "sweep_parallel": bench_sweep_parallel,
}


def _validate_names(names: Optional[Sequence[str]]) -> List[str]:
    selected = list(BENCHMARKS) if not names else list(names)
    unknown = [n for n in selected if n not in BENCHMARKS]
    if unknown:
        raise ValueError(
            f"unknown benchmark(s) {unknown}; known: {sorted(BENCHMARKS)}"
        )
    return selected


def _bench_kwargs(name: str, quick: bool, jobs: Optional[int], engine: str) -> Dict:
    kwargs: Dict = {"quick": quick}
    if name == "sweep_parallel":
        kwargs["jobs"] = jobs
    if name in ENGINE_AWARE:
        kwargs["engine"] = engine
    return kwargs


def _result_name(name: str, engine: str) -> str:
    return f"{name}_fast" if engine == "fast" and name in ENGINE_AWARE else name


def run_benchmarks(
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    jobs: Optional[int] = None,
    engine: str = "object",
) -> Dict[str, BenchResult]:
    """Run the named workloads (all by default), in registry order.

    With ``engine="fast"`` the engine-aware workloads run against the
    struct-of-arrays engine and record under ``<name>_fast`` so the two
    engines keep separate baseline entries.
    """
    results: Dict[str, BenchResult] = {}
    for name in _validate_names(names):
        result = BENCHMARKS[name](**_bench_kwargs(name, quick, jobs, engine))
        result.name = _result_name(name, engine)
        results[result.name] = result
    return results


def profile_benchmarks(
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    jobs: Optional[int] = None,
    engine: str = "object",
    output_dir: Union[str, Path] = ".",
) -> List[Path]:
    """Run each workload once under cProfile; write the stats dumps.

    One ``BENCH_profile_<name>.pstats`` per workload, loadable with
    ``python -m pstats`` or ``snakeviz`` — so hot-path work starts from
    measurements instead of guesses.  Profiled runs are slower than
    timed ones; they do not produce ``BenchResult`` timings.
    """
    import cProfile

    out = Path(output_dir)
    paths: List[Path] = []
    for name in _validate_names(names):
        fn = BENCHMARKS[name]
        kwargs = _bench_kwargs(name, quick, jobs, engine)
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            fn(**kwargs)
        finally:
            profiler.disable()
        path = out / f"BENCH_profile_{_result_name(name, engine)}.pstats"
        profiler.dump_stats(path)
        paths.append(path)
    return paths


def write_results(
    results: Mapping[str, BenchResult],
    output_dir: Union[str, Path] = ".",
) -> List[Path]:
    """Write one ``BENCH_<name>.json`` per result; returns the paths."""
    from repro.analysis.export import save_json

    meta = machine_metadata()
    out = Path(output_dir)
    paths: List[Path] = []
    for name, result in results.items():
        paths.append(save_json(result.to_dict(meta), out / f"BENCH_{name}.json"))
    return paths


# --------------------------------------------------------------------------
# baseline comparison


def _baseline_entry(result: BenchResult) -> Dict:
    entry: Dict = {"median_s": result.median_s, "extra": dict(result.extra)}
    if result.skipped:
        entry["skipped"] = result.skipped
    return entry


def baseline_payload(results: Mapping[str, BenchResult]) -> Dict:
    return {
        "schema": BENCH_SCHEMA,
        "kind": "bench_baseline",
        "meta": machine_metadata(),
        "benches": {
            name: _baseline_entry(result) for name, result in results.items()
        },
    }


def write_baseline(
    results: Mapping[str, BenchResult], path: Union[str, Path]
) -> Path:
    """Persist the current medians as the committed baseline."""
    from repro.analysis.export import save_json

    return save_json(baseline_payload(results), path)


def load_baseline(path: Union[str, Path]) -> Dict[str, float]:
    """Baseline medians keyed by bench name.

    The file is read through :mod:`~repro.robustness.safeio`, so a
    checksum mismatch, another kind or schema, or a file with no
    ``benches`` entries raises :class:`CheckpointCorruptionError` (a
    ``ValueError``) rather than comparing against nothing.  Entries
    recorded as skipped (or with a zero median, which is what a skipped
    bench serializes as) carry no timing information and are dropped,
    so they can never anchor a regression comparison.
    """
    from repro.common.errors import CheckpointCorruptionError
    from repro.robustness import safeio

    payload = safeio.read_json_verified(path)
    benches = payload.get("benches")
    if payload.get("kind") != "bench_baseline":
        reason = "not a bench baseline file"
    elif payload.get("schema") != BENCH_SCHEMA:
        reason = f"schema {payload.get('schema')!r} (expected {BENCH_SCHEMA})"
    elif not isinstance(benches, dict) or not benches:
        reason = "no bench entries under 'benches'"
    else:
        return {
            name: float(entry["median_s"])
            for name, entry in benches.items()
            if not entry.get("skipped") and float(entry.get("median_s", 0.0)) > 0
        }
    raise CheckpointCorruptionError(path, reasons=[reason])


def compare_to_baseline(
    results: Mapping[str, BenchResult],
    baseline: Mapping[str, float],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[str]:
    """Regression messages for every shared bench that got slower.

    A bench regresses when ``current > baseline * (1 + threshold)``.
    Benches present on only one side are ignored (new benches must not
    fail the gate retroactively).  An empty list means the gate passes.
    """
    regressions: List[str] = []
    for name, result in results.items():
        if result.skipped:
            continue
        base = baseline.get(name)
        if base is None or base <= 0:
            continue
        ratio = result.median_s / base
        if ratio > 1.0 + threshold:
            regressions.append(
                f"{name}: {result.median_s:.4f}s vs baseline {base:.4f}s "
                f"({ratio:.2f}x, threshold {1.0 + threshold:.2f}x)"
            )
    return regressions


def render_results(results: Mapping[str, BenchResult]) -> str:
    """One line per bench: median plus the most interesting extras."""
    lines = []
    for name, result in results.items():
        if result.skipped:
            lines.append(f"{name:<18} skipped ({result.skipped})")
            continue
        extras = ""
        if "speedup" in result.extra:
            extras = f"  speedup {result.extra['speedup']:.2f}x"
        elif "fast_speedup" in result.extra:
            extras = f"  fast_speedup {result.extra['fast_speedup']:.1f}x"
        elif "accesses_per_s" in result.extra:
            extras = f"  {result.extra['accesses_per_s']:,.0f} accesses/s"
        lines.append(
            f"{name:<18} median {result.median_s:.4f}s over "
            f"{len(result.runs)} run(s){extras}"
        )
    return "\n".join(lines)
