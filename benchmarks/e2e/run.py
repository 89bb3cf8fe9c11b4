"""End-to-end benchmark of the paper pipeline.

Usage (from the repo root)::

    python3 benchmarks/e2e/run.py --workload spec_pair --seed 1 --seconds 25 --trace 0
    PYTHONPATH=src python -m benchmarks.e2e          # every workload, default seeds
    python3 benchmarks/e2e/run.py --refresh-oracle   # rewrite ORACLE.json

Each timed or traced pass runs in a fresh child process (``passes.py``),
one child at a time.  Timed passes repeat until ``--seconds`` is spent
(at least three); end-to-end metrics are medians over them, scaled to
the reference host's speed (see :func:`scaled_pass`).  With
``--trace 1`` half the budget goes to timed passes and one traced pass
follows, which reports the per-layer metrics.  Every pass's outputs are
checked against the committed oracle digest, or, for a seed without
one, against a live object-engine reference run.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when anything failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not __package__:  # started as a script: make the package importable
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.trace import LAYERS  # noqa: E402
from benchmarks.e2e.workloads import DEFAULT_SEEDS, WORKLOADS  # noqa: E402

ORACLE_PATH = HERE / "ORACLE.json"
SECURITY_BASELINE = ROOT / "benchmarks" / "security" / "BASELINE.json"
#: seeds ``--refresh-oracle`` commits digests for, besides the defaults
ORACLE_SEEDS = range(16)
MIN_TIMED_PASSES = 3
#: a workload's passes stop being started after this many seconds, so
#: one invocation of one workload ends well inside three minutes
HARD_LIMIT_S = 150.0
#: the tail percentile reported for cell times when enough samples exist
TAIL_Q = 0.99
TAIL_MIN_BEYOND = 10
#: ``workloads.reference_sample()`` on the host the benchmark was built
#: on (a 2-vCPU Xeon VM, CPython 3.11) when nothing else loaded it
REFERENCE_S = 0.020

Metrics = Dict[str, Tuple[float, str]]


# ----------------------------------------------------------------------
# Metric arithmetic
# ----------------------------------------------------------------------
def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, int]]:
    """The nearest-rank p99 and the count beyond it, or ``None`` when
    fewer than ten samples lie beyond it (the value would be noise)."""
    if not samples:
        return None
    ordered = sorted(samples)
    value = ordered[max(0, math.ceil(TAIL_Q * len(ordered)) - 1)]
    beyond = sum(1 for s in ordered if s > value)
    if beyond < TAIL_MIN_BEYOND:
        return None
    return value, beyond


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def stretch_speeds(p: Dict) -> List[float]:
    """Per stretch of a pass, ``REFERENCE_S`` over the mean of the two
    reference samples around it: how much faster the reference host is,
    quiet, than this host was while the stretch ran."""
    refs = p["reference_s"]
    return [2 * REFERENCE_S / (a + b) for a, b in zip(refs, refs[1:])]


def scaled_pass(p: Dict) -> Dict:
    """A pass's times at the reference host's quiet speed.

    Other tenants slow a shared host down, twofold for a second or for
    minutes; the reference samples slow with the workload.  Each stretch
    and each cell is scaled by its own stretch's speed, set-up by the
    sample right after it.  The reference runs no ``repro`` code, so a
    change to the simulator moves scaled times as it moves host times.
    """
    speed = stretch_speeds(p)
    return {
        "wall_s": sum(t * f for t, f in zip(p["stretch_s"], speed)),
        "setup_s": p["setup_s"] * REFERENCE_S / p["reference_s"][0],
        "cells": [(label, t * speed[k]) for label, t, _, k in p["cells"]],
    }


def end_to_end_metrics(passes: Sequence[Dict]) -> Metrics:
    """Medians over the timed passes of one workload, scaled.

    ``cell_s_p50`` is the median over cells of each cell's median time:
    a workload's cells differ in size (hit-heavy and miss-heavy replay
    traces, say), and a median of the pooled times would jump between
    those clusters.
    """
    scaled = [scaled_pass(p) for p in passes]
    wall = statistics.median(s["wall_s"] for s in scaled)
    per_cell: Dict[str, List[float]] = {}
    for s in scaled:
        for label, seconds in s["cells"]:
            per_cell.setdefault(label, []).append(seconds)
    return {
        "sim_ips": (_ratio(passes[0]["instructions"], wall), "instr/s"),
        "wall_s": (wall, "s"),
        "cell_s_p50": (
            statistics.median(statistics.median(t) for t in per_cell.values()),
            "s",
        ),
        "setup_s": (statistics.median(s["setup_s"] for s in scaled), "s"),
        "peak_rss_mib": (
            statistics.median(p["peak_rss_mib"] for p in passes), "MiB"
        ),
    }


def extra_metrics(passes: Sequence[Dict]) -> Metrics:
    """Reported and recorded, but not every workload has them, or they
    are the unscaled host numbers behind the end-to-end metrics."""
    extra: Metrics = {}
    cells = [c[1] for p in passes for c in scaled_pass(p)["cells"]]
    tail = tail_percentile(cells)
    if tail is not None:
        extra["cell_s_p99"] = (tail[0], "s")
    if passes[0].get("overhead_err_pp") is not None:
        extra["overhead_err_pp"] = (passes[0]["overhead_err_pp"], "pp")
    for key in ("wall_s", "setup_s"):
        extra[f"host.{key}"] = (statistics.median(p[key] for p in passes), "s")
    extra["host.reference_s"] = (
        statistics.median(r for p in passes for r in p["reference_s"]), "s"
    )
    return extra


def per_layer_metrics(traced: Dict, untraced_wall: float) -> Metrics:
    """Layer self times from the traced pass, scaled by its one stretch's
    speed, plus the counts they are normalised by; see the README for
    which end-to-end metric each moves.  ``untraced_wall`` is the scaled
    median of the timed passes."""
    (scale,) = stretch_speeds(traced)
    layers, units, kernel = traced["layers"], traced["units"], traced["kernel"]
    total = scale * sum(layers[layer]["self_s"] for layer in LAYERS)
    metrics: Metrics = {}
    for layer in LAYERS:
        self_s = scale * layers[layer]["self_s"]
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.share"] = (_ratio(self_s, total), "fraction")
        metrics[f"{layer}.calls"] = (layers[layer]["calls"], "count")

    def self_ns(layer: str) -> float:
        return scale * layers[layer]["self_s"] * 1e9

    instructions = traced["instructions"]
    accesses = units.get("memsys.accesses", 0)
    switches = units.get("core.context.switches", 0)
    kernel_accesses = kernel["scalar_accesses"] + kernel["batch_accesses"]
    llc = traced["llc"]
    metrics.update(
        {
            "cpu.instr_per_step": (
                _ratio(instructions, layers["cpu"]["calls"]), "instr/step"
            ),
            "workloads.ns_per_instr": (
                _ratio(self_ns("workloads"), instructions), "ns/instr"
            ),
            "memsys.accesses": (accesses, "count"),
            "memsys.ns_per_access": (
                _ratio(self_ns("memsys"), accesses), "ns/access"
            ),
            "memsys.batched_share": (
                _ratio(units.get("memsys.batched_accesses", 0), accesses),
                "fraction",
            ),
        }
    )
    for phase in ("classify", "plan", "rehearse", "apply", "fallback"):
        metrics[f"memsys.kernel.{phase}_s"] = (
            scale * kernel[f"{phase}_ns"] / 1e9, "s"
        )
    metrics.update(
        {
            "memsys.kernel.windows": (kernel["windows"], "count"),
            "memsys.kernel.cuts": (kernel["cuts"], "count"),
            "memsys.kernel.scalar_share": (
                _ratio(kernel["scalar_accesses"], kernel_accesses), "fraction"
            ),
            "core.context.switches": (switches, "count"),
            "core.context.us_per_switch": (
                _ratio(self_ns("core.context") / 1e3, switches), "us/switch"
            ),
            "security.ms_per_cell": (
                _ratio(self_ns("security") / 1e6, layers["security"]["calls"]),
                "ms/cell",
            ),
            "sim.instructions": (instructions, "instr"),
            "sim.cycles": (traced["cycles"], "cycles"),
            "sim.llc_mpki": (
                _ratio(1000.0 * (llc["misses"] - llc["cold_misses"]), instructions),
                "MPKI",
            ),
            "sim.llc_first_access_mpki": (
                _ratio(1000.0 * llc["first_access_misses"], instructions), "MPKI"
            ),
            "sim.context_switches": (traced["context_switches"], "count"),
            "trace.overhead": (
                _ratio(scale * traced["wall_s"], untraced_wall) - 1.0, "fraction"
            ),
            "trace.residual": (
                _ratio(abs(total - untraced_wall), untraced_wall), "fraction"
            ),
        }
    )
    return metrics


def count_failures(
    passes: Sequence[Dict], expected: Optional[str]
) -> Tuple[int, int]:
    """(cells attempted, cells failed) over the passes.

    A cell fails when it raised or was quarantined, or failed a check
    inside the pass; every cell of a pass whose outputs do not match the
    expected digest fails.  Without an expected digest the passes must
    at least agree with each other.
    """
    if expected is None and passes:
        expected = passes[0]["digest"]
    attempted = failed = 0
    for p in passes:
        attempted += len(p["cells"])
        if p["digest"] != expected:
            failed += len(p["cells"])
            continue
        bad = {label for label, _, ok, _ in p["cells"] if not ok}
        failed += len(bad | set(p["mismatches"]))
    return attempted, failed


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    # Imports read cached bytecode, as they do for a user after the first
    # run; without it every child would compile the whole simulator
    # (~0.1 s of set-up on the build host).
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # One thread per child; a fixed hash seed keeps set/dict iteration,
    # and so the work done, identical from run to run.
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(spec: Dict, timeout: float) -> Optional[Dict]:
    """One pass in a fresh process; ``None`` if it crashed or timed out."""
    spec = dict(spec, spawn_ns=time.monotonic_ns())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "passes.py"), json.dumps(spec)],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {timeout:.0f}s: {spec}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"pass failed ({proc.returncode}): {spec}", file=sys.stderr)
        print(proc.stderr[-4000:], file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def _as_json(metrics: Metrics) -> Dict[str, Dict[str, object]]:
    return {key: {"value": v, "unit": unit} for key, (v, unit) in metrics.items()}


def _load_oracle() -> Dict[str, Dict[str, str]]:
    if not ORACLE_PATH.exists():
        return {}
    return json.loads(ORACLE_PATH.read_text())["digests"]


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, output_dir: Path
) -> Dict:
    started = time.monotonic()

    def remaining() -> float:
        return HARD_LIMIT_S - (time.monotonic() - started)

    spec = {"workload": name, "seed": seed}
    expected = _load_oracle().get(name, {}).get(str(seed))
    source = "committed oracle"
    crashed = 0
    if expected is None and name != "tournament":
        # The tournament checks each fast cell against its object-engine
        # twin inside every pass; the others need a reference run.
        source = "live object-engine reference"
        reference = run_child(dict(spec, engine="object"), remaining())
        if reference is None:
            crashed += 1
        else:
            expected = reference["digest"]
    elif expected is None:
        source = "object-engine cells of each pass"

    # The budget counts from the start, reference run included, so a
    # run lasts about ``seconds`` whether or not its seed has a digest.
    passes: List[Dict] = []
    durations: List[float] = []
    budget = seconds / 2 if trace else seconds
    need = 2 if trace else MIN_TIMED_PASSES
    while not crashed and remaining() > 0:
        child_start = time.monotonic()
        result = run_child(spec, remaining())
        durations.append(time.monotonic() - child_start)
        if result is None:
            crashed += 1
            break
        passes.append(result)
        spent = time.monotonic() - started
        if len(passes) >= need and spent + statistics.median(durations) > budget:
            break
    traced = None
    if trace and not crashed:
        traced = run_child(dict(spec, trace=True), remaining())
        crashed += traced is None

    checked = passes + ([traced] if traced else [])
    attempted, failed = count_failures(checked, expected)
    per_pass = len(passes[0]["cells"]) if passes else 1
    attempted += crashed * per_pass
    failed += crashed * per_pass

    metrics: Metrics = {}
    extra: Metrics = {}
    layer_metrics: Metrics = {}
    if passes:
        metrics = end_to_end_metrics(passes)
        extra = extra_metrics(passes)
    if traced is not None and passes:
        layer_metrics = per_layer_metrics(traced, metrics["wall_s"][0])

    cells = sum(len(p["cells"]) for p in passes)
    everything = {**metrics, **extra, **layer_metrics}
    print(
        f"{name} seed {seed}: {len(passes)} timed pass(es), {cells} cell "
        f"samples, {attempted - failed}/{attempted} cells correct "
        f"(checked against the {source})"
    )
    for key, (value, unit) in everything.items():
        print(f"  {key:<34} {value:>16.6g} {unit}")

    report = {
        "kind": "bench_e2e",
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_stretch_s": [p["stretch_s"] for p in passes],
        "pass_reference_s": [p["reference_s"] for p in passes],
        "cell_samples": cells,
        "attempted": attempted,
        "failed": failed,
        "oracle": source,
        "metrics": _as_json(everything),
    }
    if traced is not None:
        report["folded"] = traced["folded"]
        report["calibration_ns"] = traced["calibration_ns"]
    output_dir.mkdir(parents=True, exist_ok=True)
    (output_dir / f"BENCH_E2E_{name}.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    return {
        "correct": failed == 0 and crashed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _as_json(layer_metrics if trace else metrics),
    }


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
def _baseline_mismatches(rows: Sequence[Dict]) -> List[str]:
    """Seed-7 tournament cells that differ from the security baseline."""
    baseline = json.loads(SECURITY_BASELINE.read_text())["cells"]
    problems = []
    for row in rows:
        if row["seed"] != 7:
            continue
        for cell in row["cells"]:
            if cell is None:
                problems.append("a seed-7 cell was quarantined")
                continue
            base = baseline.get(cell["label"])
            fields = ("separation", "ci_low", "ci_high", "mi_bits", "leak")
            if base is None or any(cell[f] != base[f] for f in fields):
                problems.append(f"{cell['label']}@7 differs from the baseline")
    return problems


def refresh_oracle(names: Sequence[str]) -> int:
    """Digest the named workloads on the object engine (the reference)
    for their default seed and ``ORACLE_SEEDS``; refuse unless the fast
    engine produces the same outputs.  Other workloads' digests stay."""
    digests = _load_oracle()
    problems: List[str] = []
    for name in names:
        digests[name] = {}
        for seed in sorted({DEFAULT_SEEDS[name], *ORACLE_SEEDS}):
            spec = {"workload": name, "seed": seed}
            reference = run_child(
                dict(spec, engine="object", rows=name == "tournament"), 600
            )
            if reference is None:
                problems.append(f"{name}@{seed}: reference run failed")
                continue
            if name == "tournament":
                problems += [f"{m}: engines differ" for m in reference["mismatches"]]
                problems += _baseline_mismatches(reference["rows"])
            else:
                fast = run_child(spec, 600)
                if fast is None or fast["digest"] != reference["digest"]:
                    problems.append(f"{name}@{seed}: fast engine differs")
            digests[name][str(seed)] = reference["digest"]
            print(f"{name}@{seed}: {reference['digest']}")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    ORACLE_PATH.write_text(
        json.dumps(
            {"schema": 1, "reference_engine": "object", "digests": digests},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {ORACLE_PATH.relative_to(ROOT)}")
    return 0


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the TimeCache paper pipeline."
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--output-dir", type=Path, default=Path("."))
    parser.add_argument("--refresh-oracle", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.refresh_oracle:
        return refresh_oracle(names)

    results = {
        name: run_workload(
            name,
            DEFAULT_SEEDS[name] if args.seed is None else args.seed,
            args.seconds,
            bool(args.trace),
            args.output_dir,
        )
        for name in names
    }
    if args.workload:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{key}": value
                for name, r in results.items()
                for key, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
