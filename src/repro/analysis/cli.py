"""Command-line driver: regenerate the paper's artifacts from a shell.

Usage (also available as ``python -m repro``):

    python -m repro micro                  # Section VI-A1 microbenchmark
    python -m repro rsa                    # Section VI-A2 RSA extraction
    python -m repro table2 --pairs 6       # Table II / Figure 7 slice
    python -m repro fig8                   # first-access MPKI per level
    python -m repro fig9                   # PARSEC on 2 cores
    python -m repro fig10                  # LLC size sensitivity
    python -m repro faults --quick         # fault-injection detection matrix
    python -m repro chaos --quick          # orchestration chaos scorecard
    python -m repro bench --quick          # perf harness, BENCH_*.json
    python -m repro tournament --quick     # attack leakage scorecard
    python -m repro trace                  # traced flush+reload + manifest
    python -m repro obs summarize T.jsonl  # inspect a trace stream
    python -m repro obs top OBS_DIR        # live supervised-sweep view
    python -m repro obs flame --obs-dir D  # folded kernel/span flamegraph

Each command prints the artifact in the paper's layout; ``--instructions``
scales simulation length (longer = tighter match, slower).  ``table2``,
``fig8``, ``fig9``, ``export`` and ``tournament`` run their cells
through one supervised sweep executor: a failing cell
is retried, then quarantined with provenance while the rest of the
sweep finishes.  ``--resume CHECKPOINT.json`` names the checkpoint:
completed cells are recorded there with their keys, a rerun with the
same file picks up where it left off (a cell stored from other inputs,
such as another ``--instructions`` or ``--engine``, reruns), and
quarantine records land beside it.

``--jobs N`` fans the sweep commands out across ``N`` worker processes
(default: one per CPU; ``--jobs 1`` runs every cell in this process;
below 1, on any command, exits 1 before anything runs).
Results are identical either way — see docs/internals.md §9.  Options
that act inside worker processes (``--obs-dir``, and ``chaos``'s
kill/hang injections) need ``--jobs 2`` or more and exit 1 at
``--jobs 1``.

Exit codes follow one contract across the sweep commands:

* ``0`` — full success, every cell produced a result;
* ``3`` (``EXIT_PARTIAL``) — the sweep finished but one or more cells
  were quarantined; the printed artifact carries explicit gap markers
  and a one-line quarantine summary names each FailureRecord file;
* ``1`` — fatal: nothing usable was produced (also the generic error
  exit for any uncaught :class:`~repro.common.errors.ReproError`).

``--quiet`` (global or per-command) suppresses progress chatter; the
paper artifacts themselves — tables, figures, attack outcomes — are
always printed.  Errors always go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.analysis.runner import (
    llc_sensitivity_sweep,
    parsec_jobs,
    result_checkpoint,
    spec_pair_jobs,
)
from repro.analysis.tables import (
    render_figure_series,
    render_mpki_table,
    render_table2,
    summarize_overheads,
)
from repro.common import scaled_experiment_config
from repro.common.units import geometric_mean
from repro.obs.console import Console
from repro.robustness.resilience import SweepOutcome
from repro.robustness.supervisor import SupervisedSweepExecutor, SweepJob
from repro.workloads.mixes import (
    PAPER_TABLE2_PARSEC,
    PAPER_TABLE2_SPEC,
    PARSEC_BENCHMARKS,
    SPEC_MIXED_PAIRS,
    SPEC_SAME_PAIRS,
)

#: the sweep-command exit contract (see the module docstring)
EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 3


def _count_flag(
    value: Optional[int], default: Optional[int], flag: str
) -> Optional[int]:
    """A count flag's value: ``default`` when the flag was not given,
    ConfigError (exit 1) when it is below 1."""
    from repro.common.errors import ConfigError

    if value is None:
        return default
    if value < 1:
        raise ConfigError(f"{flag} must be >= 1, got {value}")
    return value


def _run_sweep(
    args: argparse.Namespace, sweep_jobs: Sequence[SweepJob]
) -> Tuple[SweepOutcome, List, List[str], int]:
    """Run a sweep command's cells through the supervised executor.

    ``--jobs`` picks the mode, ``--resume`` names the checkpoint (its
    quarantine records go beside it) and ``--obs-dir`` the telemetry
    directory.  Returns the outcome, its results in job order, the
    labels of the cells that produced none, and the exit status
    (``EXIT_PARTIAL`` when any cell was quarantined, else ``EXIT_OK``).
    """
    executor = SupervisedSweepExecutor(
        args.jobs,
        checkpoint=result_checkpoint(args.resume),
        obs_dir=args.obs_dir,
    )
    outcome = executor.run(sweep_jobs)
    status = _report_sweep_outcome(args.console, outcome)
    labels = [job.label for job in sweep_jobs]
    gaps = [label for label in labels if label not in outcome.results]
    return outcome, outcome.ordered_results(labels), gaps, status


def _cmd_micro(args: argparse.Namespace) -> int:
    from repro.attacks.flush_reload import run_microbenchmark_attack

    for label, config in (
        ("baseline", scaled_experiment_config().baseline()),
        ("TimeCache", scaled_experiment_config()),
    ):
        outcome = run_microbenchmark_attack(config, shared_lines=256)
        args.console.result(
            f"{label:<10} reload hits: {outcome.probe_hits}/"
            f"{outcome.probe_total}"
        )
    return 0


def _cmd_rsa(args: argparse.Namespace) -> int:
    from repro.attacks.rsa import generate_key, run_rsa_attack

    key = generate_key(seed=args.seed, prime_bits=28)
    args.console.info(f"{len(key.d_bits)}-bit secret exponent")
    for label, config in (
        ("baseline", scaled_experiment_config(num_cores=2).baseline()),
        ("TimeCache", scaled_experiment_config(num_cores=2)),
    ):
        result = run_rsa_attack(config, key=key)
        args.console.result(
            f"{label:<10} hits {result.probe_hits:5d}  recovered "
            f"{len(result.recovered_bits):3d} bits  accuracy "
            f"{result.accuracy:.1%}  key recovered: {result.key_recovered}"
        )
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    pairs = SPEC_SAME_PAIRS + SPEC_MIXED_PAIRS
    pairs = pairs[: _count_flag(args.pairs, len(pairs), "--pairs")]
    _, results, gaps, status = _run_sweep(
        args, spec_pair_jobs(pairs, args.instructions, engine=args.engine)
    )
    if not results:
        return EXIT_FATAL
    args.console.result(
        render_table2(results, paper=PAPER_TABLE2_SPEC, gaps=gaps)
    )
    summary = summarize_overheads(results)
    args.console.result(
        f"\ngeomean overhead {summary['geomean_overhead']:.4f} (paper 0.0113)"
    )
    return status


def _report_sweep_outcome(console: Console, outcome) -> int:
    """Narrate a supervised sweep's outcome; the return value is the
    command's exit status under the 0/3/1 contract (``EXIT_PARTIAL``
    when anything was quarantined, else ``EXIT_OK``)."""
    if outcome.resumed:
        console.info(
            f"resumed {len(outcome.resumed)} completed experiment(s) "
            f"from checkpoint"
        )
    if outcome.stale:
        console.info(
            f"reran {len(outcome.stale)} stale experiment(s): the "
            f"checkpoint held them from other inputs"
        )
    for failure in outcome.failures:
        console.error(
            f"FAILED {failure.label}: {failure.error_type}: "
            f"{failure.message} (after {failure.attempts} attempts)"
        )
    if outcome.failures:
        where = ", ".join(
            f"{f.label} ({f.record_path or 'no record file'})"
            for f in outcome.failures
        )
        console.error(
            f"quarantined {len(outcome.failures)} job(s): {where}"
        )
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_fig8(args: argparse.Namespace) -> int:
    pairs = SPEC_SAME_PAIRS[: _count_flag(args.pairs, 6, "--pairs")]
    _, results, gaps, status = _run_sweep(
        args, spec_pair_jobs(pairs, args.instructions, engine=args.engine)
    )
    if not results:
        return EXIT_FATAL
    args.console.result(render_mpki_table(results, gaps=gaps))
    return status


def _cmd_fig9(args: argparse.Namespace) -> int:
    benchmarks = PARSEC_BENCHMARKS[
        : _count_flag(args.pairs, len(PARSEC_BENCHMARKS), "--pairs")
    ]
    _, results, gaps, status = _run_sweep(
        args, parsec_jobs(benchmarks, args.instructions, engine=args.engine)
    )
    if not results:
        return EXIT_FATAL
    args.console.result(
        render_table2(results, paper=PAPER_TABLE2_PARSEC, gaps=gaps)
    )
    args.console.result("")
    args.console.result(render_mpki_table(results, gaps=gaps))
    return status


def _cmd_fig10(args: argparse.Namespace) -> int:
    pairs = [("wrf", "wrf"), ("perlbench", "perlbench"), ("milc", "milc")]
    sweep = llc_sensitivity_sweep(
        pairs=pairs,
        llc_sizes_kib=(32, 64, 128),
        instructions=args.instructions,
        jobs=args.jobs,
        engine=args.engine,
    )
    series = [
        (f"{kib}KiB", geometric_mean([r.normalized_time for r in results]))
        for kib, results in sweep.items()
    ]
    args.console.result(render_figure_series("normalized time vs LLC size", series))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.analysis.export import export_outcome

    pairs = (SPEC_SAME_PAIRS + SPEC_MIXED_PAIRS)[
        : _count_flag(args.pairs, 4, "--pairs")
    ]
    sweep_jobs = spec_pair_jobs(pairs, args.instructions, engine=args.engine)
    outcome, results, _, status = _run_sweep(args, sweep_jobs)
    path = export_outcome(
        outcome, [job.label for job in sweep_jobs], args.output
    )
    args.console.result(f"wrote {len(results)} results to {path}")
    return status


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.robustness import run_fault_campaign

    per_model = _count_flag(
        args.injections, 3 if args.quick else 30, "--injections"
    )
    matrix = run_fault_campaign(per_model=per_model, seed=args.seed)
    args.console.result(matrix.render())
    args.console.result(
        f"\n{matrix.total} injections: "
        f"{matrix.total - matrix.silent_total} detected or benign, "
        f"{matrix.silent_total} silent"
    )
    return 1 if matrix.silent_total else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Orchestration-level chaos campaign: kill/hang workers, corrupt
    checkpoint bytes, inject IO errors — all from a seeded plan — and
    score how the robustness layer coped.  Exit 1 if anything was
    *silent* (wrong data with no recorded error); quarantined-but-loud
    failures are the system working as designed, so they exit 0."""
    from repro.robustness.chaos import DEFAULT_QUICK_COUNTS, run_chaos_campaign

    console = args.console
    jobs = _count_flag(args.jobs, 2, "--jobs")
    counts = None
    if args.injections is not None:
        from repro.robustness.chaos import CHAOS_MODELS

        injections = _count_flag(args.injections, 0, "--injections")
        counts = {model: injections for model in CHAOS_MODELS}
    elif args.quick:
        counts = dict(DEFAULT_QUICK_COUNTS)
    scorecard = run_chaos_campaign(
        seed=args.seed,
        counts=counts,
        jobs=jobs,
        workdir=args.workdir,
    )
    console.result(scorecard.render())
    console.result(
        f"\n{scorecard.total} injections (seed {scorecard.seed}): "
        f"{sum(scorecard.recovered.values())} recovered, "
        f"{sum(scorecard.quarantined.values())} quarantined loudly, "
        f"{scorecard.silent_total} silent"
    )
    if args.output:
        from repro.robustness import safeio

        path = safeio.write_json_atomic(scorecard.to_dict(), args.output)
        console.info(f"wrote {path}")
    return EXIT_FATAL if scorecard.silent_total else EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.analysis import bench

    console = args.console
    if args.profile:
        paths = bench.profile_benchmarks(
            names=args.only or None,
            quick=args.quick,
            jobs=args.jobs,
            engine=args.engine,
            output_dir=args.output_dir,
        )
        for path in paths:
            console.info(f"wrote {path}")
        return 0
    results = bench.run_benchmarks(
        names=args.only or None,
        quick=args.quick,
        jobs=args.jobs,
        engine=args.engine,
    )
    paths = bench.write_results(results, args.output_dir)
    console.result(bench.render_results(results))
    for path in paths:
        console.info(f"wrote {path}")
    if args.write_baseline:
        console.info(
            f"wrote baseline {bench.write_baseline(results, args.write_baseline)}"
        )
    if args.baseline:
        baseline = bench.load_baseline(args.baseline)
        regressions = bench.compare_to_baseline(
            results, baseline, threshold=args.threshold
        )
        if regressions:
            for message in regressions:
                console.error(f"REGRESSION {message}")
            if not args.warn_only:
                return 1
            console.info("(warn-only: not failing)")
        else:
            console.info(
                f"no regression vs {args.baseline} "
                f"(threshold {args.threshold:.0%})"
            )
    return 0


def _cmd_tournament(args: argparse.Namespace) -> int:
    """Attack tournament: every attack × every defense (``--defenses``,
    default the gated axis) × engine, scored as a statistical
    distinguishability game (AUC/CI/MI), plus one SPEC-pair overhead
    cell per (defense, engine), all written to a SECURITY.json
    scorecard and rendered as one overhead-vs-leakage matrix.
    ``--baseline`` gates the leakage cells enforcing-ly: unlike the perf
    gate, leakage scores are simulated-deterministic, so any drift is a
    code change.  Exit contract: 1 on gate failure or nothing scored, 3
    when cells were quarantined, else 0."""
    from repro.analysis import tournament as tm
    from repro.analysis.runner import write_run_manifest

    console = args.console
    engines = tm.ENGINES if args.engine == "both" else (args.engine,)
    defenses = tuple(args.defenses or tm.DEFENSES)
    attacks = list(args.attacks or tm.ATTACKS)
    seed_count = _count_flag(args.seeds, 1 if args.quick else 2, "--seeds")
    seeds = tuple(args.seed + i for i in range(seed_count))
    n_boot = _count_flag(args.boot, 200 if args.quick else 500, "--boot")
    overhead_instructions = 8_000 if args.quick else 60_000
    outcome = tm.run_tournament(
        attacks=attacks,
        engines=engines,
        defenses=defenses,
        seeds=seeds,
        quick=args.quick,
        jobs=args.jobs,
        n_boot=n_boot,
        overhead_instructions=overhead_instructions,
        checkpoint_path=args.resume,
        obs_dir=args.obs_dir,
    )
    status = _report_sweep_outcome(console, outcome.sweep)
    if not outcome.cells:
        return EXIT_FATAL
    console.result(tm.render_scorecard(outcome))
    console.result(tm.render_matrix(outcome, attacks, defenses, engines))
    params = {
        "quick": args.quick,
        "seeds": list(seeds),
        "n_boot": n_boot,
        "engines": list(engines),
        "defenses": list(defenses),
        "attacks": attacks,
        "overhead_instructions": overhead_instructions,
    }
    path = tm.write_scorecard(outcome, args.output, params=params)
    console.info(f"wrote {path}")
    write_run_manifest(
        Path(str(args.output) + ".manifest.json"),
        command=["repro"] + args.argv,
        config=tm.cell_config(attacks[0], defenses[0], engines[0]),
        seed=seeds[0],
        artifacts=[Path(args.output)],
        extra={"cells": len(outcome.cells), "gaps": len(outcome.sweep.failures)},
    )
    if args.update_baseline:
        if not outcome.complete:
            console.error(
                "refusing to write a baseline with quarantined cells — "
                "a gap would silently exempt that attack from the gate"
            )
            return EXIT_FATAL
        bpath = tm.write_security_baseline(
            outcome, args.update_baseline, params=params
        )
        console.info(f"wrote baseline {bpath}")
    if args.baseline:
        baseline = tm.load_security_baseline(args.baseline)
        waived: List[str] = []
        failures = tm.compare_to_security_baseline(
            outcome.cells, baseline, tolerance=args.tolerance, waived=waived
        )
        for message in waived:
            console.info(f"KNOWN BOUNDARY {message}")
        if failures:
            for message in failures:
                console.error(f"SECURITY REGRESSION {message}")
            return EXIT_FATAL
        console.info(
            f"security gate passed vs {args.baseline} "
            f"(tolerance {args.tolerance:.2f})"
        )
    return status


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run a traced flush+reload and leave a self-describing artifact
    directory: trace.jsonl (the event stream), trace.perfetto.json (load
    it in ui.perfetto.dev or chrome://tracing), and manifest.json."""
    from repro.analysis.runner import write_run_manifest
    from repro.attacks.flush_reload import run_microbenchmark_attack
    from repro.obs import JsonlSink, Tracer, read_events, write_chrome_trace

    console = args.console
    config = scaled_experiment_config(engine=args.engine)
    if args.baseline:
        config = config.baseline()
    out_dir = Path(args.output_dir)
    trace_path = out_dir / "trace.jsonl"
    perfetto_path = out_dir / "trace.perfetto.json"
    manifest_path = out_dir / "manifest.json"

    sink = JsonlSink(trace_path)
    tracer = Tracer(sink)
    tracer.trace_all_accesses = args.all_accesses
    outcome = run_microbenchmark_attack(
        config,
        shared_lines=args.lines,
        tracer=tracer,
        sample_every=args.sample_every,
    )
    tracer.close()
    console.info(f"{sink.emitted} events")
    write_chrome_trace(read_events(trace_path), perfetto_path)
    manifest = write_run_manifest(
        manifest_path,
        command=["repro"] + args.argv,
        config=config,
        seed=args.seed,
        artifacts=[trace_path, perfetto_path],
        extra={
            "events": sink.emitted,
            "probe_hits": outcome.probe_hits,
            "probe_total": outcome.probe_total,
        },
    )
    console.result(
        f"reload hits: {outcome.probe_hits}/{outcome.probe_total} "
        f"({'baseline' if args.baseline else 'TimeCache'}, {args.engine})"
    )
    for path in (trace_path, perfetto_path, manifest_path):
        console.result(f"wrote {path}")
    console.info(f"config sha256 {manifest.config_sha256[:12]}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Dispatch ``repro obs <subcommand>``."""
    return {
        "summarize": _cmd_obs_summarize,
        "flame": _cmd_obs_flame,
        "top": _cmd_obs_top,
    }[args.obs_command](args)


def _cmd_obs_summarize(args: argparse.Namespace) -> int:
    from repro.obs import read_events_tolerant, write_chrome_trace

    console = args.console
    events, torn = read_events_tolerant(args.trace)
    if torn:
        console.error(
            f"WARNING: skipped {torn} torn trailing line in {args.trace} "
            f"(crash-truncated write)"
        )
    if not events:
        console.error(f"no events in {args.trace}")
        return 1
    # Drop detection from the tracer's monotone seq counter (one counter
    # per tracer, shared across srcs): a first seq above zero means the
    # head of the stream never reached the file (a RingBufferSink that
    # overflowed and shed its oldest events); a seq range wider than the
    # event count means mid-stream drops.  Duplicate seqs mean several
    # tracers were merged into one file — gaps are unattributable then,
    # so the analysis stands down rather than cry wolf.
    seqs = sorted(event.seq for event in events)
    dropped_total = 0
    if len(set(seqs)) == len(seqs):
        head = seqs[0]
        gaps = (seqs[-1] - seqs[0] + 1) - len(seqs)
        dropped_total = max(head, 0) + max(gaps, 0)
        if head > 0:
            console.error(
                f"WARNING: first seq is {head} — {head} event(s) dropped "
                f"before the stream start (ring-buffer overflow?)"
            )
        if gaps > 0:
            console.error(
                f"WARNING: {gaps} event(s) missing mid-stream "
                f"(seq gaps — sink drops?)"
            )
    by_kind = Counter(event.kind for event in events)
    t_lo = min(event.ts for event in events)
    t_hi = max(event.ts for event in events)
    lines = [
        f"{len(events)} events over {t_hi - t_lo} simulated cycles "
        f"({args.trace})"
    ]
    for kind in sorted(by_kind):
        lines.append(f"  {by_kind[kind]:>8} {kind}")
    # pair phase.begin/end into spans (per context, LIFO for nesting)
    open_spans: dict = {}
    spans = []
    for event in events:
        key = (event.ctx, event.args.get("name"))
        if event.kind == "phase.begin":
            open_spans.setdefault(key, []).append(event.ts)
        elif event.kind == "phase.end" and open_spans.get(key):
            spans.append((event.args.get("name"), open_spans[key].pop(), event.ts))
    if spans:
        lines.append("phases:")
        for name, start, end in spans:
            lines.append(f"  {name:<12} [{start}, {end}]  {end - start} cycles")
    console.result("\n".join(lines))
    if args.perfetto:
        write_chrome_trace(events, args.perfetto)
        console.info(f"wrote {args.perfetto}")
    return EXIT_PARTIAL if (torn or dropped_total) else 0


def _cmd_obs_flame(args: argparse.Namespace) -> int:
    """Folded-stack flamegraph lines from a sweep's merged obs shards.

    The output is the standard ``stack;path value`` format consumed by
    flamegraph.pl / speedscope / inferno; values are span self-time in
    microseconds, summed across every worker shard, with the kernel-phase
    accumulators appearing under a synthetic ``kernel;<phase>`` root.
    """
    from repro.obs.shards import list_shards, merged_folded_stacks
    from repro.obs.spans import folded_to_lines

    console = args.console
    if not list_shards(args.obs_dir):
        console.error(f"no obs shards under {args.obs_dir}")
        return EXIT_FATAL
    folded = merged_folded_stacks(args.obs_dir)
    if not folded:
        console.error(f"shards under {args.obs_dir} carry no spans")
        return EXIT_FATAL
    text = "\n".join(folded_to_lines(folded))
    if args.out:
        Path(args.out).write_text(text + "\n")
        console.info(f"wrote {args.out} ({len(folded)} stacks)")
    else:
        console.result(text)
    return 0


def _render_obs_top(console: Console, obs_dir: str) -> Optional[str]:
    """One frame of the live sweep view; returns the heartbeat status
    (None when no heartbeat has been written yet)."""
    from repro.obs.shards import list_shards, load_shard, read_heartbeat

    hb = read_heartbeat(obs_dir)
    if hb is None:
        console.result(f"no heartbeat under {obs_dir} (sweep not started?)")
        return None
    quarantined = hb.get("quarantined", 0)
    if isinstance(quarantined, list):
        quarantined = len(quarantined)
    lines = [
        f"sweep {hb.get('status', '?'):<8} "
        f"done {hb.get('done', 0)}/{hb.get('total', 0)}  "
        f"failed {hb.get('failed', 0)}  "
        f"quarantined {quarantined}"
    ]
    for slot in hb.get("in_flight", []):
        lines.append(
            f"  RUN  {slot.get('label', '?'):<24} attempt "
            f"{slot.get('attempt', 1)}  {slot.get('age_s', 0.0):6.1f}s  "
            f"pid {slot.get('pid', '?')}"
        )
    for path in list_shards(obs_dir):
        try:
            shard = load_shard(path)
        except Exception:
            continue  # partially-written shard; next frame will see it
        counts = shard.get("counters", {})
        phases = shard.get("kernel_phases", {})
        state = "ok" if shard.get("ok", True) else "FAILED"
        lines.append(
            f"  {state:<4} {shard.get('label', path.stem):<24} "
            f"counters {len(counts)}  batched accesses "
            f"{phases.get('scalar_accesses', 0)}  "
            f"attempt {shard.get('attempt', 1)}"
        )
    console.result("\n".join(lines))
    return str(hb.get("status", ""))


def _cmd_obs_top(args: argparse.Namespace) -> int:
    """Live console view of a supervised sweep from its heartbeat file
    and whatever worker shards have landed so far."""
    import time as _time

    console = args.console
    status = _render_obs_top(console, args.obs_dir)
    if args.once:
        return 0 if status is not None else EXIT_FATAL
    while status != "done":
        _time.sleep(args.interval)
        console.result("")
        status = _render_obs_top(console, args.obs_dir)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TimeCache (ISCA 2021) reproduction - artifact driver",
    )
    parser.add_argument(
        "--instructions",
        type=int,
        default=None,
        help="instructions per simulated process/thread (default: 150000)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--quiet",
        action="store_true",
        default=False,
        help="suppress progress output (artifacts and errors still print)",
    )
    # --quiet is also accepted after the subcommand; SUPPRESS keeps the
    # global value when the per-command flag is absent.
    quiet_parent = argparse.ArgumentParser(add_help=False)
    quiet_parent.add_argument(
        "--quiet", action="store_true", default=argparse.SUPPRESS,
        help=argparse.SUPPRESS,
    )
    # Shared by every sweep-shaped command (anything embarrassingly
    # parallel); micro/rsa/faults run single simulations.
    jobs_parent = argparse.ArgumentParser(add_help=False)
    jobs_parent.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the sweep (default: one per CPU; "
        "1 = run every cell in this process)",
    )
    jobs_parent.add_argument(
        "--engine",
        choices=("object", "fast"),
        default="object",
        help="simulation engine: 'object' is the reference model, 'fast' "
        "the struct-of-arrays engine (identical results, ~5x throughput)",
    )
    # Shared by the five commands that run their cells through
    # SupervisedSweepExecutor.run(); fig10 runs a plain map() sweep.
    resume_parent = argparse.ArgumentParser(add_help=False)
    resume_parent.add_argument(
        "--resume",
        metavar="CHECKPOINT",
        default=None,
        help="checkpoint finished cells to (and resume from) this JSON "
        "file; quarantined cells land in CHECKPOINT.quarantine/",
    )
    resume_parent.add_argument(
        "--obs-dir",
        metavar="DIR",
        default=None,
        help="write per-worker obs shards, a heartbeat, and a merged "
        "Perfetto trace + counters JSON under DIR (see 'repro obs "
        "top/flame'); needs --jobs >= 2, exits 1 at --jobs 1",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "micro", help="Section VI-A1 microbenchmark", parents=[quiet_parent]
    )
    sub.add_parser(
        "rsa", help="Section VI-A2 RSA key extraction", parents=[quiet_parent]
    )
    for name, help_text in (
        ("table2", "Table II / Figure 7 SPEC sweep"),
        ("fig8", "Figure 8 first-access MPKI per level"),
        ("fig9", "Figure 9 PARSEC sweep"),
    ):
        p = sub.add_parser(
            name, help=help_text, parents=[jobs_parent, resume_parent, quiet_parent]
        )
        p.add_argument(
            "--pairs", type=int, default=None, help="limit the workload count"
        )
    sub.add_parser(
        "fig10",
        help="Figure 10 LLC sensitivity",
        parents=[jobs_parent, quiet_parent],
    )
    export = sub.add_parser(
        "export",
        help="run a sweep, write JSON results",
        parents=[jobs_parent, resume_parent, quiet_parent],
    )
    export.add_argument("--output", default="results.json")
    export.add_argument("--pairs", type=int, default=None)
    faults = sub.add_parser(
        "faults",
        help="fault-injection campaign against the defense",
        parents=[quiet_parent],
    )
    faults.add_argument(
        "--injections",
        type=int,
        default=None,
        help="seeded injections per fault model (default 30)",
    )
    faults.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: 3 injections per model (an explicit "
        "--injections wins)",
    )
    chaos = sub.add_parser(
        "chaos",
        help="orchestration chaos campaign: kill/hang/corrupt/io_error "
        "against the sweep layer, prints a resilience scorecard",
        parents=[quiet_parent],
    )
    chaos.add_argument(
        "--quick",
        action="store_true",
        help="the CI mix: >=50 seeded injections across all four models",
    )
    chaos.add_argument(
        "--injections",
        type=int,
        default=None,
        metavar="N",
        help="N injections per chaos model (overrides --quick)",
    )
    chaos.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker slots for the sabotaged mini-sweeps (default 2); "
        "kill/hang injections need --jobs >= 2, exits 1 at --jobs 1",
    )
    chaos.add_argument(
        "--output",
        metavar="SCORECARD.json",
        default=None,
        help="also write the scorecard as JSON (crash-safely)",
    )
    chaos.add_argument(
        "--workdir",
        default=None,
        help="keep campaign artifacts here instead of a temp dir",
    )
    bench = sub.add_parser(
        "bench",
        help="perf benchmark harness, writes BENCH_<name>.json",
        parents=[jobs_parent, quiet_parent],
    )
    bench.add_argument(
        "--quick", action="store_true", help="smaller workloads, fewer runs"
    )
    bench.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        help="run just this benchmark (repeatable)",
    )
    bench.add_argument(
        "--output-dir", default=".", help="where BENCH_<name>.json files go"
    )
    bench.add_argument(
        "--baseline",
        metavar="BASELINE.json",
        default=None,
        help="compare against this committed baseline; exit 1 on regression",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="relative slowdown that counts as a regression (default 0.20)",
    )
    bench.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit 0 (for alien/noisy CI hardware)",
    )
    bench.add_argument(
        "--write-baseline",
        metavar="PATH",
        default=None,
        help="also write the results as a new baseline file",
    )
    bench.add_argument(
        "--profile",
        action="store_true",
        help="run each workload under cProfile and write "
        "BENCH_profile_<name>.pstats instead of timing it",
    )
    tournament = sub.add_parser(
        "tournament",
        help="attack tournament: statistical leakage scorecard and "
        "overhead-vs-leakage matrix (SECURITY.json) with an enforcing "
        "--baseline gate",
        parents=[resume_parent, quiet_parent],
    )
    tournament.add_argument(
        "--quick",
        action="store_true",
        help="CI mode: fewer rounds/seeds/bootstrap replicates, shorter "
        "overhead runs",
    )
    tournament.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="supervised worker processes for the cell matrix "
        "(default: one per CPU; 1 = run every cell in this process)",
    )
    tournament.add_argument(
        "--engine",
        choices=("object", "fast", "both"),
        default="both",
        help="which engine(s) to score (default: both)",
    )
    tournament.add_argument(
        "--attacks",
        action="append",
        metavar="NAME",
        help="score just this attack (repeatable; default: all)",
    )
    tournament.add_argument(
        "--defenses",
        action="append",
        metavar="NAME",
        help="score just this registered defense (repeatable; default: "
        "the gated axis timecache, baseline, selective_flush, "
        "copy_on_access)",
    )
    tournament.add_argument(
        "--seeds",
        type=int,
        default=None,
        metavar="N",
        help="pool latencies over N seeds starting at --seed "
        "(default: 1 quick, 2 full)",
    )
    tournament.add_argument(
        "--boot",
        type=int,
        default=None,
        metavar="N",
        help="bootstrap replicates per cell (default: 200 quick, 500 full)",
    )
    tournament.add_argument(
        "--output",
        default="SECURITY.json",
        help="scorecard path (default SECURITY.json)",
    )
    tournament.add_argument(
        "--baseline",
        metavar="BASELINE.json",
        default=None,
        help="enforce the security gate against this committed baseline; "
        "exit 1 on any regression",
    )
    tournament.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="AUC-separation headroom above the baseline before a "
        "defense-on cell counts as a regression (default 0.05)",
    )
    tournament.add_argument(
        "--update-baseline",
        metavar="PATH",
        default=None,
        help="also write these scores as a new baseline (refused when "
        "any cell was quarantined)",
    )
    trace = sub.add_parser(
        "trace",
        help="traced flush+reload: trace.jsonl + Perfetto file + manifest",
        parents=[quiet_parent],
    )
    trace.add_argument(
        "--output-dir",
        default="trace_out",
        help="directory for trace.jsonl / trace.perfetto.json / manifest.json",
    )
    trace.add_argument(
        "--lines", type=int, default=64, help="shared lines to flush and probe"
    )
    trace.add_argument(
        "--engine", choices=("object", "fast"), default="object"
    )
    trace.add_argument(
        "--baseline",
        action="store_true",
        help="trace the undefended baseline instead of TimeCache",
    )
    trace.add_argument(
        "--sample-every",
        type=int,
        default=20_000,
        help="metrics.sample cadence in simulated cycles (0 disables)",
    )
    trace.add_argument(
        "--all-accesses",
        action="store_true",
        help="emit an access.result event for every access (verbose)",
    )
    obs = sub.add_parser(
        "obs", help="inspect observability artifacts", parents=[quiet_parent]
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    summarize = obs_sub.add_parser(
        "summarize",
        help="summarize a trace.jsonl event stream",
        parents=[quiet_parent],
    )
    summarize.add_argument("trace", help="path to a trace.jsonl file")
    summarize.add_argument(
        "--perfetto",
        metavar="OUT.json",
        default=None,
        help="also export a Chrome trace-event file",
    )
    flame = obs_sub.add_parser(
        "flame",
        help="folded flamegraph stacks from a sweep's merged obs shards",
        parents=[quiet_parent],
    )
    flame.add_argument(
        "--obs-dir",
        required=True,
        metavar="DIR",
        help="the --obs-dir a supervised sweep wrote its shards to",
    )
    flame.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the folded stacks here instead of stdout "
        "(feed to flamegraph.pl / speedscope / inferno)",
    )
    top = obs_sub.add_parser(
        "top",
        help="live view of a running supervised sweep (heartbeat + shards)",
        parents=[quiet_parent],
    )
    top.add_argument(
        "obs_dir", metavar="OBS_DIR",
        help="the --obs-dir of the sweep to watch",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print one frame and exit instead of polling until done",
    )
    top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between frames (default 2)",
    )
    return parser


_COMMANDS = {
    "micro": _cmd_micro,
    "rsa": _cmd_rsa,
    "table2": _cmd_table2,
    "fig8": _cmd_fig8,
    "fig9": _cmd_fig9,
    "fig10": _cmd_fig10,
    "export": _cmd_export,
    "faults": _cmd_faults,
    "chaos": _cmd_chaos,
    "bench": _cmd_bench,
    "tournament": _cmd_tournament,
    "trace": _cmd_trace,
    "obs": _cmd_obs,
}


def main(argv: Optional[List[str]] = None) -> int:
    from repro.common.errors import ReproError

    args = build_parser().parse_args(argv)
    args.console = Console(quiet=args.quiet)
    args.argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        args.instructions = _count_flag(
            args.instructions, 150_000, "--instructions"
        )
        if hasattr(args, "jobs"):  # omitted: the command's own default
            args.jobs = _count_flag(args.jobs, None, "--jobs")
        return _COMMANDS[args.command](args)
    except ReproError as error:
        # Fatal under the exit contract: nothing usable was produced.
        args.console.error(f"fatal: {type(error).__name__}: {error}")
        return EXIT_FATAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
