"""One pass of one workload, timed or traced, in this process.

``run.py`` starts this file as a fresh child process per pass, with a
JSON spec as its only argument, and reads the JSON result from the
last line of its standard output.  Tests call :func:`run_pass`
directly.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path
from typing import Dict, Optional

ROOT = Path(__file__).resolve().parents[2]
if not __package__:  # started as a script by run.py
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e import workloads  # noqa: E402
from benchmarks.e2e.trace import (  # noqa: E402
    LayerTracer,
    calibrate,
    install_layers,
)


def _set_up() -> None:
    """What a pass needs before it can run: the sweep modules imported
    and the first simulated machine built."""
    from repro.analysis import runner, tournament  # noqa: F401
    from repro.common.config import scaled_experiment_config
    from repro.os.kernel import Kernel

    Kernel(scaled_experiment_config(engine="fast"))


def _traced_extras(tracer: LayerTracer, session) -> Dict[str, object]:
    from repro.obs.spans import folded_to_lines

    session.finalize()
    counters = session.counters.snapshot()
    return {
        "layers": tracer.layer_totals(),
        "units": dict(tracer.units),
        "folded": folded_to_lines(tracer.folded()),
        "calibration_ns": tracer.call_ns,
        "kernel": session.kernel_phases.to_payload(),
        "llc": {
            key: counters.get(f"sim.LLC.{key}", 0)
            for key in ("misses", "cold_misses", "first_access_misses")
        },
    }


def run_pass(
    workload: str,
    seed: int,
    engine: str = "fast",
    trace: bool = False,
    sizes: Optional[Dict[str, object]] = None,
    spawn_ns: Optional[int] = None,
    rows: bool = False,
) -> Dict[str, object]:
    """Run one pass and return what ``run.py`` aggregates.

    ``spawn_ns`` is ``run.py``'s ``time.monotonic_ns()`` just before it
    started this process, so ``setup_s`` covers interpreter start-up,
    imports and the first machine construction.  ``wall_s`` is the
    workload's host time, reference samples excluded; ``stretch_s`` and
    ``reference_s`` let ``run.py`` scale it (see ``PassRecord``).  A
    traced pass samples only before and after the workload, so no
    sample lands in a layer's self time.  ``rows`` also returns the
    canonical outputs, not just their digest.
    """
    if spawn_ns is None:
        spawn_ns = time.monotonic_ns()
    _set_up()
    setup_s = (time.monotonic_ns() - spawn_ns) / 1e9
    record = workloads.PassRecord(sample_between_cells=not trace)
    run = workloads.WORKLOADS[workload]
    tracer = session = None
    # Calibration simulates too, so it runs before the tally is installed.
    call_ns = calibrate() if trace else 0.0
    with contextlib.ExitStack() as patches:
        workloads.install_kernel_tally(patches, record)
        scope = contextlib.nullcontext()
        if trace:
            from repro.obs.spans import ObsSession, session_scope

            tracer = LayerTracer(call_ns)
            install_layers(tracer, patches)
            # The session's kernel-phase accumulator attaches to every
            # system built while it is installed.
            session = ObsSession("e2e")
            scope = session_scope(session)
        with scope:
            record.sample(force=True)
            run(record, seed, engine, **(sizes or {}))
            record.sample(force=True)
    extras = _traced_extras(tracer, session) if tracer is not None else {}
    result: Dict[str, object] = {
        "setup_s": setup_s,
        "wall_s": sum(record.stretch_s),
        "stretch_s": record.stretch_s,
        "reference_s": record.reference_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cells": record.cells,
        "mismatches": record.mismatches,
        "digest": workloads.digest(record.rows),
        "instructions": record.instructions,
        "cycles": record.cycles,
        "context_switches": record.context_switches,
        "overhead_err_pp": record.overhead_err_pp,
        **extras,
    }
    if rows:
        result["rows"] = record.rows
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    print(json.dumps(run_pass(**spec)))
