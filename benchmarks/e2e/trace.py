"""Outside-in layer tracing for the benchmark's traced pass.

Nothing under ``src/`` knows about this module.  For one traced pass it
replaces the public entry points of each pipeline layer with timing
wrappers, records every call as a span on an in-memory stack, and puts
every replaced attribute back afterwards: each replacement registers
its undo on a ``contextlib.ExitStack`` (:func:`replace`).

A span's *self* time is its duration minus the spans it called.  Each
wrapped call also costs its caller the wrapper's own bookkeeping, which
the untraced program never pays; :func:`calibrate` measures that cost
once per pass and :meth:`LayerTracer.layer_totals` subtracts it, per
child call, from the caller's self time.  What remains is compared with
the untraced wall time as ``trace.residual``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: the pipeline layers, named after the repo's modules
LAYERS = (
    "analysis",
    "robustness",
    "workloads",
    "attacks",
    "security",
    "os.kernel",
    "os.scheduler",
    "os.vm",
    "cpu",
    "core.timecache",
    "core.context",
    "defenses",
    "memsys",
)

#: bare and wrapped runs :func:`calibrate` makes, alternately, of each
CALIBRATION_REPEATS = 5

#: (metric key, count function over the wrapped call's positional args)
Units = Sequence[Tuple[str, Callable[[tuple], int]]]


def _one(args: tuple) -> int:
    return 1


def replace(
    patches: contextlib.ExitStack, owner: object, name: str, value: object
) -> None:
    """Set ``owner.name`` to ``value`` until ``patches`` closes.

    This is what ``unittest.mock.patch.object`` does: an attribute a
    class only inherited is deleted again rather than pinned onto it,
    and ``patches`` unwinds in reverse, so two replacements of one
    attribute undo correctly.  Importing ``unittest.mock`` would cost
    every pass 25-45 ms and 4 MiB, which ``setup_s`` and
    ``peak_rss_mib`` would count as the simulator's.
    """
    own = vars(owner)
    if name in own:
        patches.callback(setattr, owner, name, own[name])
    else:
        patches.callback(delattr, owner, name)
    setattr(owner, name, value)


class LayerTracer:
    """Spans at layer boundaries, aggregated per call path.

    Each distinct root-down sequence of layers is a *path*; a call into
    the layer already on top of the stack stays on the same path, so a
    layer calling itself shows as one frame.  Time is charged as it
    passes: every span boundary closes the running interval and bills it
    to the path on top of the stack, which yields self times directly.
    Per path the tracer also keeps calls, and how many wrapped calls it
    made.
    """

    def __init__(self, call_ns: float = 0.0) -> None:
        #: calibrated wrapper cost of one wrapped call
        self.call_ns = call_ns
        self.paths: List[Tuple[str, ...]] = [()]
        self.self_ns = [0]
        self.calls = [0]
        self.child_calls = [0]
        self.units: Dict[str, int] = {}
        self._ids: Dict[Tuple[int, str], int] = {}
        #: path ids of the open spans; path 0 (no layer) is the harness
        self._stack: List[int] = [0]
        #: when the running interval started
        self._mark = [time.perf_counter_ns()]

    def _path_id(self, parent: int, layer: str) -> int:
        key = (parent, layer)
        pid = self._ids.get(key)
        if pid is None:
            path = self.paths[parent]
            if path and path[-1] == layer:
                pid = parent
            else:
                pid = len(self.paths)
                self.paths.append(path + (layer,))
                for column in (self.self_ns, self.calls, self.child_calls):
                    column.append(0)
            self._ids[key] = pid
        return pid

    def wrap(self, layer: str, fn: Callable, units: Units = ()) -> Callable:
        """``fn`` timed as one span of ``layer`` per call.

        ``units`` count work done by calls that enter the layer from
        outside it (a layer calling itself is not counted twice).
        """
        stack = self._stack
        push, pop = stack.append, stack.pop
        mark = self._mark
        path_id = self._path_id
        self_ns, calls, children = self.self_ns, self.calls, self.child_calls
        tally = self.units
        clock = time.perf_counter_ns
        # the caller's path id, and this layer's path under it
        last_pid = last_cid = -1

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal last_pid, last_cid
            pid = stack[-1]
            if pid != last_pid:
                last_pid = pid
                last_cid = path_id(pid, layer)
            cid = last_cid
            if units and cid != pid:
                for key, count in units:
                    tally[key] = tally.get(key, 0) + count(args)
            now = clock()
            self_ns[pid] += now - mark[0]
            mark[0] = now
            push(cid)
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                self_ns[cid] += now - mark[0]
                mark[0] = now
                pop()
                calls[cid] += 1
                children[pid] += 1

        return wrapper

    # ------------------------------------------------------------------
    def _corrected_ns(self, pid: int) -> float:
        """Self time less the wrapper cost of its child calls; a span
        cheaper than the calibrated cost counts as 0, not negative."""
        return max(0.0, self.self_ns[pid] - self.child_calls[pid] * self.call_ns)

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Corrected self seconds and calls per layer (every layer listed)."""
        totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for pid, path in enumerate(self.paths):
            if not path:
                continue
            entry = totals[path[-1]]
            entry["self_s"] += self._corrected_ns(pid) / 1e9
            entry["calls"] += self.calls[pid]
        return totals

    def folded(self) -> Dict[str, int]:
        """``layer;layer;...`` -> corrected self nanoseconds."""
        return {
            ";".join(path): round(self._corrected_ns(pid))
            for pid, path in enumerate(self.paths)
            if path
        }


class _TimedGenerator:
    """A program generator whose every step is a span of one layer.

    The CPU drives programs with ``next``/``send``; each step runs the
    program's own code (the workload generator or attacker logic), so
    that is where the layer's time is measured.
    """

    __slots__ = ("_send",)

    def __init__(self, tracer: LayerTracer, layer: str, gen) -> None:
        self._send = tracer.wrap(layer, gen.send)

    def __next__(self):
        return self._send(None)

    def send(self, value):
        return self._send(value)


def calibrate() -> float:
    """Wrapper cost per wrapped call, in nanoseconds.

    Runs a fixed small SPEC pair, the same whatever workload is traced,
    bare and with every layer wrapped, alternately
    ``CALIBRATION_REPEATS`` times, and divides the median time
    difference by the calls one traced run wraps.  A loop over a
    trivial function measures about half this cost: inside the
    simulator the wrappers compete with the program for the processor's
    caches.
    """
    from repro.analysis import runner

    def run() -> int:
        start = time.perf_counter_ns()
        runner.spec_pair_sweep(
            pairs=[("wrf", "wrf")], instructions=20_000, seed=1, jobs=1,
            engine="fast",
        )
        return time.perf_counter_ns() - start

    run()  # lazy imports and first-use costs stay out of the difference
    differences = []
    calls = 0
    for _ in range(CALIBRATION_REPEATS):
        bare = run()
        scratch = LayerTracer()
        with contextlib.ExitStack() as patches:
            install_layers(scratch, patches)
            differences.append(run() - bare)
        calls = sum(scratch.calls)
    return max(0.0, statistics.median(differences) / calls)


# ----------------------------------------------------------------------
# What the traced pass wraps
# ----------------------------------------------------------------------
def _public_methods(cls: type) -> List[str]:
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


def _package_functions(package_name: str) -> List[Callable]:
    """Public functions defined in every module of a package."""
    package = importlib.import_module(package_name)
    found = []
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{package_name}.{info.name}")
        for name, value in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                found.append(value)
    return found


def _patch_function(
    patches: contextlib.ExitStack, fn: Callable, wrapper: Callable
) -> None:
    """Rebind ``fn`` to ``wrapper`` wherever a ``repro`` module holds it,
    so ``from x import fn`` copies are traced too."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for name, value in list(vars(module).items()):
            if value is fn:
                replace(patches, module, name, wrapper)


def _layer_of_program(module_name: str) -> Optional[str]:
    for layer in ("workloads", "attacks"):
        if module_name.startswith(f"repro.{layer}."):
            return layer
    return None


def install_layers(tracer: LayerTracer, patches: contextlib.ExitStack) -> None:
    """Wrap every layer's public entry points (see the README's map)."""
    from repro.analysis import runner, tournament
    from repro.core.context import ContextSwitchEngine
    from repro.core.timecache import TimeCacheSystem
    from repro.cpu.cpu import HardwareContext
    from repro.cpu.program import Program
    from repro.defenses.base import Defense
    from repro.memsys.fastengine import FastHierarchy
    from repro.memsys.hierarchy import MemoryHierarchy
    from repro.os.kernel import Kernel
    from repro.os.scheduler import RoundRobinScheduler
    from repro.os.vm import AddressSpace
    from repro.robustness.supervisor import SupervisedSweepExecutor
    from repro.security.stats import score_populations

    def function(layer: str, fn: Callable) -> None:
        _patch_function(patches, fn, tracer.wrap(layer, fn))

    def method(layer: str, cls: type, name: str, units: Units = ()) -> None:
        replace(patches, cls, name, tracer.wrap(layer, getattr(cls, name), units))

    for fn in (
        runner.spec_pair_sweep,
        runner.parsec_sweep,
        runner.batched_replay_run,
        tournament.run_tournament,
        tournament.run_tournament_cell,
    ):
        function("analysis", fn)
    method("robustness", SupervisedSweepExecutor, "run")
    for layer in ("workloads", "attacks"):
        for fn in _package_functions(f"repro.{layer}"):
            function(layer, fn)
    function("security", score_populations)

    method("os.kernel", Kernel, "__init__")
    method("os.kernel", Kernel, "run")
    for name in _public_methods(RoundRobinScheduler):
        method("os.scheduler", RoundRobinScheduler, name)
    method("os.vm", AddressSpace, "translate")
    method("cpu", HardwareContext, "step")
    for name in _public_methods(TimeCacheSystem):
        method("core.timecache", TimeCacheSystem, name)
    method("core.context", ContextSwitchEngine, "save")
    method(
        "core.context", ContextSwitchEngine, "restore",
        units=(("core.context.switches", _one),),
    )
    defenses = [Defense]
    while defenses:
        cls = defenses.pop()
        if "on_context_switch" in vars(cls):
            method("defenses", cls, "on_context_switch")
        defenses.extend(cls.__subclasses__())

    def batch_size(args: tuple) -> int:
        return len(args[2])  # (hierarchy, ctx, addrs, ...)

    for cls in (MemoryHierarchy, FastHierarchy):
        method("memsys", cls, "access", units=(("memsys.accesses", _one),))
        method(
            "memsys", cls, "access_batch",
            units=(
                ("memsys.accesses", batch_size),
                ("memsys.batched_accesses", batch_size),
            ),
        )
    method("memsys", MemoryHierarchy, "flush")

    start = Program.start

    def traced_start(program: Program):
        gen = start(program)
        layer = _layer_of_program(getattr(program._factory, "__module__", ""))
        return gen if layer is None else _TimedGenerator(tracer, layer, gen)

    replace(patches, Program, "start", traced_start)
