"""Named counters: the one counter substrate of the simulator.

Each simulated component owns a :class:`StatGroup`; the experiment harness
(:mod:`repro.analysis`) reads the groups after a run to build the paper's
tables and figures, and an observability session
(:class:`~repro.obs.spans.ObsSession`) folds a finished system's
snapshot into a ``StatGroup("sim")`` of its own.  Everything is plain
counters — there is no sampling and no loss of precision.
"""

from __future__ import annotations

from typing import Dict


class Counter:
    """A named monotone counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name}={self.value})"


class _HotCounter(Counter):
    """A pre-bound counter handle for hot paths.

    ``StatGroup.counter(name)`` costs a dict lookup (and on the first call
    a string-keyed insert) per record; at millions of cache accesses per
    run that dominates.  A hot counter is fetched **once** at component
    construction time and incremented with plain attribute arithmetic.

    To keep ``snapshot()`` byte-identical with the lazy protocol — where a
    counter appears only once something created it — the handle registers
    itself in its group on the *first* increment and then drops the back
    reference, so the steady-state ``add()`` is one ``None`` check away
    from a bare ``self.value += amount``.
    """

    __slots__ = ("_group",)

    def __init__(self, name: str, group: "StatGroup") -> None:
        super().__init__(name)
        self._group = group

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount
        if self._group is not None:
            self._group._adopt(self)
            self._group = None


class StatGroup:
    """A named collection of counters.

    Components create counters lazily through :meth:`counter` (or
    :meth:`bound_counter` on hot paths), so the harness can snapshot
    whatever exists without a fixed schema.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: Dict[str, Counter] = {}
        #: hot counters handed out but not yet incremented — invisible to
        #: snapshot() until their first add(), like lazy counters are
        #: invisible until the first counter() call
        self._pending_hot: Dict[str, _HotCounter] = {}

    def counter(self, name: str) -> Counter:
        existing = self._counters.get(name)
        if existing is not None:
            return existing
        # Adopt a pending hot counter so explicit counter() calls keep
        # their create-at-zero semantics and both handles stay one object.
        hot = self._pending_hot.pop(name, None)
        created = hot if hot is not None else Counter(name)
        self._counters[name] = created
        return created

    def bound_counter(self, name: str) -> Counter:
        """A counter handle for hot paths: fetch once, then ``add()`` with
        no per-call dict or string work.  Snapshot visibility matches the
        lazy protocol — the counter appears on first increment."""
        existing = self._counters.get(name)
        if existing is not None:
            return existing
        pending = self._pending_hot.get(name)
        if pending is None:
            pending = _HotCounter(name, self)
            self._pending_hot[name] = pending
        return pending

    def _adopt(self, counter: "_HotCounter") -> None:
        self._counters[counter.name] = counter
        self._pending_hot.pop(counter.name, None)

    def get(self, name: str) -> int:
        """Value of a counter, 0 if it was never created."""
        counter = self._counters.get(name)
        return counter.value if counter else 0

    def snapshot(self) -> Dict[str, int]:
        """All counter values keyed as ``group.counter``."""
        return {
            f"{self.name}.{name}": c.value
            for name, c in sorted(self._counters.items())
        }

    def reset(self) -> None:
        for c in self._counters.values():
            c.reset()

    def __repr__(self) -> str:  # pragma: no cover
        return f"StatGroup({self.name}, {self.snapshot()})"
