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


class StatGroup:
    """A named collection of counters.

    Components create counters lazily through :meth:`counter` (or
    :meth:`bound_counter` on hot paths), so the harness can snapshot
    whatever exists without a fixed schema.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        #: counters created by counter(): reported from creation on
        self._counters: Dict[str, Counter] = {}
        #: counters only handed out by bound_counter(): reported while
        #: nonzero, like a lazy counter nothing has created yet
        self._bound: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        existing = self._counters.get(name)
        if existing is None:
            # A bound counter of this name becomes a created one: both
            # handles stay one object, reported from now on even at zero.
            existing = self._bound.pop(name, None) or Counter(name)
            self._counters[name] = existing
        return existing

    def bound_counter(self, name: str) -> Counter:
        """A counter handle for hot paths: fetch once, then bump it with
        no per-call dict or string work — ``add()``, or plain
        ``counter.value += 1``.  It is reported once its value is
        nonzero (so again not after :meth:`reset`), unless
        :meth:`counter` also creates it."""
        existing = self._counters.get(name) or self._bound.get(name)
        if existing is None:
            existing = self._bound[name] = Counter(name)
        return existing

    def get(self, name: str) -> int:
        """Value of a counter, 0 if it was never created."""
        counter = self._counters.get(name) or self._bound.get(name)
        return counter.value if counter else 0

    def snapshot(self) -> Dict[str, int]:
        """All reported counter values keyed as ``group.counter``."""
        items = {name: c.value for name, c in self._bound.items() if c.value}
        items.update((name, c.value) for name, c in self._counters.items())
        return {f"{self.name}.{name}": items[name] for name in sorted(items)}

    def reset(self) -> None:
        for c in (*self._counters.values(), *self._bound.values()):
            c.reset()

    def __repr__(self) -> str:  # pragma: no cover
        return f"StatGroup({self.name}, {self.snapshot()})"
