"""Deterministic random number generation for reproducible experiments.

Every stochastic component (workload generators, address randomization,
attack jitter) draws from a :class:`DeterministicRng` seeded from the
experiment configuration, so a given configuration always produces the
same trace, the same misses, and the same measured overheads.
"""

from __future__ import annotations

import random
import zlib
from typing import Callable, List, Sequence, Tuple, TypeVar

T = TypeVar("T")


class DeterministicRng:
    """Thin wrapper over :class:`random.Random` with derived sub-streams.

    ``fork(name)`` derives an independent generator from the parent seed and
    a label, so adding a new consumer of randomness does not perturb the
    streams other components see — a property plain shared ``Random`` use
    does not have.
    """

    __slots__ = ("_seed", "_rng")

    def __init__(self, seed: int = 0xC0FFEE) -> None:
        self._seed = seed
        self._rng = random.Random(seed)

    @property
    def seed(self) -> int:
        return self._seed

    def fork(self, name: str) -> "DeterministicRng":
        """Derive an independent, reproducible sub-stream keyed by ``name``.

        Uses a *stable* hash (crc32), not Python's ``hash()``: string
        hashing is randomized per interpreter process (PYTHONHASHSEED),
        which would make experiments reproducible only within one
        process, not across runs.
        """
        derived = zlib.crc32(f"{self._seed}/{name}".encode()) ^ (
            self._seed << 16
        )
        return DeterministicRng(derived & 0xFFFFFFFFFFFF)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        return self._rng.randint(lo, hi)

    def random(self) -> float:
        return self._rng.random()

    def bound_draws(
        self,
    ) -> Tuple[Callable[[int, int], int], Callable[[], float]]:
        """``(randint, random)`` drawing from this stream, for hot loops.

        ``randint(lo, hi)`` repeats what :meth:`random.Random.randint`
        does for a non-empty range — CPython's
        ``_randbelow_with_getrandbits`` rejection loop over
        ``getrandbits`` — so both return the same values from the same
        state and advance it alike, in one Python-level call per draw
        where :meth:`randint` makes four.  ``random`` is the stream's
        bound ``Random.random``.
        """
        getrandbits = self._rng.getrandbits

        def randint(lo: int, hi: int) -> int:
            n = hi - lo + 1
            if n <= 0:
                raise ValueError(f"empty range for randint({lo}, {hi})")
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            return lo + r

        return randint, self._rng.random

    @property
    def getrandbits(self) -> Callable[[int], int]:
        """The stream's bound ``Random.getrandbits``, for hot loops that
        inline a fixed-range :meth:`bound_draws` ``randint``."""
        return self._rng.getrandbits

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def shuffle(self, seq: List[T]) -> None:
        self._rng.shuffle(seq)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        return self._rng.sample(seq, k)

    def geometric(self, p: float) -> int:
        """Number of failures before the first success, ``p`` in (0, 1].

        Used by the stack-distance locality model in the workload
        generators.
        """
        if not 0.0 < p <= 1.0:
            raise ValueError(f"geometric parameter must be in (0, 1], got {p}")
        count = 0
        while self._rng.random() >= p:
            count += 1
            if count > 1_000_000:  # pathological p ~ 0 guard
                break
        return count

    def zipf_index(self, n: int, skew: float = 1.0) -> int:
        """Index in [0, n) drawn from a (truncated) Zipf-like distribution.

        Implemented by inverse-transform over the harmonic weights; cheap
        enough for workload generation at the scales we simulate.
        """
        if n <= 0:
            raise ValueError("zipf_index needs n >= 1")
        # Rejection-free approximate sampling: draw u and walk the CDF.
        # For the small n used by workload phase selection this is fine.
        weights = [1.0 / ((i + 1) ** skew) for i in range(n)]
        total = sum(weights)
        u = self._rng.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if u <= acc:
                return i
        return n - 1
