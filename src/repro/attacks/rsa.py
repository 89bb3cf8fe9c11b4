"""The classic GnuPG RSA key-extraction attack via flush+reload (§VI-A2).

The victim performs RSA exponentiation with the left-to-right
square-and-multiply algorithm, exactly the control-flow structure of the
GnuPG implementation the original flush+reload paper attacked: every
exponent bit executes ``square`` then ``reduce``; a **1** bit additionally
executes ``multiply`` then ``reduce``.  The three functions live on
distinct cache lines of a *shared library* segment mapped into both the
victim's and the attacker's address spaces.

The attacker runs concurrently on another core sharing the LLC.  In a
loop it flushes the three function lines, waits, and performs timed
reloads.  In the baseline, a reload hit means the victim fetched that
function since the last flush; the temporal pattern of ``square`` and
``multiply`` hits spells out the key bits.  Under TimeCache the attacker
never observes a hit (its reload is always a *first access*), so no bits
are recovered — the paper's headline security demonstration.

The victim's arithmetic is real: it computes ``pow(message, d, n)`` with
explicit square/multiply/reduce steps, and the attack harness verifies
the result against Python's ``pow`` — the side channel rides on genuine
secret-dependent control flow, not a scripted access pattern.

The library is the shared segment of a
:class:`~repro.attacks.base.SharedArrayScenario`, with the attacker on
context 0 and the signing victim on context 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.attacks.base import SharedArrayScenario
from repro.common.config import SimConfig
from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRng
from repro.cpu.isa import Compute, Exit, Flush, Ifetch, Load, Rdtsc
from repro.cpu.program import Program, ProgramGen


# ----------------------------------------------------------------------
# Key generation (small but real RSA)
# ----------------------------------------------------------------------
def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(rng: DeterministicRng, bits: int) -> int:
    while True:
        candidate = rng.randint(1 << (bits - 1), (1 << bits) - 1) | 1
        if _is_prime(candidate):
            return candidate


@dataclass(frozen=True)
class RsaKey:
    """A small RSA key pair (toy sizes keep the simulation fast; the
    side channel depends only on the bit pattern of ``d``)."""

    n: int
    e: int
    d: int

    @property
    def d_bits(self) -> List[int]:
        return [int(b) for b in bin(self.d)[2:]]


def generate_key(seed: int = 1, prime_bits: int = 32) -> RsaKey:
    """Deterministic RSA key generation (Miller-Rabin primes, e=65537)."""
    rng = DeterministicRng(seed)
    e = 65537
    while True:
        p = _random_prime(rng, prime_bits)
        q = _random_prime(rng, prime_bits)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if math.gcd(e, phi) != 1:
            continue
        d = pow(e, -1, phi)
        if d.bit_length() >= prime_bits:  # avoid degenerate short keys
            return RsaKey(n=p * q, e=e, d=d)


# ----------------------------------------------------------------------
# The attack
# ----------------------------------------------------------------------
@dataclass
class RsaAttackResult:
    """Everything the harness needs to judge the attack."""

    true_bits: List[int]
    recovered_bits: List[int]
    probe_hits: int
    probe_total: int
    samples: List[Tuple[int, bool, bool, bool]] = field(default_factory=list)
    #: raw reload latencies in probe order (three per sample — square,
    #: multiply, reduce), for distribution-level leakage scoring.
    latencies: List[int] = field(default_factory=list)
    ciphertext_ok: bool = False
    #: core-local cycles the victim's signing took (for comparing the
    #: constant-time mitigation's cost against the normal victim)
    victim_cycles: int = 0

    @property
    def accuracy(self) -> float:
        """Fraction of key bits recovered correctly (0.0 when nothing was
        recovered at all)."""
        if not self.recovered_bits:
            return 0.0
        n = min(len(self.true_bits), len(self.recovered_bits))
        matches = sum(
            1 for i in range(n) if self.true_bits[i] == self.recovered_bits[i]
        )
        return matches / len(self.true_bits)

    @property
    def key_recovered(self) -> bool:
        """The paper's success criterion, conservatively: most bits read
        out correctly."""
        return self.accuracy >= 0.9


#: function layout inside the shared "libgcrypt" text segment, in lines.
#: Functions are separated by padding lines like real code layout.
_SQUARE_LINE = 0
_MULTIPLY_LINE = 4
_REDUCE_LINE = 8
_LIB_LINES = 12


def run_rsa_attack(
    config: SimConfig,
    key: Optional[RsaKey] = None,
    message: int = 0x1234567,
    ifetches_per_call: int = 16,
    work_per_call: int = 2500,
    attacker_wait: int = 200,
    max_steps: int = 30_000_000,
    constant_time_victim: bool = False,
    victim_signs: bool = True,
) -> RsaAttackResult:
    """Run the full attack on a 2-core machine (attacker ctx0, victim ctx1).

    Returns recovered-vs-true bits; in the baseline configuration the
    recovery accuracy exceeds 90%, with TimeCache enabled the attacker
    sees zero probe hits and recovers nothing.

    ``constant_time_victim`` applies the software mitigation the paper
    contrasts with (Section VIII-C): the victim executes the multiply
    path for *every* exponent bit, discarding the result on clear bits.
    The fetch pattern becomes key-independent — but the signing pays the
    full multiply cost on every bit, the "significant performance
    penalty" of constant-time transformations.

    ``victim_signs=False`` runs the control arm of the
    distinguishability game: the victim stays scheduled and burns the
    same per-bit compute budget but never fetches the library lines, so
    the attacker's probe latencies sample the no-signing distribution.
    """
    if config.hierarchy.num_hw_contexts < 2:
        raise ConfigError("the RSA attack needs two hardware contexts")
    if key is None:
        key = generate_key()
    scenario = SharedArrayScenario(
        config, shared_lines=_LIB_LINES, attacker_ctx=0, victim_ctx=1
    )
    library = scenario.lines
    square_addr = library[_SQUARE_LINE]
    multiply_addr = library[_MULTIPLY_LINE]
    reduce_addr = library[_REDUCE_LINE]
    probe_addrs = (square_addr, multiply_addr, reduce_addr)

    # ------------------------------------------------------------------
    # Victim: genuine square-and-multiply over the secret exponent, with
    # each step's instruction fetches hitting the shared library lines.
    # ------------------------------------------------------------------
    result_box = {}

    def victim_program() -> ProgramGen:
        def call(fn_addr: int) -> ProgramGen:
            # Real code fetches instructions continuously while it runs,
            # so spread the function's fetches across its whole duration —
            # a burst-then-silence pattern would let fetches fall into the
            # attacker's blind window between probe and next flush.
            chunk = max(1, work_per_call // ifetches_per_call)
            for _ in range(ifetches_per_call):
                yield Ifetch(fn_addr)
                yield Compute(chunk)

        acc = 1
        for bit in key.d_bits:
            if not victim_signs:
                # Control arm: same schedule occupancy, no library use.
                yield Compute(2 * work_per_call)
                continue
            yield from call(square_addr)  # acc = acc^2
            acc = acc * acc
            yield from call(reduce_addr)  # acc mod n
            acc %= key.n
            if constant_time_victim:
                # Always-multiply transformation: same fetches and same
                # arithmetic on every bit; the product is kept only when
                # the bit is set.
                yield from call(multiply_addr)
                product = acc * message
                yield from call(reduce_addr)
                product %= key.n
                acc = product if bit else acc
            elif bit:
                yield from call(multiply_addr)  # acc *= m
                acc = acc * message
                yield from call(reduce_addr)
                acc %= key.n
        result_box["ciphertext"] = acc
        yield Exit()

    # ------------------------------------------------------------------
    # Attacker: flush the three lines, wait, timed reload of each.
    # ------------------------------------------------------------------
    threshold = scenario.threshold
    samples: List[Tuple[int, bool, bool, bool]] = []
    latencies: List[int] = []

    def attacker_program() -> ProgramGen:
        while True:
            for addr in probe_addrs:
                yield Flush(addr)
            yield Compute(attacker_wait)
            stamp = yield Rdtsc()
            hits = []
            for addr in probe_addrs:
                latency, _ = yield from SharedArrayScenario.timed(Load(addr))
                latencies.append(latency)
                hits.append(latency < threshold)
            samples.append((stamp, hits[0], hits[1], hits[2]))

    scenario.launch(
        Program("fr_spy", attacker_program),
        Program("gpg_sign", victim_program),
    )
    victim_task = scenario.victim_task
    scenario.run(
        max_steps=max_steps, stop_when=lambda k: k.task_done(victim_task)
    )

    recovered = decode_key_bits(samples)
    probe_hits = sum(h0 + h1 + h2 for _, h0, h1, h2 in samples)
    return RsaAttackResult(
        true_bits=key.d_bits,
        recovered_bits=recovered,
        probe_hits=probe_hits,
        probe_total=3 * len(samples),
        samples=samples,
        latencies=latencies,
        ciphertext_ok=result_box.get("ciphertext") == pow(message, key.d, key.n),
        victim_cycles=victim_task.cycles,
    )


def decode_key_bits(samples: List[Tuple[int, bool, bool, bool]]) -> List[int]:
    """Recover exponent bits from (time, square, multiply, reduce) samples.

    Square hits are clustered into *square events* (one per exponent
    bit); a bit is decoded as 1 when any multiply hit falls between two
    consecutive square events — the decoding rule of the original
    flush+reload attack.
    """
    square_idx = [i for i, s in enumerate(samples) if s[1]]
    if not square_idx:
        return []
    # Cluster square-hit samples separated by at most one missed sample.
    events: List[Tuple[int, int]] = []  # (first_sample, last_sample)
    start = prev = square_idx[0]
    for i in square_idx[1:]:
        if i - prev <= 2:
            prev = i
        else:
            events.append((start, prev))
            start = prev = i
    events.append((start, prev))

    bits: List[int] = []
    for k, (_, last) in enumerate(events):
        window_end = events[k + 1][0] if k + 1 < len(events) else len(samples)
        saw_multiply = any(
            samples[i][2] for i in range(last + 1, window_end)
        )
        bits.append(1 if saw_multiply else 0)
    return bits
