"""Unit tests for deterministic RNG streams."""

import random

import pytest

from repro.common.rng import DeterministicRng


def test_same_seed_same_stream():
    a = DeterministicRng(7)
    b = DeterministicRng(7)
    assert [a.randint(0, 100) for _ in range(20)] == [
        b.randint(0, 100) for _ in range(20)
    ]


def test_different_seeds_differ():
    a = DeterministicRng(7)
    b = DeterministicRng(8)
    assert [a.randint(0, 10_000) for _ in range(10)] != [
        b.randint(0, 10_000) for _ in range(10)
    ]


def test_fork_is_deterministic_and_independent():
    a1 = DeterministicRng(7).fork("workload")
    a2 = DeterministicRng(7).fork("workload")
    other = DeterministicRng(7).fork("attacker")
    seq1 = [a1.randint(0, 10_000) for _ in range(10)]
    seq2 = [a2.randint(0, 10_000) for _ in range(10)]
    seq3 = [other.randint(0, 10_000) for _ in range(10)]
    assert seq1 == seq2
    assert seq1 != seq3


def test_fork_stable_across_processes():
    """fork() must not depend on Python's randomized string hashing:
    the derived stream is pinned to a golden value so any accidental
    reintroduction of ``hash()`` fails this test in some processes."""
    stream = DeterministicRng(7).fork("workload")
    in_process = [stream.randint(0, 10**6) for _ in range(3)]
    import subprocess
    import sys
    from pathlib import Path

    import repro

    # The child is spawned with a scrubbed environment, so `repro` is not
    # importable unless the package's source directory is put back on its
    # path explicitly.
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    script = (
        "from repro.common.rng import DeterministicRng;"
        "r = DeterministicRng(7).fork('workload');"
        "print([r.randint(0, 10**6) for _ in range(3)])"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={
            "PYTHONHASHSEED": "random",
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": src_dir,
        },
    ).stdout.strip()
    assert out == str(in_process)


def test_fork_does_not_perturb_parent():
    a = DeterministicRng(7)
    b = DeterministicRng(7)
    a.fork("anything")  # deriving a stream must not consume parent state
    assert a.randint(0, 10**9) == b.randint(0, 10**9)


def test_geometric_in_range():
    rng = DeterministicRng(1)
    for _ in range(100):
        assert rng.geometric(0.5) >= 0


def test_geometric_rejects_bad_p():
    rng = DeterministicRng(1)
    with pytest.raises(ValueError):
        rng.geometric(0.0)
    with pytest.raises(ValueError):
        rng.geometric(1.5)


def test_zipf_index_in_range_and_skewed():
    rng = DeterministicRng(1)
    draws = [rng.zipf_index(10, skew=1.5) for _ in range(500)]
    assert all(0 <= d < 10 for d in draws)
    # index 0 must be the most common under positive skew
    counts = [draws.count(i) for i in range(10)]
    assert counts[0] == max(counts)


def test_zipf_index_rejects_empty():
    with pytest.raises(ValueError):
        DeterministicRng(1).zipf_index(0)


def test_choice_shuffle_sample_work():
    rng = DeterministicRng(2)
    seq = list(range(10))
    assert rng.choice(seq) in seq
    picked = rng.sample(seq, 3)
    assert len(picked) == 3 and len(set(picked)) == 3
    rng.shuffle(seq)
    assert sorted(seq) == list(range(10))


def test_bound_draws_match_random_randint():
    """The bound ``randint`` returns what ``Random.randint`` returns,
    draw for draw, over every range a workload profile can ask for, and
    leaves the stream where ``Random`` would (checked through the
    interleaved ``random`` draws)."""
    from repro.workloads.profiles import PARSEC_PROFILES, SPEC_PROFILES

    profiles = [*SPEC_PROFILES.values(), *PARSEC_PROFILES.values()]
    widest = max(p.data_lines for p in profiles)
    ranges = [(1, 4), (3, 3)] + [(0, hi) for hi in range(widest)]
    randint, draw = DeterministicRng(11).bound_draws()
    reference = random.Random(11)
    for lo, hi in ranges:
        assert randint(lo, hi) == reference.randint(lo, hi), (lo, hi)
        assert draw() == reference.random()


def test_bound_randint_rejects_empty_range():
    randint, _ = DeterministicRng(1).bound_draws()
    with pytest.raises(ValueError):
        randint(5, 4)
