"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's artifacts (a table or a
figure), prints it in the paper's layout, and asserts the paper's *shape*
claims — who wins, orderings, trends — rather than absolute numbers (the
substrate is a behavioral Python model, not the authors' gem5 testbed).

Scale knobs (environment):

* ``REPRO_BENCH_INSTRUCTIONS``  — instructions per SPEC process
  (default 250000, the scale the checked-in EXPERIMENTS.md numbers used).
* ``REPRO_PARSEC_INSTRUCTIONS`` — instructions per PARSEC thread
  (default 800000).

Lowering them gives a fast smoke run; raising them tightens the match.
"""

import os

import pytest


def bench_instructions() -> int:
    return int(os.environ.get("REPRO_BENCH_INSTRUCTIONS", "250000"))


def parsec_instructions() -> int:
    return int(os.environ.get("REPRO_PARSEC_INSTRUCTIONS", "800000"))


@pytest.fixture
def spec_instructions():
    return bench_instructions()


@pytest.fixture
def parsec_thread_instructions():
    return parsec_instructions()


def run_once(benchmark, fn, *args, **kwargs):
    """Run a heavy experiment exactly once under pytest-benchmark.

    Simulation experiments are deterministic and expensive; one round is
    both sufficient and honest (re-running would measure the same work).
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
