"""Every attack's raw probe populations, pinned.

Each attack stages its machine, times its probes and finds its
eviction sets through :class:`~repro.attacks.base.SharedArrayScenario`.
This test holds what the attacks observe to recorded values: for every
tournament attack, every registered defense and both engines, the
collector's negative- and positive-arm latencies (seed 7, quick
sampling) are hashed together.  That covers the ``ftm`` and
``partition_flush`` populations, which no security baseline pins.

The latencies are simulated cycle counts, and the only randomness is
seeded ``random.Random`` streams; the digest was recorded on CPython
3.11.
"""

import hashlib
import json

import pytest

from repro.analysis.tournament import ATTACKS, ENGINES, cell_config
from repro.attacks.base import SharedArrayScenario
from repro.common.errors import SimulationError
from repro.defenses import defense_names

POPULATIONS_SHA256 = (
    "e5991ae453a546fad556bfb6620a4911034b8d90c91f2f48f095cb34e62e1aa8"
)


def test_every_attack_population_under_every_defense_is_pinned():
    populations = {
        f"{attack}|{defense}|{engine}": list(
            ATTACKS[attack].collect(cell_config(attack, defense, engine), 7, True)
        )
        for attack in ATTACKS
        for defense in defense_names()
        for engine in ENGINES
    }
    assert len(populations) == 132  # 11 attacks x 6 defenses x 2 engines
    digest = hashlib.sha256(
        json.dumps(populations, sort_keys=True).encode()
    ).hexdigest()
    assert digest == POPULATIONS_SHA256


@pytest.mark.parametrize("engine", ENGINES)
def test_congruent_lines_share_the_target_set_and_a_short_pool_raises(engine):
    config = cell_config("lru", "timecache", engine)
    ways = config.hierarchy.llc.ways
    scenario = SharedArrayScenario(config, shared_lines=4)
    space = scenario.attacker_proc.address_space
    target = space.translate(scenario.lines[1])
    found = scenario.congruent_lines(target, count=ways, lines_per_set=ways + 2)
    llc = scenario.kernel.system.hierarchy.llc
    shift = config.hierarchy.line_bytes.bit_length() - 1
    assert len(set(found)) == ways
    assert {llc.set_index(space.translate(v) >> shift) for v in found} == {
        llc.set_index(target >> shift)
    }
    # a contiguous pool holds exactly lines_per_set lines of every set
    short = SharedArrayScenario(config, shared_lines=4)
    with pytest.raises(SimulationError, match=f"{ways}/{ways + 1} congruent"):
        short.congruent_lines(target, count=ways + 1, lines_per_set=ways)
