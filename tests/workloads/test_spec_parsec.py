"""Integration tests for SPEC-pair and PARSEC workload construction."""

import pytest

from repro.os.kernel import Kernel
from repro.workloads.mixes import (
    PARSEC_BENCHMARKS,
    SPEC_MIXED_PAIRS,
    SPEC_SAME_PAIRS,
    pair_label,
)
from repro.workloads.parsec import build_parsec_workload
from repro.workloads.spec import build_spec_pair

from tests.conftest import tiny_config


class TestSpecPair:
    def test_pair_runs_to_completion(self):
        kernel = Kernel(tiny_config(quantum=3_000))
        ta, tb = build_spec_pair(kernel, "namd", "gromacs", instructions=4_000)
        summary = kernel.run()
        assert kernel.all_done()
        assert summary.per_task_instructions[ta.name] >= 4_000
        assert summary.per_task_instructions[tb.name] >= 4_000

    def test_pair_time_slices_on_one_core(self):
        kernel = Kernel(tiny_config(quantum=2_000))
        build_spec_pair(kernel, "astar", "astar", instructions=8_000)
        summary = kernel.run()
        assert summary.context_switches > 2
        assert all(t.affinity == 0 for t in kernel.tasks)

    def test_same_pair_shares_more_than_mixed_pair(self):
        same = Kernel(tiny_config())
        ta, tb = build_spec_pair(same, "h264ref", "h264ref", instructions=10)
        mixed = Kernel(tiny_config())
        tc, td = build_spec_pair(mixed, "h264ref", "sjeng", instructions=10)
        from repro.workloads.generator import CODE_BASE

        def code_page(task):
            return task.process.address_space.translate(CODE_BASE)

        assert code_page(ta) == code_page(tb)
        assert code_page(tc) != code_page(td)


class TestParsec:
    def test_threads_pinned_to_different_cores(self):
        kernel = Kernel(tiny_config(num_cores=2))
        t0, t1 = build_parsec_workload(kernel, "swaptions", 2_000)
        assert t0.affinity == 0
        assert t1.affinity == 1
        assert t0.process is t1.process

    def test_runs_to_completion(self):
        kernel = Kernel(tiny_config(num_cores=2))
        build_parsec_workload(kernel, "blackscholes", 3_000)
        kernel.run()
        assert kernel.all_done()

    def test_no_context_switch_bookkeeping_cost(self):
        """Each thread owns its core: after the initial dispatches there
        are no CR3 changes, so PARSEC overhead is all first accesses."""
        kernel = Kernel(tiny_config(num_cores=2))
        build_parsec_workload(kernel, "swaptions", 2_000)
        summary = kernel.run()
        assert summary.context_switches == 2  # the two initial dispatches

    def test_needs_two_cores(self):
        from repro.common.errors import ConfigError

        kernel = Kernel(tiny_config(num_cores=1))
        with pytest.raises(ConfigError):
            build_parsec_workload(kernel, "swaptions", 100)


class TestMixes:
    def test_table2_pair_counts(self):
        assert len(SPEC_SAME_PAIRS) == 15
        assert len(SPEC_MIXED_PAIRS) == 9
        assert len(PARSEC_BENCHMARKS) == 6

    def test_same_pairs_are_same(self):
        assert all(a == b for a, b in SPEC_SAME_PAIRS)

    def test_mixed_pairs_are_mixed(self):
        assert all(a != b for a, b in SPEC_MIXED_PAIRS)

    def test_pair_labels(self):
        assert pair_label("lbm", "lbm") == "2Xlbm"
        assert pair_label("namd", "lbm") == "namd+lbm"

    def test_all_pair_benchmarks_have_profiles(self):
        from repro.workloads.profiles import SPEC_PROFILES

        for a, b in SPEC_SAME_PAIRS + SPEC_MIXED_PAIRS:
            assert a in SPEC_PROFILES and b in SPEC_PROFILES
