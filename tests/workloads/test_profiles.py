"""Unit tests for benchmark profiles."""

import dataclasses

import pytest

from repro.common.errors import ConfigError
from repro.os.kernel import Kernel
from repro.workloads.generator import WorkloadBuilder
from repro.workloads.profiles import (
    LIB_LINES,
    PARSEC_PROFILES,
    SPEC_PROFILES,
    BenchmarkProfile,
    parsec_profile,
    spec_profile,
)

from tests.conftest import tiny_config


def test_all_spec_profiles_valid():
    for profile in SPEC_PROFILES.values():
        profile.validate()


def test_all_parsec_profiles_valid():
    for profile in PARSEC_PROFILES.values():
        profile.validate()


def test_table2_spec_benchmarks_present():
    expected = {
        "specrand", "lbm", "leslie3d", "gobmk", "libquantum", "wrf",
        "calculix", "sjeng", "perlbench", "astar", "h264ref", "milc",
        "sphinx3", "namd", "gromacs", "zeusmp", "cactus",
    }
    assert expected <= set(SPEC_PROFILES)


def test_table2_parsec_benchmarks_present():
    expected = {
        "fluidanimate", "raytrace", "blackscholes", "x264", "swaptions",
        "facesim",
    }
    assert expected == set(PARSEC_PROFILES)


def test_streaming_group_has_higher_stream_fraction():
    """The Table II high-MPKI group must be the streaming-heavy one."""
    high = ["lbm", "leslie3d", "milc", "cactus", "zeusmp"]
    low = ["specrand", "namd", "calculix", "sphinx3"]
    min_high = min(SPEC_PROFILES[b].stream_fraction for b in high)
    max_low = max(SPEC_PROFILES[b].stream_fraction for b in low)
    assert min_high > max_low


def test_wrf_and_perlbench_have_large_shared_instruction_footprints():
    """Figure 8's callout: their first-access MPKI is driven by shared
    instruction memory."""
    others = [
        p.shared_lib_lines
        for name, p in SPEC_PROFILES.items()
        if name not in ("wrf", "perlbench")
    ]
    assert SPEC_PROFILES["wrf"].shared_lib_lines >= max(others)
    assert SPEC_PROFILES["perlbench"].shared_lib_lines >= max(others)


def test_lookup_helpers():
    assert spec_profile("lbm").name == "lbm"
    assert parsec_profile("x264").name == "x264"
    with pytest.raises(ConfigError):
        spec_profile("doom")
    with pytest.raises(ConfigError):
        parsec_profile("doom")


class TestValidation:
    def base(self, **kw):
        args = dict(
            name="x", data_lines=10, code_lines=10, shared_lib_lines=10,
            stream_fraction=0.5,
        )
        args.update(kw)
        return BenchmarkProfile(**args)

    def test_rejects_bad_footprint(self):
        with pytest.raises(ConfigError):
            self.base(data_lines=0).validate()

    def test_rejects_bad_fractions(self):
        with pytest.raises(ConfigError):
            self.base(stream_fraction=1.5).validate()
        with pytest.raises(ConfigError):
            self.base(hot_fraction=-0.1).validate()
        with pytest.raises(ConfigError):
            self.base(mem_ratio=0.0).validate()
        with pytest.raises(ConfigError):
            self.base(write_ratio=2.0).validate()

    def test_rejects_bad_rates(self):
        with pytest.raises(ConfigError):
            self.base(syscall_every=0).validate()
        with pytest.raises(ConfigError):
            self.base(ifetch_every=0).validate()
        with pytest.raises(ConfigError):
            self.base(stream_accesses_per_line=0).validate()

    def test_rejects_shared_lib_lines_outside_libc(self):
        self.base(shared_lib_lines=0).validate()
        self.base(shared_lib_lines=LIB_LINES).validate()
        with pytest.raises(ConfigError):
            self.base(shared_lib_lines=LIB_LINES + 1).validate()
        with pytest.raises(ConfigError):
            self.base(shared_lib_lines=-1).validate()


def test_oversized_libc_footprint_fails_before_any_op_runs():
    """600 libc lines used to build, then page-fault mid-run."""
    kernel = Kernel(tiny_config())
    profile = dataclasses.replace(spec_profile("perlbench"), shared_lib_lines=600)
    with pytest.raises(ConfigError, match="shared_lib_lines"):
        WorkloadBuilder(kernel).build_process(profile, 0, instructions=5_000)
    assert kernel.tasks == [] and kernel.contexts[0].local_time == 0
