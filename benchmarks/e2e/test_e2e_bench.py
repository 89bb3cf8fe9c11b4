"""Harness tests for the end-to-end benchmark (tiny sizes, in process).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

import contextlib
import inspect
import json
import sys

import pytest

from benchmarks.e2e import passes, run
from benchmarks.e2e.trace import LayerTracer, install_layers

#: sizes small enough for a unit test; every layer the full pass
#: touches is still reached
TINY = {
    "spec_pair": {"instructions": 5_000, "pairs": (("wrf", "wrf"),)},
    "parsec": {"instructions_per_thread": 5_000, "benchmarks": ("x264",)},
    "tournament": {"n_boot": 20, "attacks": ("flush_reload", "coherence")},
    "replay": {"accesses": 5_000, "hot_fractions": (0.9,)},
}


def _fake_pass(cells):
    return {"cells": [[f"c{i}", s, True, 0] for i, s in enumerate(cells)],
            "instructions": 1, "overhead_err_pp": None, "wall_s": 1.0,
            "setup_s": 0.1, "stretch_s": [1.0],
            "reference_s": [run.REFERENCE_S] * 2}


def test_p99_reported_only_with_ten_samples_beyond_it():
    assert run.tail_percentile([float(i) for i in range(999)]) is None
    value, beyond = run.tail_percentile([float(i) for i in range(1000)])
    assert (value, beyond) == (989.0, 10)
    assert "cell_s_p99" not in run.extra_metrics([_fake_pass(range(999))])
    assert "cell_s_p99" in run.extra_metrics([_fake_pass(range(1000))])


def test_doctored_oracle_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    oracle = tmp_path / "ORACLE.json"
    oracle.write_text(json.dumps({"digests": {"parsec": {"3": "0" * 64}}}))
    monkeypatch.setattr(run, "ORACLE_PATH", oracle)
    monkeypatch.setattr(
        run, "run_child",
        lambda spec, timeout: passes.run_pass(
            **{k: v for k, v in spec.items() if k != "spawn_ns"},
            sizes=TINY["parsec"],
        ),
    )
    code = run.main([
        "--workload", "parsec", "--seed", "3", "--seconds", "0",
        "--output-dir", str(tmp_path),
    ])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["attempted"] > 0 and result["failed"] == result["attempted"]


def _attribute_snapshot():
    """Every attribute of every loaded repro module and of its classes."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for owner in [module] + [
            v for v in vars(module).values()
            if inspect.isclass(v) and v.__module__.startswith("repro")
        ]:
            snapshot[id(owner)] = (owner, dict(vars(owner)))
    return snapshot


def test_install_and_restore_leaves_nothing_patched():
    from repro.os.kernel import Kernel
    from repro.robustness.supervisor import SupervisedSweepExecutor

    # a first round imports every layer's modules
    with contextlib.ExitStack() as patches:
        install_layers(LayerTracer(), patches)
    before = _attribute_snapshot()
    with contextlib.ExitStack() as patches:
        install_layers(LayerTracer(), patches)
        assert hasattr(Kernel.run, "__wrapped__")
        assert "run" in vars(SupervisedSweepExecutor)
    after = _attribute_snapshot()
    assert "run" not in vars(SupervisedSweepExecutor)
    assert after.keys() == before.keys()
    for key, (owner, attrs) in before.items():
        current = after[key][1]
        assert current.keys() == attrs.keys(), owner
        changed = [n for n in attrs if current[n] is not attrs[n]]
        assert not changed, (owner, changed)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_pass_reports_every_declared_metric(workload):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seed = 3
    timed = [passes.run_pass(workload, seed, sizes=TINY[workload]) for _ in range(2)]
    traced = passes.run_pass(workload, seed, trace=True, sizes=TINY[workload])
    assert run.count_failures(timed + [traced], None) == (
        3 * len(timed[0]["cells"]), 0,
    )
    e2e = run.end_to_end_metrics(timed)
    layers = run.per_layer_metrics(traced, e2e["wall_s"][0])
    for emitted, section in ((e2e, "end_to_end"), (layers, "per_layer")):
        assert {k: unit for k, (_, unit) in emitted.items()} == {
            m["name"]: m["unit"] for m in declared[section]
        }
