"""Tests for JSON export of experiment results."""

import pytest

from repro.analysis.experiment import run_spec_pair_experiment
from repro.analysis.export import (
    export_sweep,
    load_json,
    result_to_dict,
    save_json,
    summarize_json,
    sweep_to_dict,
)

from tests.conftest import tiny_config


@pytest.fixture(scope="module")
def result():
    return run_spec_pair_experiment(
        tiny_config(quantum=4_000), "namd", "namd", instructions=6_000
    )


def test_result_dict_schema(result):
    payload = result_to_dict(result)
    assert payload["label"] == "2Xnamd"
    assert payload["normalized_time"] >= 1.0
    assert set(payload["baseline"]["levels"]) == {"L1I", "L1D", "LLC"}
    assert payload["timecache"]["instructions"] > 0


def test_sweep_roundtrip(tmp_path, result):
    path = export_sweep([result], tmp_path / "sweep.json")
    loaded = load_json(path)
    assert loaded["kind"] == "spec_sweep"
    assert loaded["results"][0]["label"] == "2Xnamd"


def test_sweep_is_valid_json(tmp_path, result):
    import json

    path = export_sweep([result], tmp_path / "sweep.json")
    with open(path) as handle:
        json.load(handle)  # must parse cleanly


def test_schema_version_enforced(tmp_path):
    save_json({"schema": 99}, tmp_path / "bad.json")
    with pytest.raises(ValueError):
        load_json(tmp_path / "bad.json")


def test_summarize_json(result):
    payload = sweep_to_dict([result])
    summary = summarize_json(payload)
    assert summary["count"] == 1
    assert summary["geomean_normalized_time"] == result.normalized_time


def test_summarize_empty():
    assert summarize_json({"results": []}) == {"count": 0}
