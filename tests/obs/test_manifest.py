"""Run manifests: determinism, artifact hashing, round trips."""

import json

import pytest

from repro.common.config import scaled_experiment_config
from repro.obs import RunManifest, config_fingerprint, load_manifest


def test_config_fingerprint_tracks_config_identity():
    a = scaled_experiment_config(llc_kib=64)
    b = scaled_experiment_config(llc_kib=64)
    c = scaled_experiment_config(llc_kib=128)
    assert config_fingerprint(a) == config_fingerprint(b)
    assert config_fingerprint(a) != config_fingerprint(c)


def test_manifest_fingerprint_is_deterministic(tmp_path):
    """Same command/config/artifacts -> same fingerprint, even though
    the volatile fields (timestamp, git, machine) may differ."""
    artifact = tmp_path / "out.json"
    artifact.write_text('{"x": 1}\n')
    config = scaled_experiment_config()
    first = RunManifest.build(
        command=["repro", "trace"], config=config, seed=9, artifacts=[artifact]
    )
    second = RunManifest.build(
        command=["repro", "trace"], config=config, seed=9, artifacts=[artifact]
    )
    second.created_at = "1999-01-01T00:00:00Z"
    second.git = {"sha": "something-else", "dirty": True}
    second.machine = {"python": "0.0"}
    assert first.fingerprint() == second.fingerprint()


def test_manifest_fingerprint_sees_artifact_content(tmp_path):
    artifact = tmp_path / "out.json"
    config = scaled_experiment_config()
    artifact.write_text("one")
    first = RunManifest.build(
        command="trace", config=config, seed=0, artifacts=[artifact]
    )
    artifact.write_text("two")
    second = RunManifest.build(
        command="trace", config=config, seed=0, artifacts=[artifact]
    )
    assert first.fingerprint() != second.fingerprint()


def test_manifest_defaults_come_from_config():
    """The engine and the config hash come from the config; the seed is
    the caller's."""
    config = scaled_experiment_config(engine="fast")
    manifest = RunManifest.build(command="x", config=config, seed=42)
    assert manifest.seed == 42
    assert manifest.engine == "fast"
    assert manifest.config_sha256 == config_fingerprint(config)


def test_manifest_write_load_round_trip(tmp_path):
    artifact = tmp_path / "results.json"
    artifact.write_text("[]\n")
    manifest = RunManifest.build(
        command=["repro", "export"],
        config=scaled_experiment_config(),
        seed=3,
        artifacts=[artifact],
        extra={"rows": 0},
    )
    path = manifest.write(tmp_path / "manifest.json")
    payload = load_manifest(path)
    assert payload["kind"] == "run_manifest"
    assert payload["seed"] == 3
    assert payload["fingerprint"] == manifest.fingerprint()
    assert payload["artifacts"][0]["name"] == "results.json"
    assert payload["artifacts"][0]["bytes"] == 3
    assert payload["extra"] == {"rows": 0}


def test_load_manifest_rejects_other_json(tmp_path):
    path = tmp_path / "not_manifest.json"
    path.write_text(json.dumps({"kind": "bench_baseline"}))
    with pytest.raises(ValueError, match="not a run manifest"):
        load_manifest(path)
