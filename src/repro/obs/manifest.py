"""Per-run manifests: what produced an artifact, exactly.

A manifest pins everything needed to reproduce or audit a run: the full
configuration (plus a short hash of it), the seed, the engine, the git
commit the code came from, the machine it ran on, and an index of the
artifacts it wrote (each with size and content hash).

Two hash notions, deliberately distinct:

* :func:`config_fingerprint` — sha256 over the *canonical JSON* of the
  config dataclass: equal configs hash equal, across processes and
  machines;
* :meth:`RunManifest.fingerprint` — sha256 over the deterministic
  fields only (command, config hash, seed, engine, artifact content
  hashes).  Volatile fields — timestamp, machine, git state — are
  excluded, so two runs of the same seed/config on different days
  produce the same fingerprint; the determinism test locks this in.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.common.config import SimConfig

MANIFEST_SCHEMA = 1


def config_to_dict(config: SimConfig) -> Dict:
    """The config as plain JSON-serializable data (dataclass tree)."""
    return dataclasses.asdict(config)


def config_fingerprint(config: SimConfig) -> str:
    """sha256 hex digest of the canonical JSON form of ``config``."""
    from repro.robustness import safeio

    return safeio.canonical_sha256(config)


def _git_info() -> Dict[str, Union[str, bool]]:
    """Best-effort commit identity; never raises (sweeps may run from a
    tarball with no git at all)."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5, check=True,
        ).stdout.strip()
        dirty = bool(
            subprocess.run(
                ["git", "status", "--porcelain"],
                capture_output=True, text=True, timeout=5, check=True,
            ).stdout.strip()
        )
        return {"sha": sha, "dirty": dirty}
    except Exception:
        return {"sha": "unknown", "dirty": False}


def machine_metadata() -> Dict:
    """Where a run or measurement came from, and when (``taken_at``,
    UTC) — medians and scores are only comparable against a baseline
    taken on similar hardware."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "taken_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _artifact_entry(path: Path) -> Dict:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return {
        "name": path.name,
        "bytes": path.stat().st_size,
        "sha256": digest.hexdigest(),
    }


@dataclass
class RunManifest:
    """Everything that identifies one run and its outputs."""

    command: Union[str, List[str]]
    config: Dict
    config_sha256: str
    seed: int
    engine: str
    git: Dict = field(default_factory=dict)
    machine: Dict = field(default_factory=dict)
    created_at: str = ""
    artifacts: List[Dict] = field(default_factory=list)
    extra: Dict = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        *,
        command: Union[str, List[str]],
        config: SimConfig,
        seed: int,
        artifacts: Sequence[Union[str, Path]] = (),
        extra: Optional[Dict] = None,
    ) -> "RunManifest":
        """Assemble a manifest for a finished run; hashes each artifact."""
        machine = machine_metadata()
        return cls(
            command=command,
            config=config_to_dict(config),
            config_sha256=config_fingerprint(config),
            seed=seed,
            engine=config.hierarchy.engine,
            git=_git_info(),
            machine=machine,
            created_at=machine.pop("taken_at"),
            artifacts=[_artifact_entry(Path(p)) for p in artifacts],
            extra=dict(extra or {}),
        )

    def fingerprint(self) -> str:
        """Deterministic identity: stable across machines and days for a
        fixed (command, config, seed, engine, artifact contents)."""
        stable = {
            "command": self.command,
            "config_sha256": self.config_sha256,
            "seed": self.seed,
            "engine": self.engine,
            "artifacts": [
                {"name": a["name"], "sha256": a["sha256"]}
                for a in self.artifacts
            ],
            "extra": self.extra,
        }
        from repro.robustness import safeio

        return safeio.canonical_sha256(stable)

    def to_dict(self) -> Dict:
        return {
            "schema": MANIFEST_SCHEMA,
            "kind": "run_manifest",
            "command": self.command,
            "config": self.config,
            "config_sha256": self.config_sha256,
            "seed": self.seed,
            "engine": self.engine,
            "git": self.git,
            "machine": self.machine,
            "created_at": self.created_at,
            "artifacts": self.artifacts,
            "fingerprint": self.fingerprint(),
            "extra": self.extra,
        }

    def write(self, path: Union[str, Path]) -> Path:
        """Publish the manifest crash-safely (atomic rename + checksum +
        rotated backup, like every JSON artifact the repo writes)."""
        from repro.robustness import safeio

        return safeio.write_json_atomic(self.to_dict(), path)


def load_manifest(path: Union[str, Path]) -> Dict:
    """Read a manifest back as plain data, validating the kind tag and
    the content checksum (corrupt manifests fall back to the rotated
    ``.bak`` before failing)."""
    from repro.common.errors import CheckpointCorruptionError
    from repro.robustness import safeio

    payload, _ = safeio.read_json_recovering(path)
    if payload is None:
        raise CheckpointCorruptionError(path, reasons=["missing file"])
    if payload.get("kind") != "run_manifest":
        raise ValueError(f"{path}: not a run manifest")
    return payload
