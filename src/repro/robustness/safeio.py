"""Crash-safe JSON persistence for every artifact the repo writes.

A sweep checkpoint is only useful if a kill at *any* instant leaves the
on-disk state loadable; a silently corrupt checkpoint is worse than no
checkpoint because ``--resume`` would trust it.  This module is the
single write/read path for durable JSON (sweep checkpoints, exported
results, bench baselines, run manifests, quarantine records) and makes
three guarantees:

* **atomicity** — payloads are serialized to a temp file in the target
  directory, flushed and ``fsync``'d, then ``os.replace``'d over the
  destination.  A kill mid-write leaves either the old file or the new
  file, never a torn one (the leftover ``.tmp`` is ignored and
  overwritten by the next write);
* **integrity** — every document carries an ``integrity`` field: the
  sha256 of its canonical JSON form (sorted keys, compact separators)
  computed *without* that field.  Truncation, bit flips, or a partial
  write are detected on read instead of being parsed into garbage;
* **recovery** — before each overwrite the current file is rotated to a
  ``.bak`` sibling, so one generation of last-known-good state always
  survives.  :func:`read_json_recovering` transparently falls back to
  the backup when the primary is corrupt and reports that it did.

Chaos seam
----------
:func:`install_io_hook` installs a process-wide hook observing every
(stage, path, data) triple.  The deterministic chaos injector
(:mod:`repro.robustness.chaos`) uses it to corrupt bytes in flight or to
raise transient ``OSError``; production code never installs a hook.
Stages: ``"serialize"`` (may transform the bytes about to be written —
byte corruption), ``"write"`` (may raise — transient IO error, retried
``IO_RETRIES`` times), ``"rename"`` (may raise — a kill between temp
write and publish).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.common.errors import CheckpointCorruptionError

INTEGRITY_KEY = "integrity"
BACKUP_SUFFIX = ".bak"
TMP_SUFFIX = ".tmp"
#: retries of a failed write before the error propagates; the chaos
#: campaign's three consecutive failing writes must exceed it
IO_RETRIES = 2

#: chaos/test seam: hook(stage, path, data) -> data (see module docstring)
IoHook = Callable[[str, Path, bytes], bytes]
_io_hook: Optional[IoHook] = None


def install_io_hook(hook: Optional[IoHook]) -> None:
    """Install (or with ``None`` clear) the process-wide IO hook."""
    global _io_hook
    _io_hook = hook


def _apply_hook(stage: str, path: Path, data: bytes) -> bytes:
    if _io_hook is None:
        return data
    return _io_hook(stage, path, data)


def _plain(value: object) -> object:
    """What the canonical form writes for a value JSON cannot hold:
    a dataclass as its :func:`dataclasses.asdict` tree, anything else as
    its ``str``."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    return str(value)


def canonical_json(value: object) -> str:
    """The canonical JSON text of ``value``: sorted keys, compact
    separators, dataclasses through :func:`dataclasses.asdict`.  Equal
    values give equal text in any process, on any machine."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=_plain)


def canonical_sha256(value: object) -> str:
    """sha256 hex digest of :func:`canonical_json`'s text: a config's
    fingerprint, a sweep cell's key, a document's integrity digest."""
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


def canonical_digest(payload: Mapping) -> str:
    """sha256 over the canonical JSON form, ignoring the integrity field."""
    return canonical_sha256(
        {k: v for k, v in payload.items() if k != INTEGRITY_KEY}
    )


def seal(payload: Mapping) -> Dict:
    """A copy of ``payload`` with its ``integrity`` field (re)computed."""
    sealed = {k: v for k, v in payload.items() if k != INTEGRITY_KEY}
    sealed[INTEGRITY_KEY] = {
        "algo": "sha256",
        "digest": canonical_digest(sealed),
    }
    return sealed


def file_safe(label: str) -> str:
    """``label`` as a file-name stem: every character but letters,
    digits and ``._-`` becomes ``_`` (a cell label's ``|`` and ``/``)."""
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in label)


def backup_path(path: Union[str, Path]) -> Path:
    path = Path(path)
    return path.with_suffix(path.suffix + BACKUP_SUFFIX)


def write_json_atomic(payload: Mapping, path: Union[str, Path]) -> Path:
    """Atomically publish ``payload`` (sealed with a checksum) at ``path``.

    Write order: temp file (+flush+fsync) → rotate the current file to
    ``.bak`` → ``os.replace`` temp over the destination → fsync the
    directory.  Transient ``OSError`` from the filesystem (or the chaos
    hook) is retried up to ``IO_RETRIES`` times before propagating.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    sealed = seal(payload)
    data = json.dumps(sealed, indent=2, sort_keys=True).encode() + b"\n"
    data = _apply_hook("serialize", target, data)
    tmp = target.with_suffix(target.suffix + TMP_SUFFIX)
    error: Optional[OSError] = None
    for _ in range(IO_RETRIES + 1):
        try:
            _apply_hook("write", target, data)
            with open(tmp, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            if target.exists():
                _rotate_backup(target)
            _apply_hook("rename", target, data)
            os.replace(tmp, target)
            _fsync_dir(target.parent)
            return target
        except OSError as exc:
            error = exc
            continue
    assert error is not None
    raise error


def _rotate_backup(target: Path) -> None:
    """Copy the current file to ``.bak`` (copy, not rename: the primary
    must never be missing, even between rotate and publish)."""
    bak = backup_path(target)
    tmp_bak = bak.with_suffix(bak.suffix + TMP_SUFFIX)
    tmp_bak.write_bytes(target.read_bytes())
    os.replace(tmp_bak, bak)


def _fsync_dir(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def validate_payload(
    payload: Mapping,
    *,
    expected_kind: Optional[str] = None,
    expected_schema: Optional[int] = None,
) -> Optional[str]:
    """``None`` if the document is acceptable, else the rejection reason.

    Documents without an ``integrity`` field are accepted as *legacy*
    (pre-checksum artifacts must stay resumable); when the field is
    present the digest must match.
    """
    integrity = payload.get(INTEGRITY_KEY)
    if integrity is not None:
        if not isinstance(integrity, Mapping):
            return "malformed integrity field"
        if integrity.get("digest") != canonical_digest(payload):
            return "content checksum mismatch"
    if expected_kind is not None and payload.get("kind") != expected_kind:
        return (
            f"kind {payload.get('kind')!r} (expected {expected_kind!r})"
        )
    if (
        expected_schema is not None
        and payload.get("schema") != expected_schema
    ):
        return (
            f"schema {payload.get('schema')!r} "
            f"(expected {expected_schema!r})"
        )
    return None


def read_json_verified(
    path: Union[str, Path],
    *,
    expected_kind: Optional[str] = None,
    expected_schema: Optional[int] = None,
) -> Dict:
    """Load one file, raising :class:`CheckpointCorruptionError` on any
    parse or validation failure (no backup fallback — see
    :func:`read_json_recovering`)."""
    path = Path(path)
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise CheckpointCorruptionError(path, reasons=[str(exc)]) from exc
    if not isinstance(payload, dict):
        raise CheckpointCorruptionError(
            path, reasons=["not a JSON object"]
        )
    reason = validate_payload(
        payload,
        expected_kind=expected_kind,
        expected_schema=expected_schema,
    )
    if reason is not None:
        raise CheckpointCorruptionError(path, reasons=[reason])
    return payload


def read_json_recovering(
    path: Union[str, Path],
    *,
    expected_kind: Optional[str] = None,
    expected_schema: Optional[int] = None,
) -> Tuple[Optional[Dict], bool]:
    """Load ``path``, falling back to its rotated backup.

    Returns ``(payload, recovered)`` — ``recovered`` is True when the
    primary was corrupt (or missing) and the ``.bak`` stood in.  A
    missing primary with no backup is a fresh start: ``(None, False)``.
    Both present but corrupt raises :class:`CheckpointCorruptionError`
    listing what was wrong with each candidate.
    """
    path = Path(path)
    bak = backup_path(path)
    reasons: List[str] = []
    primary_missing = not path.exists()
    if not primary_missing:
        try:
            return (
                read_json_verified(
                    path,
                    expected_kind=expected_kind,
                    expected_schema=expected_schema,
                ),
                False,
            )
        except CheckpointCorruptionError as exc:
            reasons.extend(f"{path.name}: {r}" for r in exc.reasons)
    if bak.exists():
        try:
            return (
                read_json_verified(
                    bak,
                    expected_kind=expected_kind,
                    expected_schema=expected_schema,
                ),
                True,
            )
        except CheckpointCorruptionError as exc:
            reasons.extend(f"{bak.name}: {r}" for r in exc.reasons)
    elif primary_missing:
        return None, False
    raise CheckpointCorruptionError(path, reasons=reasons)
