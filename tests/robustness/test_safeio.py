"""Crash-safe JSON: corruption detection, backup recovery, the IO seam.

The acceptance bar for this layer: every corruption a kill or a bad
disk can produce — truncation, flipped bytes, a stale schema, a torn
rename — must be *detected* on read and healed from the rotated
last-good backup, and a sweep resumed over the healed state must end
byte-identical to one that was never interrupted.
"""

import json

import pytest

from repro.analysis.runner import result_checkpoint, spec_pair_jobs
from repro.common.errors import CheckpointCorruptionError
from repro.robustness import safeio
from repro.robustness.resilience import CHECKPOINT_SCHEMA
from repro.robustness.supervisor import SupervisedSweepExecutor
from repro.workloads.mixes import pair_label

PAYLOAD = {"schema": 1, "kind": "thing", "values": [1, 2, 3]}


class TestWriteRead:
    def test_round_trip_and_integrity_field(self, tmp_path):
        path = tmp_path / "doc.json"
        safeio.write_json_atomic(PAYLOAD, path)
        loaded = safeio.read_json_verified(
            path, expected_kind="thing", expected_schema=1
        )
        assert loaded["values"] == [1, 2, 3]
        assert loaded[safeio.INTEGRITY_KEY]["algo"] == "sha256"
        assert (
            loaded[safeio.INTEGRITY_KEY]["digest"]
            == safeio.canonical_digest(loaded)
        )

    def test_rewrite_rotates_backup(self, tmp_path):
        path = tmp_path / "doc.json"
        safeio.write_json_atomic({"gen": 1}, path)
        assert not safeio.backup_path(path).exists()
        safeio.write_json_atomic({"gen": 2}, path)
        bak = json.loads(safeio.backup_path(path).read_text())
        assert bak["gen"] == 1
        assert json.loads(path.read_text())["gen"] == 2

    def test_no_leftover_tmp_file(self, tmp_path):
        path = tmp_path / "doc.json"
        safeio.write_json_atomic(PAYLOAD, path)
        assert not list(tmp_path.glob("*" + safeio.TMP_SUFFIX))

    def test_legacy_file_without_integrity_accepted(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": 1, "kind": "thing"}))
        loaded = safeio.read_json_verified(path, expected_kind="thing")
        assert loaded["kind"] == "thing"

    def test_missing_primary_and_backup_is_fresh_start(self, tmp_path):
        payload, recovered = safeio.read_json_recovering(tmp_path / "no.json")
        assert payload is None and recovered is False


class TestCorruptionDetection:
    def _published(self, tmp_path):
        """Two generations: the primary holds gen2, the backup gen1."""
        path = tmp_path / "doc.json"
        safeio.write_json_atomic({"schema": 1, "kind": "t", "gen": 1}, path)
        safeio.write_json_atomic({"schema": 1, "kind": "t", "gen": 2}, path)
        return path

    def test_truncated_primary_recovers_from_backup(self, tmp_path):
        path = self._published(tmp_path)
        path.write_bytes(path.read_bytes()[:20])
        payload, recovered = safeio.read_json_recovering(path)
        assert recovered is True
        assert payload["gen"] == 1

    def test_bitflip_fails_checksum_and_recovers(self, tmp_path):
        path = self._published(tmp_path)
        raw = bytearray(path.read_bytes())
        pos = raw.index(b'"gen": 2') + len('"gen": ')
        raw[pos] = ord("7")  # valid JSON, wrong content
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptionError, match="checksum"):
            safeio.read_json_verified(path)
        payload, recovered = safeio.read_json_recovering(path)
        assert recovered is True and payload["gen"] == 1

    def test_stale_schema_rejected_and_recovers(self, tmp_path):
        path = self._published(tmp_path)
        stale = json.loads(path.read_text())
        stale["schema"] = 99  # resealed: checksum fine, schema wrong
        path.write_text(json.dumps(safeio.seal(stale)))
        with pytest.raises(CheckpointCorruptionError, match="schema"):
            safeio.read_json_verified(path, expected_schema=1)
        payload, recovered = safeio.read_json_recovering(
            path, expected_schema=1
        )
        assert recovered is True and payload["gen"] == 1

    def test_kill_during_rename_recovers_from_backup(self, tmp_path):
        # The torn-rename state: primary gone, only a partial .tmp and
        # the backup survive the kill.
        path = self._published(tmp_path)
        tmp = path.with_suffix(path.suffix + safeio.TMP_SUFFIX)
        tmp.write_bytes(path.read_bytes()[:10])
        path.unlink()
        payload, recovered = safeio.read_json_recovering(path)
        assert recovered is True and payload["gen"] == 1
        # ...and the next write simply overwrites the leftover tmp
        safeio.write_json_atomic({"schema": 1, "kind": "t", "gen": 3}, path)
        assert json.loads(path.read_text())["gen"] == 3

    def test_both_corrupt_raises_with_all_reasons(self, tmp_path):
        path = self._published(tmp_path)
        path.write_bytes(b"garbage")
        safeio.backup_path(path).write_bytes(b"also garbage")
        with pytest.raises(CheckpointCorruptionError) as err:
            safeio.read_json_recovering(path)
        assert len(err.value.reasons) == 2

    def test_wrong_kind_rejected(self, tmp_path):
        path = self._published(tmp_path)
        with pytest.raises(CheckpointCorruptionError, match="kind"):
            safeio.read_json_verified(path, expected_kind="other")


class TestIoHook:
    def test_transient_write_error_is_retried(self, tmp_path):
        calls = {"n": 0}

        def hook(stage, path, data):
            if stage == "write":
                calls["n"] += 1
                if calls["n"] <= 2:
                    raise OSError("transient")
            return data

        path = tmp_path / "doc.json"
        safeio.install_io_hook(hook)
        try:
            safeio.write_json_atomic(PAYLOAD, path, io_retries=2)
        finally:
            safeio.install_io_hook(None)
        assert safeio.read_json_verified(path)["kind"] == "thing"

    def test_persistent_write_error_propagates_keeps_old_state(self, tmp_path):
        path = tmp_path / "doc.json"
        safeio.write_json_atomic({"schema": 1, "kind": "t", "gen": 1}, path)

        def hook(stage, p, data):
            if stage == "write":
                raise OSError("disk on fire")
            return data

        safeio.install_io_hook(hook)
        try:
            with pytest.raises(OSError, match="disk on fire"):
                safeio.write_json_atomic(
                    {"schema": 1, "kind": "t", "gen": 2}, path
                )
        finally:
            safeio.install_io_hook(None)
        assert safeio.read_json_verified(path)["gen"] == 1


PAIRS = [("wrf", "wrf"), ("milc", "milc")]
INSTRUCTIONS = 2_000


def _resumable_sweep(path):
    """The CLI's ``table2 --resume PATH --jobs 1`` cells, in process."""
    return SupervisedSweepExecutor(1, checkpoint=result_checkpoint(path)).run(
        spec_pair_jobs(PAIRS, INSTRUCTIONS)
    )


class TestCheckpointRecovery:
    """The acceptance bar: a sweep resumed over every corruption variant
    ends byte-identical to one that was never interrupted."""

    @pytest.fixture(scope="class")
    def uninterrupted(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ref") / "ck.json"
        outcome = _resumable_sweep(path)
        assert outcome.complete
        return path.read_bytes()

    def _interrupted_checkpoint(self, tmp_path):
        """A checkpoint whose backup holds the one-cell generation (what
        an incremental writer leaves after the second cell's publish)."""
        path = tmp_path / "ck.json"
        outcome = _resumable_sweep(path)
        assert outcome.complete
        bak = json.loads(safeio.backup_path(path).read_text())
        assert list(bak["completed"]) == [pair_label(*PAIRS[0])]
        return path

    @pytest.mark.parametrize(
        "variant", ["truncate", "bitflip", "stale_schema", "torn_rename"]
    )
    def test_resume_over_corruption_matches_uninterrupted(
        self, tmp_path, uninterrupted, variant
    ):
        path = self._interrupted_checkpoint(tmp_path)
        if variant == "truncate":
            path.write_bytes(path.read_bytes()[:25])
        elif variant == "bitflip":
            raw = bytearray(path.read_bytes())
            raw[len(raw) // 2] ^= 0x20
            path.write_bytes(bytes(raw))
        elif variant == "stale_schema":
            stale = json.loads(path.read_text())
            stale["schema"] = CHECKPOINT_SCHEMA + 999
            path.write_text(json.dumps(safeio.seal(stale)))
        else:  # torn_rename
            tmp = path.with_suffix(path.suffix + safeio.TMP_SUFFIX)
            tmp.write_bytes(path.read_bytes()[:10])
            path.unlink()
        resumed = _resumable_sweep(path)
        assert resumed.complete
        # Healed from the one-cell backup: the first pair resumed, the
        # second re-ran, and the final bytes match the clean run exactly.
        assert resumed.resumed == [pair_label(*PAIRS[0])]
        assert path.read_bytes() == uninterrupted
