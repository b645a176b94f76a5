"""Crash-recovery tests for checkpointed disk shard engines.

The checkpoint/journal protocol ties both files together with an epoch
number; these tests cut the :meth:`DiskShardEngine.snapshot` sequence
at every crash point the protocol documents and assert the next open
lands in exactly the documented state — no double-applied records, no
silently adopted garbage.
"""

import json

import pytest

from repro.core.merkle_family import MerkleInvertedSP
from repro.errors import IntegrityError, ReproError
from repro.sp.engine import DiskShardEngine

from tests.sp.test_engine import entry_record


def merkle_factory():
    return MerkleInvertedSP(fanout=4)


def fill(engine, count=6, start=0):
    engine.apply_records(
        [
            entry_record(
                f"kw{object_id % 3}", object_id, bytes([object_id % 251]) * 32
            )
            for object_id in range(start, start + count)
        ]
    )


def roots_of(engine):
    return {kw: engine.tree(kw).root_hash for kw in engine.index.trees}


class TestCompactRestart:
    def test_compact_truncates_and_reopens_identically(self, tmp_path):
        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        fill(engine)
        expected = roots_of(engine)
        before = (tmp_path / "shard-000.jsonl").stat().st_size
        report = engine.compact()
        engine.close()

        assert report["journal_bytes_before"] == before
        assert report["journal_bytes_after"] < before
        assert report["reclaimed"] == before - report["journal_bytes_after"]
        # The truncated journal holds only the epoch header.
        lines = (tmp_path / "shard-000.jsonl").read_text().splitlines()
        assert [json.loads(line)["op"] for line in lines] == ["epoch"]

        reopened = DiskShardEngine(0, merkle_factory, tmp_path)
        assert roots_of(reopened) == expected
        assert reopened.epoch == 1
        reopened.close()

    def test_suffix_after_checkpoint_is_replayed(self, tmp_path):
        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        fill(engine)
        engine.compact()
        fill(engine, count=3, start=10)  # journaled at the new epoch
        expected = roots_of(engine)
        engine.close()

        reopened = DiskShardEngine(0, merkle_factory, tmp_path)
        assert roots_of(reopened) == expected
        # Replay must not re-append the suffix it just consumed.
        lines = (tmp_path / "shard-000.jsonl").read_text().splitlines()
        assert len(lines) == 1 + 3  # epoch header + three entries
        reopened.close()

    def test_repeated_compaction_advances_epoch(self, tmp_path):
        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        fill(engine)
        engine.compact()
        fill(engine, count=2, start=20)
        engine.compact()
        expected = roots_of(engine)
        engine.close()

        reopened = DiskShardEngine(0, merkle_factory, tmp_path)
        assert reopened.epoch == 2
        assert roots_of(reopened) == expected
        reopened.close()


class TestCrashMidCompaction:
    def checkpointed(self, tmp_path):
        """An engine that compacted once, with the old journal saved."""
        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        fill(engine)
        stale = (tmp_path / "shard-000.jsonl").read_bytes()
        expected = roots_of(engine)
        engine.compact()
        engine.close()
        return stale, expected

    def test_stale_journal_discarded_after_rename_crash(self, tmp_path):
        # Crash window: checkpoint renamed into place, journal swap never
        # happened — the full-history (epoch 0) journal is still on disk.
        stale, expected = self.checkpointed(tmp_path)
        (tmp_path / "shard-000.jsonl").write_bytes(stale)

        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        assert engine.epoch == 1
        assert roots_of(engine) == expected
        engine.close()
        # The interrupted swap was finished: the journal now carries the
        # checkpoint's epoch instead of the replayed history.
        lines = (tmp_path / "shard-000.jsonl").read_text().splitlines()
        assert json.loads(lines[0]) == {"op": "epoch", "n": 1}
        assert len(lines) == 1

    def test_missing_journal_recovers_from_checkpoint_alone(self, tmp_path):
        _, expected = self.checkpointed(tmp_path)
        (tmp_path / "shard-000.jsonl").unlink()

        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        assert roots_of(engine) == expected
        engine.close()

    def test_torn_tmp_files_are_swept(self, tmp_path):
        _, expected = self.checkpointed(tmp_path)
        (tmp_path / "shard-000.ckpt.tmp").write_bytes(b"half a checkpoint")
        (tmp_path / "shard-000.jsonl.tmp").write_bytes(b'{"op":')

        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        assert roots_of(engine) == expected
        engine.close()
        assert not (tmp_path / "shard-000.ckpt.tmp").exists()
        assert not (tmp_path / "shard-000.jsonl.tmp").exists()

    def test_corrupt_checkpoint_falls_back_to_full_history(self, tmp_path):
        # The checkpoint fails its digest but the journal was never
        # swapped (epoch 0): drop the checkpoint, replay everything.
        stale, expected = self.checkpointed(tmp_path)
        (tmp_path / "shard-000.jsonl").write_bytes(stale)
        ckpt = tmp_path / "shard-000.ckpt"
        blob = bytearray(ckpt.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        ckpt.write_bytes(blob)

        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        assert engine.epoch == 0
        assert roots_of(engine) == expected
        engine.close()
        assert not ckpt.exists()

    def test_corrupt_checkpoint_with_truncated_journal_raises(self, tmp_path):
        # Once the journal was truncated to the new epoch, the
        # checkpoint is the only copy of history — corruption is fatal.
        self.checkpointed(tmp_path)
        ckpt = tmp_path / "shard-000.ckpt"
        blob = bytearray(ckpt.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        ckpt.write_bytes(blob)

        with pytest.raises(IntegrityError):
            DiskShardEngine(0, merkle_factory, tmp_path)

    def test_journal_ahead_of_checkpoint_raises(self, tmp_path):
        self.checkpointed(tmp_path)
        journal = tmp_path / "shard-000.jsonl"
        journal.write_text(json.dumps({"op": "epoch", "n": 7}) + "\n")

        with pytest.raises(ReproError):
            DiskShardEngine(0, merkle_factory, tmp_path)

    def test_epoch_journal_without_checkpoint_raises(self, tmp_path):
        self.checkpointed(tmp_path)
        (tmp_path / "shard-000.ckpt").unlink()

        with pytest.raises(ReproError):
            DiskShardEngine(0, merkle_factory, tmp_path)
