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
from repro.crypto.hashing import sha3
from repro.errors import IntegrityError, ReproError
from repro.sp.engine import _CKPT_HEAD, DiskShardEngine

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


def star_engine(tmp_path, capacity):
    return DiskShardEngine(
        0, merkle_factory, tmp_path, star=True, bloom_capacity=capacity
    )


def bloom_state(engine):
    """Every filter as its restorable fields, per keyword."""
    return {
        keyword: [
            (flt.bits, flt.count, flt.min_id, flt.max_id, flt.hash_count,
             flt.exact_members())
            for flt in chain.filters
        ]
        for keyword, chain in engine.blooms.items()
    }


def rewrite_checkpoint(path, edit):
    """Re-seal ``shard-000.ckpt`` after ``edit(meta)`` changed its metadata."""
    blob = path.read_bytes()
    magic, version, epoch, meta_len = _CKPT_HEAD.unpack_from(blob, 0)
    meta = json.loads(blob[_CKPT_HEAD.size : _CKPT_HEAD.size + meta_len])
    edit(meta)
    meta_bytes = json.dumps(meta).encode()
    body = (
        _CKPT_HEAD.pack(magic, version, epoch, len(meta_bytes))
        + meta_bytes
        + blob[_CKPT_HEAD.size + meta_len : -32]
    )
    path.write_bytes(body + sha3(body))


class TestBloomCheckpoint:
    """A checkpoint's Bloom filters are adopted only as the engine's own
    parameters would have built them; otherwise recovery takes the
    journal, or refuses — never two different chains for one history."""

    IDS = range(1, 51)

    def checkpointed(self, tmp_path, capacity=30):
        engine = star_engine(tmp_path, capacity)
        engine.apply_records(
            [{"op": "bloom", "kw": "kw", "id": object_id} for object_id in self.IDS]
        )
        stale = (tmp_path / "shard-000.jsonl").read_bytes()
        expected = bloom_state(engine)
        engine.compact()
        engine.close()
        return stale, expected

    def test_reopened_under_its_own_capacity_adopts_and_shares_the_memo(
        self, tmp_path
    ):
        _, expected = self.checkpointed(tmp_path)
        engine = star_engine(tmp_path, 30)
        assert engine.epoch == 1
        assert bloom_state(engine) == expected
        assert engine.blooms["kw"].masks is engine.bloom_masks
        engine.apply_records([{"op": "bloom", "kw": "other", "id": 60}])
        assert engine.blooms["other"].masks is engine.bloom_masks
        engine.close()

    def test_foreign_capacity_falls_back_to_full_history(self, tmp_path):
        # The journal still holds full history (epoch 0): the checkpoint
        # written at capacity 30 is dropped and the replay builds what a
        # capacity-10 engine builds from the same records.
        stale, _ = self.checkpointed(tmp_path)
        (tmp_path / "shard-000.jsonl").write_bytes(stale)
        engine = star_engine(tmp_path, 10)
        assert engine.epoch == 0
        assert not (tmp_path / "shard-000.ckpt").exists()
        chain = engine.blooms["kw"]
        assert [flt.count for flt in chain.filters] == [10] * 5
        assert {flt.hash_count for flt in chain.filters} == {8}
        assert chain.masks is engine.bloom_masks
        engine.close()

        fresh = star_engine(tmp_path / "fresh", 10)
        fresh.apply_records(
            [{"op": "bloom", "kw": "kw", "id": object_id} for object_id in self.IDS]
        )
        assert bloom_state(fresh) == bloom_state(engine)
        fresh.close()

    def test_foreign_capacity_with_truncated_journal_raises(self, tmp_path):
        # Once the journal holds only the checkpoint's epoch, the
        # checkpoint is all there is: refuse it rather than adopt filters
        # of another hash count (or more IDs than the capacity).
        self.checkpointed(tmp_path)
        with pytest.raises(IntegrityError):
            star_engine(tmp_path, 10)
        self.checkpointed(tmp_path / "small", capacity=10)
        with pytest.raises(IntegrityError):
            star_engine(tmp_path / "small", 30)

    FORGERIES = {
        "foreign_hash_count": lambda f: f[0].update(hash_count=5),
        "count_over_capacity": lambda f: f[1].update(count=31),
        "inner_filter_not_full": lambda f: f[0].update(count=29),
        "empty_filter": lambda f: f[1].update(count=0),
        "word_too_wide": lambda f: f[0].update(bits=format(1 << 256, "x")),
        "negative_word": lambda f: f[0].update(bits="-1"),
        "word_not_hex": lambda f: f[0].update(bits="zz"),
        "min_above_max": lambda f: f[1].update(min=f[1]["max"] + 1),
        "count_missing": lambda f: f[0].pop("count"),
        "members_missing": lambda f: f[0].pop("members"),
        "min_a_string": lambda f: f[0].update(min="1"),
        "count_a_bool": lambda f: f[0].update(count=True),
        "members_strings": lambda f: f[0].update(
            members=[str(m) for m in f[0]["members"]]
        ),
        "member_dropped": lambda f: f[0].update(members=f[0]["members"][1:]),
        "members_empty": lambda f: f[1].update(members=[]),
        "minima_descend": lambda f: f.reverse(),
        "ranges_overlap": lambda f: f[1].update(min=f[0]["max"]),
        "record_not_a_map": lambda f: f.__setitem__(0, None),
    }

    @pytest.mark.parametrize("name", sorted(FORGERIES))
    def test_forged_bloom_record_is_refused(self, tmp_path, name):
        self.checkpointed(tmp_path)
        edit = self.FORGERIES[name]
        rewrite_checkpoint(
            tmp_path / "shard-000.ckpt", lambda meta: edit(meta["blooms"]["kw"])
        )
        with pytest.raises(IntegrityError):
            star_engine(tmp_path, 30)

    def test_malformed_chain_is_refused(self, tmp_path):
        self.checkpointed(tmp_path)

        def edit(meta):
            meta["blooms"]["kw"] = {"not": "a list"}

        rewrite_checkpoint(tmp_path / "shard-000.ckpt", edit)
        with pytest.raises(IntegrityError):
            star_engine(tmp_path, 30)
