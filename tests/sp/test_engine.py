"""Tests for the pluggable index-shard engines and the router."""

import pytest

import repro.core.objects as objects_module
import repro.sp.engine as engine_module
from repro.core.merkle_family import MerkleInvertedSP
from repro.core.objects import DataObject
from repro.core.system import HybridStorageSystem
from repro.errors import ParameterError, ReproError
from repro.sp.engine import (
    DiskShardEngine,
    IndexShardEngine,
    ShardRouter,
    make_engine,
)

from tests import journal_records


def merkle_factory():
    return MerkleInvertedSP(fanout=4)


def entry_op(keyword, object_id, object_hash):
    """The shard op of one posting, as the SP front-end ships it."""
    return ("entry", keyword, object_id, object_hash)


class TestShardRouter:
    def test_rejects_zero_shards(self):
        with pytest.raises(ParameterError):
            ShardRouter(0)

    def test_deterministic_across_instances(self):
        a = ShardRouter(8, seed=11)
        b = ShardRouter(8, seed=11)
        keywords = [f"kw{i}" for i in range(200)]
        assert [a.route(kw) for kw in keywords] == [
            b.route(kw) for kw in keywords
        ]

    def test_seed_changes_routing(self):
        a = ShardRouter(8, seed=1)
        b = ShardRouter(8, seed=2)
        keywords = [f"kw{i}" for i in range(200)]
        assert [a.route(kw) for kw in keywords] != [
            b.route(kw) for kw in keywords
        ]

    def test_single_shard_routes_everything_to_zero(self):
        router = ShardRouter(1, seed=5)
        assert {router.route(f"kw{i}") for i in range(50)} == {0}

    def test_distribution_covers_all_shards(self):
        router = ShardRouter(8, seed=7)
        counts = [0] * 8
        for i in range(400):
            counts[router.route(f"kw{i}")] += 1
        assert all(count > 0 for count in counts)
        # No pathological skew: every shard holds a sane share.
        assert max(counts) < 4 * min(counts)

    def test_memoised_route_is_stable(self):
        router = ShardRouter(8, seed=7)
        assert router.route("alpha") == router.route("alpha")


class TestMakeEngine:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            make_engine("papyrus", 0, merkle_factory)

    def test_disk_requires_directory(self):
        with pytest.raises(ParameterError):
            make_engine("disk", 0, merkle_factory)

    def test_kinds(self, tmp_path):
        assert type(make_engine("memory", 0, merkle_factory)) is IndexShardEngine
        disk = make_engine("disk", 0, merkle_factory, directory=tmp_path)
        assert isinstance(disk, DiskShardEngine)
        disk.close()


class TestDiskEngineReplay:
    def fill(self, engine):
        entries = [
            ("alpha", 1, b"h1"),
            ("beta", 2, b"h2"),
            ("alpha", 3, b"h3"),
            ("gamma", 4, b"h4"),
            ("alpha", 5, b"h5"),
        ]
        engine.apply_ops(
            [
                entry_op(keyword, object_id, payload.ljust(32, b"\0"))
                for keyword, object_id, payload in entries
            ]
        )

    def test_round_trip_rebuilds_identical_trees(self, tmp_path):
        engine = DiskShardEngine(3, merkle_factory, tmp_path)
        self.fill(engine)
        roots = {
            kw: engine.tree(kw).root_hash
            for kw in ("alpha", "beta", "gamma")
        }
        engine.close()
        assert (tmp_path / "shard-003.journal").exists()

        reopened = DiskShardEngine(3, merkle_factory, tmp_path)
        for keyword, root in roots.items():
            assert reopened.tree(keyword).root_hash == root
        reopened.close()

    def test_replay_does_not_duplicate_journal(self, tmp_path):
        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        self.fill(engine)
        engine.close()
        records = journal_records.records(tmp_path / "shard-000.journal")

        reopened = DiskShardEngine(0, merkle_factory, tmp_path)
        reopened.close()
        assert journal_records.records(tmp_path / "shard-000.journal") == records

    def test_mutations_after_reopen_append(self, tmp_path):
        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        self.fill(engine)
        engine.close()

        reopened = DiskShardEngine(0, merkle_factory, tmp_path)
        reopened.apply_ops([entry_op("alpha", 9, b"h9".ljust(32, b"\0"))])
        root = reopened.tree("alpha").root_hash
        reopened.close()

        third = DiskShardEngine(0, merkle_factory, tmp_path)
        assert third.tree("alpha").root_hash == root
        third.close()

    def test_object_round_trip(self, tmp_path):
        engine = DiskShardEngine(1, merkle_factory, tmp_path)
        obj = DataObject(7, ("alpha",), b"payload")
        engine.apply_ops([("object", obj)])
        engine.close()

        reopened = DiskShardEngine(1, merkle_factory, tmp_path)
        assert reopened.all_object_ids() == [7]
        assert reopened.get_object(7).content == b"payload"
        reopened.close()

    def test_unknown_journal_op_rejected(self, tmp_path):
        path = tmp_path / "shard-000.journal"
        path.write_bytes(journal_records.header(0) + journal_records.seal(b"\x7f"))
        with pytest.raises(ReproError):
            DiskShardEngine(0, merkle_factory, tmp_path)


class TestTornTailRecovery:
    """Crash mid-append: the torn tail is dropped, everything before
    it recovers, and the file is truncated to the last good record."""

    def fill_and_close(self, tmp_path):
        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        engine.apply_ops(
            [
                entry_op("alpha", object_id, bytes([object_id]) * 32)
                for object_id in range(4)
            ]
        )
        root = engine.tree("alpha").root_hash
        engine.close()
        return tmp_path / "shard-000.journal", root

    def test_bytes_after_last_newline_are_truncated(self, tmp_path):
        # A record cut short: the crash hit mid-append.
        path, root = self.fill_and_close(tmp_path)
        intact = path.read_bytes()
        record = journal_records.seal(journal_records.entry_op("alpha", 9, bytes(32)))
        path.write_bytes(intact + record[:-5])

        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        assert engine.tree("alpha").root_hash == root
        engine.close()
        assert path.read_bytes() == intact

    def test_undecodable_final_line_is_truncated(self, tmp_path):
        # A whole final record whose checksum fails: its page never
        # reached the disk.
        path, root = self.fill_and_close(tmp_path)
        intact = path.read_bytes()
        record = bytearray(journal_records.seal(journal_records.entry_op("alpha", 9, bytes(32))))
        record[-1] ^= 0x01
        path.write_bytes(intact + bytes(record))

        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        assert engine.tree("alpha").root_hash == root
        engine.close()
        assert path.read_bytes() == intact

    def test_appends_after_truncation_stay_replayable(self, tmp_path):
        path, _ = self.fill_and_close(tmp_path)
        path.write_bytes(path.read_bytes() + b"garbage-tail")

        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        engine.apply_ops([entry_op("alpha", 9, b"h9".ljust(32, b"\0"))])
        root = engine.tree("alpha").root_hash
        engine.close()

        reopened = DiskShardEngine(0, merkle_factory, tmp_path)
        assert reopened.tree("alpha").root_hash == root
        reopened.close()

    def test_undecodable_interior_line_raises(self, tmp_path):
        path, _ = self.fill_and_close(tmp_path)
        record = bytearray(journal_records.seal(journal_records.entry_op("alpha", 9, bytes(32))))
        record[-1] ^= 0x01
        path.write_bytes(
            path.read_bytes()
            + bytes(record)
            + journal_records.seal(journal_records.entry_op("alpha", 10, bytes(32)))
        )
        with pytest.raises(ReproError, match="corrupt journal record"):
            DiskShardEngine(0, merkle_factory, tmp_path)


class TestBatchedJournal:
    def entries(self, count=6):
        return [
            entry_op("alpha", object_id, bytes([object_id]) * 32)
            for object_id in range(count)
        ]

    def test_apply_bulk_journals_one_append(self, tmp_path):
        """A batch of records lands in the journal with one write."""
        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        writes = []
        original = engine._log.write
        engine._log.write = lambda text: writes.append(text) or original(text)
        assert engine.apply_ops(self.entries()) == 6
        assert len(writes) == 1
        root = engine.tree("alpha").root_hash
        engine.close()

        reopened = DiskShardEngine(0, merkle_factory, tmp_path)
        assert reopened.tree("alpha").root_hash == root
        reopened.close()

    def test_apply_records_round_trips_through_replay_path(self, tmp_path):
        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        ops = [("entry", "alpha", i, bytes([i]) * 32) for i in range(4)]
        assert engine.apply_ops(ops) == 4
        root = engine.tree("alpha").root_hash
        engine.close()

        reopened = DiskShardEngine(0, merkle_factory, tmp_path)
        assert reopened.tree("alpha").root_hash == root
        reopened.close()

    def test_close_is_idempotent(self, tmp_path):
        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        engine.apply_ops([entry_op("alpha", 1, bytes(32))])
        engine.close()
        engine.close()
        assert engine._log is None


#: The shard journal and checkpoint decoders, and the JSON object
#: decoders ``objects.jsonl`` keeps.
DECODERS = (
    "_read_ops",
    "_read_object",
    "_read_ckpt_meta",
    "record_to_object",
)


@pytest.mark.parametrize("pool", ["stateless", "affine"])
@pytest.mark.parametrize("scheme", ["mi", "smi", "ci", "ci*"])
def test_live_ingest_decodes_nothing(scheme, pool, monkeypatch):
    """Mutations reach memory shards as values: no journal decoder runs
    while a batch is ingested and queried, in either pool."""
    def refuse(*args, **kwargs):
        raise AssertionError("a journal decoder ran on the live ingest path")

    for module in (engine_module, objects_module):
        for name in DECODERS:
            monkeypatch.setattr(module, name, refuse, raising=False)
    # Patched before the system exists, so forked affine workers inherit it.
    system = HybridStorageSystem(
        scheme=scheme, seed=3, cvc_modulus_bits=512, shards=2, pool=pool
    )
    try:
        system.add_objects_batched(
            [
                DataObject(oid, ("a", "b") if oid % 2 else ("a", "c"), b"x%d" % oid)
                for oid in range(1, 7)
            ]
        )
        system.add_objects_batched([DataObject(9, ("b", "c"), b"y")])
        assert system.query("a AND b").result_ids == [1, 3, 5]
        assert system.get_object(9).content == b"y"
    finally:
        system.close()
