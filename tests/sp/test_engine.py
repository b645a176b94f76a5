"""Tests for the pluggable index-shard engines and the router."""

import pytest

from repro.core.merkle_family import MerkleInvertedSP
from repro.errors import ParameterError, ReproError
from repro.sp.engine import (
    DiskShardEngine,
    MemoryShardEngine,
    ShardRouter,
    make_engine,
)


def merkle_factory():
    return MerkleInvertedSP(fanout=4)


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
        assert isinstance(
            make_engine("memory", 0, merkle_factory), MemoryShardEngine
        )
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
        for keyword, object_id, payload in entries:
            engine.insert_entry(keyword, object_id, payload.ljust(32, b"\0"))

    def test_round_trip_rebuilds_identical_trees(self, tmp_path):
        engine = DiskShardEngine(3, merkle_factory, tmp_path)
        self.fill(engine)
        roots = {
            kw: engine.tree(kw).root_hash
            for kw in ("alpha", "beta", "gamma")
        }
        engine.close()
        assert (tmp_path / "shard-003.jsonl").exists()

        reopened = DiskShardEngine(3, merkle_factory, tmp_path)
        for keyword, root in roots.items():
            assert reopened.tree(keyword).root_hash == root
        reopened.close()

    def test_replay_does_not_duplicate_journal(self, tmp_path):
        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        self.fill(engine)
        engine.close()
        lines = (tmp_path / "shard-000.jsonl").read_text().splitlines()

        reopened = DiskShardEngine(0, merkle_factory, tmp_path)
        reopened.close()
        assert (
            tmp_path / "shard-000.jsonl"
        ).read_text().splitlines() == lines

    def test_mutations_after_reopen_append(self, tmp_path):
        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        self.fill(engine)
        engine.close()

        reopened = DiskShardEngine(0, merkle_factory, tmp_path)
        reopened.insert_entry("alpha", 9, b"h9".ljust(32, b"\0"))
        root = reopened.tree("alpha").root_hash
        reopened.close()

        third = DiskShardEngine(0, merkle_factory, tmp_path)
        assert third.tree("alpha").root_hash == root
        third.close()

    def test_object_round_trip(self, tmp_path):
        from repro.core.objects import DataObject

        engine = DiskShardEngine(1, merkle_factory, tmp_path)
        engine.put_object(DataObject(7, ("alpha",), b"payload"))
        engine.close()

        reopened = DiskShardEngine(1, merkle_factory, tmp_path)
        assert reopened.all_object_ids() == [7]
        assert reopened.get_object(7).content == b"payload"
        reopened.close()

    def test_unknown_journal_op_rejected(self, tmp_path):
        path = tmp_path / "shard-000.jsonl"
        path.write_text('{"op": "explode"}\n')
        with pytest.raises(ReproError):
            DiskShardEngine(0, merkle_factory, tmp_path)


class TestTornTailRecovery:
    """Crash mid-append: the torn tail is dropped, everything before
    it recovers, and the file is truncated to the last good record."""

    def fill_and_close(self, tmp_path):
        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        for object_id in range(4):
            engine.insert_entry(
                "alpha", object_id, bytes([object_id]) * 32
            )
        root = engine.tree("alpha").root_hash
        engine.close()
        return tmp_path / "shard-000.jsonl", root

    def test_bytes_after_last_newline_are_truncated(self, tmp_path):
        path, root = self.fill_and_close(tmp_path)
        intact = path.read_bytes()
        path.write_bytes(intact + b'{"op": "entry", "kw": "al')

        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        assert engine.tree("alpha").root_hash == root
        engine.close()
        assert path.read_bytes() == intact

    def test_undecodable_final_line_is_truncated(self, tmp_path):
        path, root = self.fill_and_close(tmp_path)
        intact = path.read_bytes()
        path.write_bytes(intact + b'{"op": "entry", "kw\x00\x01\n')

        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        assert engine.tree("alpha").root_hash == root
        engine.close()
        assert path.read_bytes() == intact

    def test_appends_after_truncation_stay_replayable(self, tmp_path):
        path, _ = self.fill_and_close(tmp_path)
        path.write_bytes(path.read_bytes() + b"garbage-tail")

        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        engine.insert_entry("alpha", 9, b"h9".ljust(32, b"\0"))
        root = engine.tree("alpha").root_hash
        engine.close()

        reopened = DiskShardEngine(0, merkle_factory, tmp_path)
        assert reopened.tree("alpha").root_hash == root
        reopened.close()

    def test_undecodable_interior_line_raises(self, tmp_path):
        path, _ = self.fill_and_close(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines.insert(1, b"not json at all\n")
        path.write_bytes(b"".join(lines))
        with pytest.raises(ReproError, match="corrupt journal record"):
            DiskShardEngine(0, merkle_factory, tmp_path)


class TestBatchedJournal:
    def entries(self, count=6):
        return [(object_id, bytes([object_id]) * 32) for object_id in range(count)]

    def test_apply_bulk_journals_one_append(self, tmp_path):
        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        writes = []
        original = engine._log.write
        engine._log.write = lambda text: writes.append(text) or original(text)
        assert engine.apply_bulk([("alpha", self.entries())]) == 6
        assert len(writes) == 1
        root = engine.tree("alpha").root_hash
        engine.close()

        reopened = DiskShardEngine(0, merkle_factory, tmp_path)
        assert reopened.tree("alpha").root_hash == root
        reopened.close()

    def test_apply_records_round_trips_through_replay_path(self, tmp_path):
        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        records = [
            {"op": "entry", "kw": "alpha", "id": i, "hash": ("%02x" % i) * 32}
            for i in range(4)
        ]
        assert engine.apply_records(records) == 4
        root = engine.tree("alpha").root_hash
        engine.close()

        reopened = DiskShardEngine(0, merkle_factory, tmp_path)
        assert reopened.tree("alpha").root_hash == root
        reopened.close()

    def test_close_is_idempotent(self, tmp_path):
        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        engine.insert_entry("alpha", 1, bytes(32))
        engine.close()
        engine.close()
        assert engine._log is None
