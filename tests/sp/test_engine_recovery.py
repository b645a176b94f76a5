"""Crash-recovery tests for checkpointed disk shard engines.

The checkpoint/journal protocol ties both files together with an epoch
number; these tests cut the :meth:`DiskShardEngine.snapshot` sequence
at every crash point the protocol documents and assert the next open
lands in exactly the documented state — no double-applied records, no
silently adopted garbage.
"""

import pytest

from repro.core.chameleon_index import ChameleonSP
from repro.core.merkle_family import MerkleInvertedSP
from repro.core.objects import DataObject
from repro.core.query.codec import VOCodec
from repro.core.query.parser import KeywordQuery
from repro.core.system import HybridStorageSystem
from repro.crypto.hashing import sha3
from repro.errors import IntegrityError, ReproError
from repro.sp.engine import _CKPT_HEAD, DiskShardEngine, make_engine

from tests import journal_records
from tests.sp.test_journal_fixture import FIXTURE_DIR
from tests.sp.test_engine import entry_op


def merkle_factory():
    return MerkleInvertedSP(fanout=4)


def fill(engine, count=6, start=0):
    engine.apply_ops(
        [
            entry_op(
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
        before = (tmp_path / "shard-000.journal").stat().st_size
        report = engine.compact()
        engine.close()

        assert report["journal_bytes_before"] == before
        assert report["journal_bytes_after"] < before
        assert report["reclaimed"] == before - report["journal_bytes_after"]
        # The truncated journal holds only the epoch header.
        records = journal_records.records(tmp_path / "shard-000.journal")
        assert [record[0] for record in records] == ["epoch"]

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
        records = journal_records.records(tmp_path / "shard-000.journal")
        assert len(records) == 1 + 3  # epoch header + three entries
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
        stale = (tmp_path / "shard-000.journal").read_bytes()
        expected = roots_of(engine)
        engine.compact()
        engine.close()
        return stale, expected

    def test_stale_journal_discarded_after_rename_crash(self, tmp_path):
        # Crash window: checkpoint renamed into place, journal swap never
        # happened — the full-history (epoch 0) journal is still on disk.
        stale, expected = self.checkpointed(tmp_path)
        (tmp_path / "shard-000.journal").write_bytes(stale)

        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        assert engine.epoch == 1
        assert roots_of(engine) == expected
        engine.close()
        # The interrupted swap was finished: the journal now carries the
        # checkpoint's epoch instead of the replayed history.
        records = journal_records.records(tmp_path / "shard-000.journal")
        assert records[0] == ("epoch", 1)
        assert len(records) == 1

    def test_missing_journal_recovers_from_checkpoint_alone(self, tmp_path):
        _, expected = self.checkpointed(tmp_path)
        (tmp_path / "shard-000.journal").unlink()

        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        assert roots_of(engine) == expected
        engine.close()

    def test_torn_tmp_files_are_swept(self, tmp_path):
        _, expected = self.checkpointed(tmp_path)
        (tmp_path / "shard-000.ckpt.tmp").write_bytes(b"half a checkpoint")
        (tmp_path / "shard-000.journal.tmp").write_bytes(journal_records.header(1)[:5])

        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        assert roots_of(engine) == expected
        engine.close()
        assert not (tmp_path / "shard-000.ckpt.tmp").exists()
        assert not (tmp_path / "shard-000.journal.tmp").exists()

    def test_corrupt_checkpoint_falls_back_to_full_history(self, tmp_path):
        # The checkpoint fails its digest but the journal was never
        # swapped (epoch 0): drop the checkpoint, replay everything.
        stale, expected = self.checkpointed(tmp_path)
        (tmp_path / "shard-000.journal").write_bytes(stale)
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
        journal = tmp_path / "shard-000.journal"
        journal.write_bytes(journal_records.header(7))

        with pytest.raises(ReproError):
            DiskShardEngine(0, merkle_factory, tmp_path)

    def test_epoch_journal_without_checkpoint_raises(self, tmp_path):
        self.checkpointed(tmp_path)
        (tmp_path / "shard-000.ckpt").unlink()

        with pytest.raises(ReproError):
            DiskShardEngine(0, merkle_factory, tmp_path)


def rewrite_checkpoint(path, edit, version=None):
    """Re-seal ``shard-000.ckpt`` after ``edit(meta)`` returned new
    metadata bytes (and, if given, its header's container version)."""
    blob = path.read_bytes()
    magic, old_version, epoch, meta_len = _CKPT_HEAD.unpack_from(blob, 0)
    meta_bytes = edit(blob[_CKPT_HEAD.size : _CKPT_HEAD.size + meta_len])
    body = (
        _CKPT_HEAD.pack(
            magic, old_version if version is None else version, epoch,
            len(meta_bytes),
        )
        + meta_bytes
        + blob[_CKPT_HEAD.size + meta_len : -32]
    )
    path.write_bytes(body + sha3(body))


class TestOldFormatsFailClosed:
    """Stores written by older builds are refused, never half-read: a
    version-1 checkpoint (which also kept Bloom filters) is a foreign
    one, a record of an op this build does not know (a ``bloom`` record,
    say) is refused, and so is a JSONL journal of the builds before the
    binary one — as ``shard-NNN.jsonl`` or in the journal's place, and
    however deeply it nests."""

    #: A version-1 checkpoint's Bloom section, as bytes past the metadata.
    PARENT_BLOOMS = b'{"kw0": [{"bits": "1f", "count": 2, "members": [0, 3]}]}'

    #: The ``u8`` tag an older build's ``bloom`` op would carry here.
    BLOOM_TAG = 5

    def version_1(self, tmp_path):
        """A compacted engine whose checkpoint has the version-1 layout;
        returns its full-history journal and its roots."""
        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        fill(engine)
        stale = (tmp_path / "shard-000.journal").read_bytes()
        expected = roots_of(engine)
        engine.compact()
        engine.close()
        rewrite_checkpoint(
            tmp_path / "shard-000.ckpt",
            lambda meta: meta + self.PARENT_BLOOMS,
            version=1,
        )
        return stale, expected

    def test_version_1_checkpoint_falls_back_to_full_history(self, tmp_path):
        stale, expected = self.version_1(tmp_path)
        (tmp_path / "shard-000.journal").write_bytes(stale)

        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        assert engine.epoch == 0
        assert roots_of(engine) == expected
        engine.close()
        assert not (tmp_path / "shard-000.ckpt").exists()

    def test_version_1_checkpoint_with_truncated_journal_raises(self, tmp_path):
        self.version_1(tmp_path)
        with pytest.raises(IntegrityError, match="checkpoint version 1"):
            DiskShardEngine(0, merkle_factory, tmp_path)

    @pytest.mark.parametrize("final", [False, True], ids=["interior", "final"])
    def test_bloom_journal_record_is_refused(self, tmp_path, final):
        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        fill(engine)
        fill(engine, count=2, start=10)
        engine.close()
        journal = tmp_path / "shard-000.journal"
        epoch, bodies = journal_records.split(journal.read_bytes())
        bloom = bytes([self.BLOOM_TAG]) + journal_records.keyword("kw0") + bytes(8)
        bodies.insert(len(bodies) if final else 1, bloom)
        data = journal_records.header(epoch) + b"".join(map(journal_records.seal, bodies))
        journal.write_bytes(data)

        with pytest.raises(IntegrityError, match="unknown journal op"):
            DiskShardEngine(0, merkle_factory, tmp_path)
        # Refused, not skipped as a torn tail: the record is still there.
        assert journal.read_bytes() == data

    @pytest.mark.parametrize("fixture", ["journal_smi.jsonl", "journal_cistar.jsonl"])
    @pytest.mark.parametrize("name", ["shard-000.jsonl", "shard-000.journal"])
    def test_jsonl_journal_is_refused(self, tmp_path, fixture, name):
        # The fixtures are journals the JSONL builds wrote (seed 8).
        (tmp_path / name).write_bytes((FIXTURE_DIR / fixture).read_bytes())
        with pytest.raises(IntegrityError):
            DiskShardEngine(0, merkle_factory, tmp_path)

    def test_a_leftover_jsonl_journal_is_refused_beside_a_binary_one(self, tmp_path):
        engine = DiskShardEngine(0, merkle_factory, tmp_path)
        fill(engine)
        engine.close()
        (tmp_path / "shard-000.jsonl").write_bytes(b"")
        with pytest.raises(IntegrityError, match="shard-000.jsonl"):
            DiskShardEngine(0, merkle_factory, tmp_path)

    @pytest.mark.parametrize("name", ["shard-000.jsonl", "shard-000.journal"])
    def test_deeply_nested_journal_is_refused(self, tmp_path, name):
        # Nested deeper than the interpreter's recursion limit: a JSON
        # decoder would raise RecursionError, not a library error.
        (tmp_path / name).write_bytes(b"[" * 100_000 + b"\n")
        with pytest.raises(IntegrityError):
            DiskShardEngine(0, merkle_factory, tmp_path)


STAR_KEYWORDS = [
    ("alpha", "beta"),
    ("alpha", "gamma"),
    ("alpha", "beta", "delta"),
    ("beta", "gamma"),
    ("alpha",),
]
STAR_DOCS = [
    DataObject(i, STAR_KEYWORDS[i % len(STAR_KEYWORDS)], b"doc-%d" % i)
    for i in range(1, 41)
]
STAR_QUERIES = [
    "alpha AND beta",
    "gamma AND delta",
    "beta AND delta",
    "(alpha AND delta) OR gamma",
    "alpha AND missing",
]


def star_system(capacity, **kwargs):
    return HybridStorageSystem(
        scheme="ci*", seed=13, cvc_modulus_bits=512, bloom_capacity=capacity,
        **kwargs,
    )


def chain_state(index):
    """Every keyword's filters as comparable tuples."""
    return {
        keyword: [
            (flt.bits, flt.count, flt.min_id, flt.max_id, flt.hash_count,
             flt.exact_members())
            for flt in chain.filters
        ]
        for keyword, chain in index.blooms.items()
    }


def vo_frames(system):
    codec = VOCodec(value_bytes=system.value_bytes)
    return [
        codec.encode(system.process_query(KeywordQuery.parse(text)).vo)
        for text in STAR_QUERIES
    ]


class TestChameleonStarRecovery:
    """A CI* shard's Bloom chains are derived from its trees, so however
    a disk shard is reopened — journal alone, checkpoint plus suffix, or
    a checkpoint written under another capacity — it holds the chains a
    fresh in-memory build holds at the reopening capacity, and serves
    the same VO bytes."""

    @pytest.fixture(scope="class")
    def fresh(self):
        """Per capacity: a fresh memory build's chains and VO frames."""
        built = {}
        for capacity in (10, 30):
            system = star_system(capacity)
            system.add_objects(STAR_DOCS)
            built[capacity] = (chain_state(system.sp_index), vo_frames(system))
            system.close()
        return built

    def reopen(self, host, directory, capacity):
        """The disk shard in ``directory``, reopened under ``capacity`` and
        put in place of ``host``'s one shard (whose chain holds the same
        history at that capacity)."""
        pp = host.sp_index.pp
        engine = make_engine(
            "disk",
            0,
            lambda: ChameleonSP(pp=pp, arity=2, bloom=(256, capacity)),
            directory=directory,
        )
        host._sp.pool.engines[0] = engine
        return engine

    def check(self, host, engine, expected):
        chains, frames = expected
        index = engine.index
        assert chain_state(index) == chains
        assert index.blooms and all(
            chain.masks is index.masks for chain in index.blooms.values()
        )
        assert vo_frames(host) == frames
        for text in STAR_QUERIES:
            host.query(text)  # the client accepts what the shard serves
        engine.close()

    def test_capacities_differ(self, fresh):
        # What makes the other-capacity case a test at all.
        assert fresh[10][0] != fresh[30][0]

    def test_journal_replay(self, fresh, tmp_path):
        host = star_system(30, engine="disk", engine_dir=tmp_path)
        host.add_objects(STAR_DOCS)
        host.close()
        engine = self.reopen(host, tmp_path, 30)
        assert engine.epoch == 0
        self.check(host, engine, fresh[30])

    def test_checkpoint_plus_suffix(self, fresh, tmp_path):
        host = star_system(30, engine="disk", engine_dir=tmp_path)
        host.add_objects(STAR_DOCS[:25])
        host.compact()
        host.add_objects(STAR_DOCS[25:])
        host.close()
        engine = self.reopen(host, tmp_path, 30)
        assert engine.epoch == 1
        journal = tmp_path / "shard-000.journal"
        assert len(journal_records.records(journal, host.value_bytes)) > 1
        self.check(host, engine, fresh[30])

    def test_checkpoint_of_another_capacity(self, fresh, tmp_path):
        writer = star_system(10, engine="disk", engine_dir=tmp_path)
        writer.add_objects(STAR_DOCS)
        writer.compact()
        writer.close()
        assert chain_state(writer.sp_index) == fresh[10][0]
        host = star_system(30)
        host.add_objects(STAR_DOCS)
        host.close()
        engine = self.reopen(host, tmp_path, 30)
        assert engine.epoch == 1  # the checkpoint is adopted, not dropped
        self.check(host, engine, fresh[30])
