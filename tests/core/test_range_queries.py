"""Unit and attack tests for suppressed authenticated range queries."""

import dataclasses

import pytest

from repro.core.mbtree import MBTree
from repro.core.objects import DataObject, ObjectMetadata
from repro.core.range_queries import (
    AuthenticatedRangeIndex,
    RangeVO,
    range_query,
    verify_range,
)
from repro.crypto.hashing import EMPTY_DIGEST, sha3
from repro.errors import QueryError, VerificationError
from tests.reference_codec import forge_merkle, merkle_parts


def value_of(key: int) -> bytes:
    return sha3(b"v%d" % key)


@pytest.fixture()
def tree():
    t = MBTree(fanout=4)
    for key in range(0, 100, 3):  # 0, 3, 6, ..., 99
        t.insert(key, value_of(key))
    return t


def shown(vo):
    """The keys the VO's table proves."""
    return [key for key, _ in vo.table.leaves]


def with_keys(tree, vo, keys):
    """``vo`` with its table re-proven over ``keys``: every entry still
    folds to the root, only what is shown changes."""
    return dataclasses.replace(vo, table=tree.multiproof(keys))


class TestRangeQuery:
    def test_inner_range(self, tree):
        entries, vo = range_query(tree, 10, 20)
        assert [e.key for e in entries] == [12, 15, 18]
        assert shown(vo) == [9, 12, 15, 18, 21]
        assert verify_range(tree.root_hash, vo) == entries

    def test_range_touching_edges(self, tree):
        entries, vo = range_query(tree, 0, 99)
        assert len(entries) == 34
        assert shown(vo) == [e.key for e in entries]
        assert merkle_parts(vo.table).helpers == ()
        verify_range(tree.root_hash, vo)

    def test_empty_range_between_keys(self, tree):
        entries, vo = range_query(tree, 13, 14)
        assert entries == []
        assert shown(vo) == [12, 15]
        assert verify_range(tree.root_hash, vo) == []

    def test_range_before_all(self, tree):
        entries, vo = range_query(tree, -10, -1)
        assert entries == []
        assert shown(vo) == [0]
        verify_range(tree.root_hash, vo)

    def test_range_after_all(self, tree):
        entries, vo = range_query(tree, 500, 600)
        assert entries == []
        assert shown(vo) == [99]
        verify_range(tree.root_hash, vo)

    def test_inverted_range_rejected(self, tree):
        with pytest.raises(QueryError):
            range_query(tree, 5, 4)

    def test_empty_tree(self):
        empty = MBTree(fanout=4)
        entries, vo = range_query(empty, 1, 10)
        assert entries == []
        assert vo.table is None
        assert verify_range(EMPTY_DIGEST, vo) == []

    def test_vo_byte_size(self, tree):
        _, small = range_query(tree, 10, 12)
        _, large = range_query(tree, 0, 60)
        assert large.byte_size() > small.byte_size()


class TestRangeAttacks:
    def test_dropped_middle_result(self, tree):
        _, vo = range_query(tree, 10, 30)
        keys = shown(vo)
        forged = with_keys(tree, vo, keys[:2] + keys[3:])
        with pytest.raises(VerificationError, match="lacks entries"):
            verify_range(tree.root_hash, forged)

    def test_dropped_first_result(self, tree):
        _, vo = range_query(tree, 10, 30)
        keys = shown(vo)
        forged = with_keys(tree, vo, keys[:1] + keys[2:])
        with pytest.raises(VerificationError):
            verify_range(tree.root_hash, forged)

    def test_dropped_last_result(self, tree):
        _, vo = range_query(tree, 10, 30)
        keys = shown(vo)
        forged = with_keys(tree, vo, keys[:-2] + keys[-1:])
        with pytest.raises(VerificationError):
            verify_range(tree.root_hash, forged)

    def test_missing_boundary(self, tree):
        _, vo = range_query(tree, 10, 30)
        forged = with_keys(tree, vo, shown(vo)[1:])
        with pytest.raises(VerificationError):
            verify_range(tree.root_hash, forged)

    def test_false_empty_claim(self, tree):
        # Claim [10, 30] is empty with the table of a truly empty
        # sub-range: its two entries are adjacent, but 12 and 15 lie
        # inside [10, 30], whose own edges the table does not show.
        _, narrow = range_query(tree, 13, 14)
        forged = RangeVO(lo=10, hi=30, table=narrow.table)
        with pytest.raises(VerificationError):
            verify_range(tree.root_hash, forged)

    def test_tampered_value_hash(self, tree):
        _, vo = range_query(tree, 10, 20)
        leaves = vo.table.leaves
        forged_table = forge_merkle(
            vo.table, leaves=((leaves[0][0], sha3(b"evil")),) + leaves[1:]
        )
        forged = dataclasses.replace(vo, table=forged_table)
        with pytest.raises(VerificationError):
            verify_range(tree.root_hash, forged)

    def test_stale_root(self, tree):
        _, vo = range_query(tree, 10, 20)
        tree.insert(1000, value_of(1000))
        with pytest.raises(VerificationError):
            verify_range(tree.root_hash, vo)

    def test_no_table_against_a_non_empty_index(self, tree):
        _, vo = range_query(tree, 10, 20)
        with pytest.raises(VerificationError):
            verify_range(tree.root_hash, dataclasses.replace(vo, table=None))

    def test_extra_entries_are_refused(self, tree):
        """One valid VO per range: a table that also shows entries
        outside the range's neighbours is refused, though it proves
        nothing false."""
        _, vo = range_query(tree, 10, 20)
        forged = with_keys(tree, vo, [6] + shown(vo))
        with pytest.raises(VerificationError, match="no probe reads"):
            verify_range(tree.root_hash, forged)


class TestAuthenticatedRangeIndex:
    def test_end_to_end(self):
        index = AuthenticatedRangeIndex(fanout=4)
        for oid in range(1, 31):
            metadata = ObjectMetadata.of(
                DataObject(oid, ("tag",), b"payload-%d" % oid)
            )
            receipts = index.insert(metadata)
            assert all(r.status for r in receipts)
        entries, vo = index.query(10, 20)
        assert [e.key for e in entries] == list(range(10, 21))
        verified = index.verify(vo)
        assert [e.key for e in verified] == list(range(10, 21))

    def test_contract_root_matches_sp(self):
        index = AuthenticatedRangeIndex(fanout=4)
        for oid in range(1, 12):
            index.insert(
                ObjectMetadata.of(DataObject(oid, ("t",), b"x%d" % oid))
            )
        from repro.core.range_queries import PRIMARY_INDEX_KEY

        on_chain = index.chain.call_view(
            "range-index", "view_root", PRIMARY_INDEX_KEY
        )
        assert on_chain == index.tree.root_hash


class TestUnorderedRangeIndex:
    def test_shuffled_stream_end_to_end(self):
        import random

        index = AuthenticatedRangeIndex(fanout=4, ordered=False)
        ids = list(range(1, 31))
        random.Random(13).shuffle(ids)
        for oid in ids:
            metadata = ObjectMetadata.of(
                DataObject(oid, ("tag",), b"payload-%d" % oid)
            )
            receipts = index.insert(metadata)
            assert all(r.status for r in receipts), [r.error for r in receipts]
        entries, vo = index.query(10, 20)
        assert [e.key for e in entries] == list(range(10, 21))
        verified = index.verify(vo)
        assert [e.key for e in verified] == list(range(10, 21))

    def test_ordered_index_rejects_out_of_order(self):
        from repro.errors import ReproError

        index = AuthenticatedRangeIndex(fanout=4, ordered=True)
        index.insert(ObjectMetadata.of(DataObject(10, ("t",), b"a")))
        # The right-most-spine UpdVO cannot describe an out-of-order
        # insertion; the SP-side generator refuses before any tx is sent.
        with pytest.raises(ReproError):
            index.insert(ObjectMetadata.of(DataObject(5, ("t",), b"b")))
        assert len(index.tree) == 1
