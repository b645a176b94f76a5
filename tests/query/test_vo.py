"""Unit tests for VO structures and size accounting.

There is one VO shape: tables plus, per conjunct, the names of the
tables the client replays the join over.  What a probe, a Bloom skip or
a semi-join stage *costs* is therefore read off the tables: the rows the
walk had to read.
"""

import pytest

from repro.core.chameleon import ChameleonTreeSP, InsertionProof
from repro.core.chameleon_index import ChameleonView
from repro.core.merkle_family import MerkleInvertedSP
from repro.core.objects import DataObject, ObjectMetadata
from repro.core.query.join import conjunctive_join, semi_join
from repro.core.query.vo import (
    ConjunctiveVO,
    ProvenEntry,
    QueryVO,
    iter_proven_entries,
)
from repro.crypto.bloom import BloomFilterChain
from repro.crypto.hashing import sha3

from tests.finishing import finish


def build_sp(n, keywords=("a", "b")):
    sp = MerkleInvertedSP()
    for oid in range(1, n + 1):
        kws = tuple(k for i, k in enumerate(keywords) if oid % (i + 2) != 0) or keywords[:1]
        sp.insert(ObjectMetadata.of(DataObject(oid, kws, b"c")))
    return sp


def scan_vo(sp, keyword):
    _, vo = conjunctive_join([sp.view(keyword)])
    return finish(vo)


class TestProvenEntry:
    def test_byte_size_includes_proof(self):
        vo = scan_vo(build_sp(20), "a")
        entries = list(iter_proven_entries(vo))
        assert entries and all(isinstance(e, ProvenEntry) for e in entries)
        # More than the bare ``id + hash`` rows: the table authenticates them.
        assert vo.byte_size() > 40 * len(entries)
        assert vo.proof_byte_size() == (
            vo.multiproofs[0].byte_size() - 40 * len(entries)
        )

    def test_rejects_proof_without_byte_size(self):
        vo = QueryVO(conjuncts=(), multiproofs=(object(),))
        with pytest.raises(AttributeError):
            vo.byte_size()

    def test_none_proof_costs_only_framing(self):
        empty = ConjunctiveVO(keywords=("a",), empty_keyword="a")
        vo = QueryVO(conjuncts=(empty,))
        # marker + table count + conjunct count, then the conjunct:
        # keyword count + "a" + kind + "a"
        assert vo.byte_size() == 3 + (1 + 2 + 1 + 2)
        assert vo.proof_byte_size() == 0
        assert ProvenEntry(1, sha3(b"x")).object_id == 1


def store_tree(ids):
    """An SP-side Chameleon tree over ``ids`` with stand-in group elements.

    The SP's view never looks at them: it reads IDs and positions.
    """
    tree = ChameleonTreeSP(root_commitment=1, arity=2, value_bytes=8)
    for position, oid in enumerate(ids, 1):
        tree.apply_insertion(
            InsertionProof(
                position=position,
                object_id=oid,
                object_hash=sha3(b"%d" % oid),
                commitment=position,
                slot1_proof=position,
                parent_link_proof=position,
                parent_position=(position - 1) // 2,
                child_index=(position - 1) % 2 + 1,
            )
        )
    return tree


class TestJoinRoundSizes:
    def test_probe_round(self):
        """A probe costs the two boundary rows around its target."""
        view = ChameleonView("a", store_tree(range(10, 30)))
        assert view.boundaries(15) == (15, 16)
        assert view.positions == [6, 7]
        table = view.tree.multiproof(tuple(view.positions))
        rows = table.rows()
        assert [flag for _, _, flag in rows].count(1) == 2
        entry = 2 + 40 + 3 * 8  # position + flag, id + hash, three elements
        node = 2 + 2 * 8
        entries = sum(flag for _, _, flag in rows)
        assert table.byte_size() == 2 + entries * entry + (len(rows) - entries) * node

    def test_skip_round_smaller_than_probe(self):
        """A Bloom skip reads one row of the home tree, a probe two of the probed."""
        home = ChameleonView("home", store_tree(range(10, 30)))
        chain = BloomFilterChain(filter_bits=256, capacity=8)
        for oid in (50, 60):
            chain.add(oid)
        probed = ChameleonView("probed", store_tree((50, 60)), bloom=chain)
        home.first()
        before = len(home.positions)
        ids, _ = conjunctive_join([home, probed], order="given")
        assert ids == []
        # Every target was skipped: the probed tree was never read, and
        # each skip advanced the home tree by exactly one row.
        assert probed.positions == []
        assert len(home.positions) - before == 19


class TestAggregateSizes:
    def test_vo_size_grows_with_results(self):
        small_sp = build_sp(10)
        large_sp = build_sp(200)
        _, small_vo = conjunctive_join([small_sp.view("a"), small_sp.view("b")])
        _, large_vo = conjunctive_join([large_sp.view("a"), large_sp.view("b")])
        small = finish(QueryVO(conjuncts=(small_vo,))).byte_size()
        large = finish(QueryVO(conjuncts=(large_vo,))).byte_size()
        assert large > small

    def test_empty_keyword_vo_is_tiny(self):
        vo = ConjunctiveVO(keywords=("a", "ghost"), empty_keyword="ghost")
        assert vo.byte_size() < 50

    def test_semi_join_probe_flags(self):
        """A Bloom-excluded candidate is no survivor and reads no row."""
        chain = BloomFilterChain(filter_bits=256, capacity=8)
        for oid in (12, 14):
            chain.add(oid)
        view = ChameleonView("a", store_tree((12, 14)), bloom=chain)
        absent = next(o for o in range(100, 200) if chain.definitely_absent(o))
        assert semi_join([absent], view) == []
        assert view.positions == []
        assert semi_join([12, 13], view) == [12]
        assert view.positions  # these were probed

