"""Unit tests for VO structures and size accounting."""

import pytest

from repro.core.merkle_family import MerkleInvertedSP
from repro.core.objects import DataObject, ObjectMetadata
from repro.core.query.join import conjunctive_join
from repro.core.query.vo import (
    ConjunctiveVO,
    JoinRound,
    ProvenEntry,
    QueryVO,
    SemiJoinProbe,
)
from repro.crypto.hashing import sha3

from tests.finishing import boundaries_proven, finish, first_proven


def build_sp(n, keywords=("a", "b")):
    sp = MerkleInvertedSP()
    for oid in range(1, n + 1):
        kws = tuple(k for i, k in enumerate(keywords) if oid % (i + 2) != 0) or keywords[:1]
        sp.insert(ObjectMetadata.of(DataObject(oid, kws, b"c")))
    return sp


class TestProvenEntry:
    def test_byte_size_includes_proof(self):
        sp = build_sp(20)
        entry = first_proven(sp.view("a"))
        assert entry.byte_size() > 40  # id + hash + path

    def test_rejects_proof_without_byte_size(self):
        entry = ProvenEntry(object_id=1, object_hash=sha3(b"x"), proof=object())
        with pytest.raises(TypeError):
            entry.byte_size()

    def test_none_proof_costs_only_framing(self):
        entry = ProvenEntry(object_id=1, object_hash=sha3(b"x"), proof=None)
        # presence + id + hash + proof tag
        assert entry.byte_size() == 1 + 8 + 32 + 1


class TestJoinRoundSizes:
    def test_probe_round(self):
        sp = build_sp(20)
        lower, upper = boundaries_proven(sp.view("a"), 5)
        rnd = JoinRound(kind="probe", lower=lower, upper=upper)
        # kind + probe index + both boundaries + absent next_target slot
        assert rnd.byte_size() == 3 + lower.byte_size() + upper.byte_size()

    def test_skip_round_smaller_than_probe(self):
        sp = build_sp(20)
        lower, upper = boundaries_proven(sp.view("a"), 5)
        probe = JoinRound(kind="probe", lower=lower, upper=upper)
        skip = JoinRound(kind="skip", next_target=upper)
        assert skip.byte_size() < probe.byte_size()


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
        absent = SemiJoinProbe(candidate_id=5, bloom_absent=True)
        assert not absent.matched
        # id + flag + two absent boundary slots
        assert absent.byte_size() == 11
