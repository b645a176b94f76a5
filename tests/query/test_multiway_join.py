"""Dedicated tests for the k-way cyclic join walk.

The cyclic walk is verified against a brute-force model across random
corpora and keyword counts, for both plans (the client accepts only the
rule's, here the walk), and its structural
properties (schedule determinism, growth with k) are pinned down.
"""

import random

import pytest

from repro.core.merkle_family import MerkleInvertedSP, MerkleProofSystem
from repro.core.objects import DataObject, ObjectMetadata
from repro.core.query.join import conjunctive_join, multiway_join, rule_plan
from repro.errors import QueryError, VerificationError

from tests.finishing import verify_finished


def build_sp(doc_keywords):
    sp = MerkleInvertedSP()
    for oid in sorted(doc_keywords):
        sp.insert(ObjectMetadata.of(DataObject(oid, doc_keywords[oid], b"c")))
    return sp


def proof_system_for(sp, keywords):
    return MerkleProofSystem(roots={kw: sp.root_hash(kw) for kw in keywords})


def brute_force(doc_keywords, conj):
    return {oid for oid, kws in doc_keywords.items() if conj <= set(kws)}


def random_corpus(rng, vocabulary, max_objects=60):
    corpus = {}
    for oid in range(1, rng.randint(8, max_objects)):
        corpus[oid] = tuple(
            rng.sample(vocabulary, rng.randint(1, min(6, len(vocabulary))))
        )
    return corpus


class TestCyclicWalk:
    def test_requires_two_nonempty_trees(self):
        sp = build_sp({1: ("a",)})
        with pytest.raises(QueryError):
            multiway_join([sp.view("a")])
        with pytest.raises(QueryError):
            multiway_join([sp.view("a"), sp.view("empty")])

    def test_three_way_schedule(self):
        corpus = {
            1: ("a", "b", "c"),
            2: ("a",),
            3: ("a", "b", "c"),
            4: ("b", "c"),
            5: ("a", "b", "c"),
        }
        sp = build_sp(corpus)
        views = [sp.view(k) for k in ("a", "b", "c")]
        matches, vo = multiway_join(views)
        assert matches == [1, 3, 5]
        # Each target is probed in the *other* trees in list order:
        # 1 (home a) in b, c; 3 (home c) in a, b; 4 (home b) in a, where
        # it fails; 5 (home a) in b, c, which both end there.
        assert [run.keys for run in vo.runs] == [(1, 3, 5), (1, 3, 4, 5), (1, 3, 5)]
        ps = proof_system_for(sp, {"a", "b", "c"})
        assert verify_finished({"a", "b", "c"}, vo, ps) == {1, 3, 5}

    def test_rounds_grow_with_keyword_count(self):
        """The walk reads more with k (the paper's Fig. 11/12 shape)."""
        rng = random.Random(7)
        vocabulary = [f"w{i}" for i in range(8)]
        corpus = {
            oid: tuple(rng.sample(vocabulary, 5)) for oid in range(1, 120)
        }
        sp = build_sp(corpus)
        read_counts = {}
        for k in (2, 4, 6):
            views = [sp.view(f"w{i}") for i in range(k)]
            _, vo = multiway_join(views)
            read_counts[k] = sum(len(run.keys) for run in vo.runs)
        assert read_counts[2] < read_counts[4] < read_counts[6]


class TestPlansAgainstModel:
    @pytest.mark.parametrize("plan", ["cyclic", "semijoin"])
    def test_random_corpora(self, plan):
        rng = random.Random(99)
        vocabulary = [f"w{i}" for i in range(10)]
        for _ in range(20):
            corpus = random_corpus(rng, vocabulary)
            sp = build_sp(corpus)
            for _ in range(6):
                conj = frozenset(rng.sample(vocabulary, rng.randint(2, 5)))
                views = [sp.view(kw) for kw in sorted(conj)]
                ids, vo = conjunctive_join(views, plan=plan)
                assert set(ids) == brute_force(corpus, set(conj))
                ps = proof_system_for(sp, conj)
                if vo.base is not None and vo.base.plan != rule_plan(views):
                    # Merkle trees carry no filters: the rule's plan is
                    # the cyclic walk, and the client holds the SP to it.
                    with pytest.raises(VerificationError, match="rule's"):
                        verify_finished(conj, vo, ps)
                    continue
                assert verify_finished(conj, vo, ps) == set(ids)

    def test_plans_agree(self):
        rng = random.Random(3)
        vocabulary = [f"w{i}" for i in range(9)]
        corpus = random_corpus(rng, vocabulary, max_objects=80)
        sp = build_sp(corpus)
        for _ in range(10):
            conj = sorted(rng.sample(vocabulary, rng.randint(3, 6)))
            views = [sp.view(kw) for kw in conj]
            cyclic_ids, _ = conjunctive_join(views, plan="cyclic")
            semijoin_ids, _ = conjunctive_join(views, plan="semijoin")
            assert cyclic_ids == semijoin_ids
