"""Join + verification correctness against a brute-force model.

Uses the Merkle family for speed (pure hashing); the Chameleon family's
join shares the identical engine and is exercised in the integration and
attack suites.
"""

import random

import pytest

from repro.core.merkle_family import MerkleInvertedSP, MerkleProofSystem
from repro.core.objects import DataObject, ObjectMetadata
from repro.core.query.join import conjunctive_join, join_two, semi_join
from repro.core.query.parser import KeywordQuery
from repro.core.query.verify import verify_query
from repro.core.query.vo import QueryAnswer, QueryVO
from repro.errors import QueryError, VerificationError

from tests.finishing import finish, verify_finished


def build_sp(doc_keywords: dict[int, tuple[str, ...]]) -> MerkleInvertedSP:
    sp = MerkleInvertedSP()
    for oid in sorted(doc_keywords):
        sp.insert(ObjectMetadata.of(DataObject(oid, doc_keywords[oid], b"c")))
    return sp


def proof_system_for(sp: MerkleInvertedSP, keywords) -> MerkleProofSystem:
    return MerkleProofSystem(roots={kw: sp.root_hash(kw) for kw in keywords})


def brute_force(doc_keywords, conj):
    return {
        oid
        for oid, kws in doc_keywords.items()
        if conj <= set(kws)
    }


@pytest.fixture()
def corpus():
    """The paper's Fig. 5 inverted index."""
    return {
        1: ("covid-19", "sars-cov-2"),
        2: ("covid-19",),
        3: ("sars-cov-2",),
        4: ("covid-19", "symptom", "vaccine"),
        5: ("covid-19", "vaccine"),
        6: ("symptom",),
        7: ("covid-19",),
        8: ("covid-19", "vaccine"),
        9: ("symptom",),
        10: ("covid-19",),
        11: ("symptom",),
        12: ("covid-19",),
    }


class TestJoinTwo:
    def test_paper_example(self, corpus):
        sp = build_sp(corpus)
        matches, vo = join_two(sp.view("symptom"), sp.view("covid-19"))
        assert matches == [4]
        # The SP's walk leaves no rounds, only what it read per tree.
        assert [run.keys for run in vo.runs] == [
            (4, 6, 9, 11),
            (4, 5, 7, 8, 10, 12),
        ]
        # The walk ended on an open-ended probe of the larger tree.
        assert sp.view("covid-19").boundaries(11) == (10, 12)

    def test_empty_tree_rejected(self, corpus):
        sp = build_sp(corpus)
        with pytest.raises(QueryError):
            join_two(sp.view("symptom"), sp.view("missing"))

    def test_identical_trees_full_overlap(self, corpus):
        sp = build_sp(corpus)
        matches, _ = join_two(sp.view("vaccine"), sp.view("vaccine"))
        assert matches == [4, 5, 8]


class TestSemiJoin:
    def test_filters_candidates(self, corpus):
        sp = build_sp(corpus)
        view = sp.view("symptom")
        survivors = semi_join([4, 5, 8], view)
        assert survivors == [4]
        assert view.keys == [4, 6, 9]  # the view keeps what was read

    def test_empty_candidates(self, corpus):
        sp = build_sp(corpus)
        view = sp.view("symptom")
        survivors = semi_join([], view)
        assert survivors == []
        assert view.keys == []


class TestConjunctiveJoin:
    def test_single_keyword_full_scan(self, corpus):
        sp = build_sp(corpus)
        ids, vo = conjunctive_join([sp.view("symptom")])
        assert ids == [4, 6, 9, 11]
        assert vo.base is not None

    def test_empty_keyword_short_circuits(self, corpus):
        sp = build_sp(corpus)
        ids, vo = conjunctive_join([sp.view("covid-19"), sp.view("none")])
        assert ids == []
        assert vo.empty_keyword == "none"

    def test_three_way_cyclic(self, corpus):
        sp = build_sp(corpus)
        views = [sp.view(k) for k in ("covid-19", "symptom", "vaccine")]
        ids, vo = conjunctive_join(views)
        assert ids == [4]
        assert vo.base.plan == "cyclic" and len(vo.base.trees) == 3

    def test_three_way_semijoin(self, corpus):
        sp = build_sp(corpus)
        views = [sp.view(k) for k in ("covid-19", "symptom", "vaccine")]
        ids, vo = conjunctive_join(views, plan="semijoin")
        assert ids == [4]
        assert vo.base.plan == "semijoin" and len(vo.base.trees) == 3
        # Base pair (the two smallest trees), then one stage probing the
        # lone candidate in the third.
        assert vo.base.trees == ("vaccine", "symptom", "covid-19")
        assert vo.base.runs[2].keys == (4, 5)


class TestVerification:
    def _query(self, sp, corpus, text):
        query = KeywordQuery.parse(text)
        conjunct_vos = []
        all_ids = set()
        for conj in query.conjunctions:
            views = [sp.view(kw) for kw in sorted(conj)]
            ids, vo = conjunctive_join(views)
            conjunct_vos.append(vo)
            all_ids |= set(ids)
        objects = {
            oid: DataObject(oid, corpus[oid], b"c") for oid in all_ids
        }
        answer = QueryAnswer(
            result_ids=sorted(all_ids),
            objects=objects,
            vo=finish(QueryVO(conjuncts=tuple(conjunct_vos))),
        )
        ps = proof_system_for(sp, query.all_keywords())
        return query, answer, ps

    @pytest.mark.parametrize(
        "text",
        [
            "covid-19 AND symptom",
            "covid-19 AND vaccine",
            "symptom",
            "covid-19 AND symptom AND vaccine",
            "(covid-19 AND vaccine) OR (sars-cov-2 AND vaccine)",
            "covid-19 AND ghost-keyword",
            "sars-cov-2 OR symptom",
        ],
    )
    def test_valid_answers_verify(self, corpus, text):
        sp = build_sp(corpus)
        query, answer, ps = self._query(sp, corpus, text)
        verified = verify_query(query, answer, ps)
        expected = {
            oid
            for oid, kws in corpus.items()
            if query.matches(frozenset(kws))
        }
        assert verified.ids == expected

    def test_conjunct_keyword_mismatch_rejected(self, corpus):
        sp = build_sp(corpus)
        _, answer, ps = self._query(sp, corpus, "covid-19 AND symptom")
        other = KeywordQuery.parse("covid-19 AND vaccine")
        with pytest.raises(VerificationError):
            verify_query(other, answer, ps)

    def test_claimed_results_must_match(self, corpus):
        sp = build_sp(corpus)
        query, answer, ps = self._query(sp, corpus, "covid-19 AND symptom")
        answer.result_ids.append(5)  # inflate the claimed results
        with pytest.raises(VerificationError):
            verify_query(query, answer, ps)

    def test_missing_result_object_rejected(self, corpus):
        sp = build_sp(corpus)
        query, answer, ps = self._query(sp, corpus, "covid-19 AND symptom")
        answer.objects.clear()
        with pytest.raises(VerificationError):
            verify_query(query, answer, ps)

    def test_tampered_object_content_rejected(self, corpus):
        sp = build_sp(corpus)
        query, answer, ps = self._query(sp, corpus, "covid-19 AND symptom")
        answer.objects[4] = DataObject(4, corpus[4], b"TAMPERED")
        with pytest.raises(VerificationError):
            verify_query(query, answer, ps)


class TestRandomisedAgainstModel:
    def test_many_random_corpora(self):
        rng = random.Random(1234)
        vocabulary = [f"w{i}" for i in range(12)]
        for trial in range(25):
            corpus = {}
            for oid in range(1, rng.randint(5, 60)):
                count = rng.randint(1, 5)
                corpus[oid] = tuple(rng.sample(vocabulary, count))
            sp = build_sp(corpus)
            for _ in range(8):
                conj = frozenset(rng.sample(vocabulary, rng.randint(1, 4)))
                views = [sp.view(kw) for kw in sorted(conj)]
                ids, vo = conjunctive_join(views)
                assert set(ids) == brute_force(corpus, set(conj)), (
                    trial, sorted(conj)
                )
                ps = proof_system_for(sp, conj)
                assert verify_finished(conj, vo, ps) == set(ids)
