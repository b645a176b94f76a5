"""Integration tests: realistic workloads through the full stack.

Every scheme ingests a synthetic Twitter-like corpus and answers random
conjunctive and disjunctive queries; results are checked against a
brute-force evaluation of the query over the raw corpus, and every
answer must pass client-side verification.
"""

import pytest

from repro import HybridStorageSystem
from repro.datasets.synthetic import twitter_like
from repro.datasets.workloads import ConjunctiveWorkload, DisjunctiveWorkload

CORPUS_SIZE = 80


@pytest.fixture(scope="module")
def corpus():
    return twitter_like(CORPUS_SIZE, seed=17).materialise()


def brute_force(corpus, query):
    return sorted(
        obj.object_id for obj in corpus if query.matches(obj.keyword_set())
    )


@pytest.fixture(scope="module", params=["mi", "smi", "ci", "ci*"])
def loaded_system(request, corpus):
    system = HybridStorageSystem(
        scheme=request.param, cvc_modulus_bits=512, seed=9
    )
    for obj in corpus:
        system.add_object(obj)
    return system


class TestRandomConjunctiveQueries:
    def test_results_match_brute_force(self, loaded_system, corpus):
        dataset = twitter_like(CORPUS_SIZE, seed=17)
        for num_keywords in (1, 2, 3):
            workload = ConjunctiveWorkload(
                dataset=dataset,
                num_keywords=num_keywords,
                pool_size=30,
                seed=23 + num_keywords,
            )
            for query in workload.queries(4):
                result = loaded_system.query(query)
                assert result.result_ids == brute_force(corpus, query), str(
                    query
                )


class TestRandomDisjunctiveQueries:
    def test_results_match_brute_force(self, loaded_system, corpus):
        dataset = twitter_like(CORPUS_SIZE, seed=17)
        workload = DisjunctiveWorkload(
            dataset=dataset,
            num_conjunctions=2,
            keywords_per_conjunction=2,
            pool_size=25,
            seed=31,
        )
        for query in workload.queries(4):
            result = loaded_system.query(query)
            assert result.result_ids == brute_force(corpus, query), str(query)


class TestChainState:
    def test_ledger_integrity(self, loaded_system):
        assert loaded_system.chain.verify_chain()
        assert loaded_system.chain.height == CORPUS_SIZE

    def test_all_receipts_succeeded(self, loaded_system):
        for block in loaded_system.chain.blocks[1:]:
            for receipt in block.receipts:
                assert receipt.status, receipt.error

    def test_gas_accounting_consistent(self, loaded_system):
        total = loaded_system.chain.total_gas_used()
        assert total == loaded_system.maintenance_meter().total


class TestLightClientEndToEnd:
    def test_fully_light_verified_query(self, corpus):
        """A light client verifies VO_chain itself: keyword roots are
        read via storage proofs against block headers, then the query
        answer is verified against those proven digests."""
        from repro import HybridStorageSystem, KeywordQuery
        from repro.core.merkle_family import MerkleProofSystem
        from repro.core.query.verify import verify_query
        from repro.ethereum.state import LightClient

        system = HybridStorageSystem(scheme="smi", seed=9, track_state=True)
        light = LightClient(
            genesis_hash=system.chain.blocks[0].header.hash()
        )
        for obj in corpus[:40]:
            system.add_object(obj)
        for block in system.chain.blocks[1:]:
            light.accept_header(block.header)

        query = KeywordQuery.parse(
            f"{corpus[0].keywords[0]} AND {corpus[0].keywords[-1]}"
        )
        answer = system.process_query(query)
        roots = {}
        for keyword in query.all_keywords():
            proof = system.chain.prove_storage("ads", ("root", keyword))
            roots[keyword] = light.read_storage(proof)
        ps = MerkleProofSystem(roots=roots)
        verified = verify_query(query, answer, ps)
        expected = {
            obj.object_id
            for obj in corpus[:40]
            if query.matches(obj.keyword_set())
        }
        assert verified.ids == expected
