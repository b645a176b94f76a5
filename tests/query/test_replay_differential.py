"""Differential test of the replayed Merkle join against two oracles.

For random corpora, both Merkle schemes, both join plans and a spread of
DNF shapes, the answer the client derives by replaying the join over the
SP's tables (v5 frames, through the wire codec) must equal

* the brute-force evaluation of the query over the corpus, and
* what verification of the legacy answer (``vo_version=2``: the walk
  shipped as rounds of path-proven entries, checked round by round)
  yields for the same query on a twin system.

Every check raises explicitly, so the file means the same under
``python -O`` (CI runs it that way next to ``tests/attacks``).
"""

import random

import pytest

from repro import DataObject, HybridStorageSystem, KeywordQuery
from repro.core.query.codec import VOCodec
from repro.core.query.verify import verify_query
from repro.core.query.vo import ReplayVO

VOCABULARY = [f"w{i}" for i in range(9)]


def expect(condition, *context):
    if not condition:
        raise AssertionError(context)


def random_corpus(rng):
    """5-70 objects; keyword ``w_i`` on roughly one object in ``i + 1``."""
    docs = []
    for oid in rng.sample(range(1, 400), rng.randint(5, 70)):
        kws = tuple(
            kw for i, kw in enumerate(VOCABULARY) if rng.randrange(i + 1) == 0
        ) or (VOCABULARY[0],)
        docs.append(DataObject(oid, kws, b"object %d" % oid))
    return sorted(docs, key=lambda doc: doc.object_id)


def random_queries(rng):
    """DNF shapes: scans, 2- to 5-way joins, unions of them, a keyword
    nobody has, and a tree that one conjunct joins and another scans
    (the parser would absorb that one, so it is built directly)."""
    words = VOCABULARY + ["nobody"]
    queries = []
    for _ in range(10):
        conjunctions = tuple(
            frozenset(rng.sample(words, rng.randint(1, 5)))
            for _ in range(rng.randint(1, 3))
        )
        queries.append(KeywordQuery(conjunctions=conjunctions))
    a, b, c = rng.sample(VOCABULARY, 3)
    queries.append(KeywordQuery(conjunctions=(frozenset((a, b)), frozenset((a,)))))
    queries.append(
        KeywordQuery(
            conjunctions=(frozenset((a, b)), frozenset((a, c)), frozenset((b, c)))
        )
    )
    queries.append(KeywordQuery.parse(f"({a} AND {b}) OR {c}"))
    return queries


@pytest.mark.parametrize("plan", ["cyclic", "semijoin"])
@pytest.mark.parametrize("scheme", ["mi", "smi"])
def test_replayed_answers_equal_the_oracle_and_the_legacy_verification(scheme, plan):
    rng = random.Random(f"{scheme}/{plan}")
    replayed = shared = 0
    for _ in range(5):
        docs = random_corpus(rng)
        tables = HybridStorageSystem(scheme=scheme, seed=11, join_plan=plan)
        rounds = HybridStorageSystem(
            scheme=scheme, seed=11, join_plan=plan, vo_version=2
        )
        for system in (tables, rounds):
            system.add_objects(docs)
        codec = VOCodec(value_bytes=tables.value_bytes)
        for query in random_queries(rng):
            oracle = {
                doc.object_id for doc in docs if query.matches(doc.keyword_set())
            }
            answer = tables.process_query(query)
            frame = codec.encode(answer.vo)
            answer.vo = codec.decode(frame)
            bases = [conj.base for conj in answer.vo.conjuncts]
            expect(
                all(base is None or isinstance(base, ReplayVO) for base in bases),
                "a Merkle answer shipped something other than tables",
            )
            replayed += sum(base is not None for base in bases)
            named = [t for base in bases if base for t in base.tables()]
            shared += len(named) != len(set(named))
            ps = tables.chain_proof_system(query.all_keywords())
            verified = verify_query(query, answer, ps)
            expect(verified.ids == oracle, scheme, plan, str(query), verified.ids, oracle)
            expect(set(answer.result_ids) == oracle)

            legacy = rounds.process_query(query)
            legacy_frame = codec.encode(legacy.vo)
            expect(legacy_frame[0] < 0xF0 and not legacy.vo.multiproofs)
            legacy.vo = codec.decode(legacy_frame)
            legacy_ps = rounds.chain_proof_system(query.all_keywords())
            expect(verify_query(query, legacy, legacy_ps).ids == verified.ids)
            expect(len(frame) <= len(legacy_frame), "v5 larger than v2", str(query))
        tables.close()
        rounds.close()
    expect(replayed > 60 and shared > 5, replayed, shared)
