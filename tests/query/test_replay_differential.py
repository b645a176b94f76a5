"""Differential test of the replayed join against two oracles.

For random corpora, all four schemes, both join plans, one in-process
shard and two affine shards, and a spread of DNF shapes, the answer the
client derives by replaying the join over the SP's tables (through the
wire codec) must equal

* the brute-force evaluation of the query over the corpus, and
* what the walk the repository ran until PR 22 — probe the other trees
  at cyclic offsets from the target's home tree, kept below as a
  test-local function — finds over the same trees: the schedule changed
  which entries a walk reads, never what it finds.

The two deployments must also agree byte for byte.  Every check raises
explicitly, so the file means the same under ``python -O`` (CI runs it
that way next to ``tests/attacks``).
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


def random_corpus(rng, most):
    """5-``most`` objects; keyword ``w_i`` on roughly one object in ``i + 1``."""
    docs = []
    for oid in rng.sample(range(1, 400), rng.randint(5, most)):
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


def walk_at_cyclic_offsets(views):
    """The k-way walk as scheduled before PR 22 (k = 2: the same walk)."""
    k = len(views)
    matches = []
    target = views[0].first()
    home, confirm, offset = 0, 0, 1
    while True:
        probe_idx = (home + offset) % k
        view = views[probe_idx]
        if view.definitely_absent(target):
            _, upper = views[home].boundaries(target)
            if upper is None:
                return matches
            target, confirm, offset = upper, 0, 1
            continue
        lower, upper = view.boundaries(target)
        if lower == target:
            confirm += 1
            if confirm < k - 1:
                offset += 1
                continue
            matches.append(target)
        if upper is None:
            return matches
        target, home, confirm, offset = upper, probe_idx, 0, 1


def old_schedule_result(system, query):
    """The query's result under the old schedule, over the SP's own views."""
    found = set()
    for conj in query.conjunctions:
        views = sorted((system._sp_view(kw) for kw in sorted(conj)), key=len)
        if not len(views[0]):
            continue
        if len(views) == 1:
            found |= set(views[0].scan())
        else:
            found |= set(walk_at_cyclic_offsets(views))
    return found


@pytest.mark.parametrize("plan", ["cyclic", "semijoin"])
@pytest.mark.parametrize("scheme", ["mi", "smi", "ci", "ci*"])
def test_replayed_answers_equal_the_oracle_and_the_legacy_verification(scheme, plan):
    rng = random.Random(f"{scheme}/{plan}")
    cvc = scheme.startswith("ci")
    replayed = shared = three_way = 0
    for _ in range(3 if cvc else 5):
        docs = random_corpus(rng, 40 if cvc else 70)
        config = dict(
            scheme=scheme, seed=11, join_plan=plan, cvc_modulus_bits=512,
            bloom_capacity=4,
        )
        single = HybridStorageSystem(**config)
        sharded = HybridStorageSystem(shards=2, pool="affine", **config)
        try:
            for system in (single, sharded):
                system.add_objects_batched(docs)
            codec = VOCodec(value_bytes=single.value_bytes)
            for query in random_queries(rng):
                oracle = {
                    doc.object_id
                    for doc in docs
                    if query.matches(doc.keyword_set())
                }
                frames = []
                for system in (single, sharded):
                    answer = system.process_query(query)
                    frame = codec.encode(answer.vo)
                    expect(len(frame) == answer.vo.byte_size(), "byte_size drifted")
                    frames.append(frame)
                    answer.vo = codec.decode(frame)
                    bases = [conj.base for conj in answer.vo.conjuncts]
                    expect(
                        all(b is None or isinstance(b, ReplayVO) for b in bases),
                        "an answer shipped something other than tables",
                    )
                    ps = system.chain_proof_system(query.all_keywords())
                    verified = verify_query(query, answer, ps)
                    expect(
                        verified.ids == oracle,
                        scheme, plan, str(query), verified.ids, oracle,
                    )
                    expect(answer.result_ids == sorted(oracle))
                expect(frames[0] == frames[1], "shard layout shows in the bytes")
                replayed += sum(base is not None for base in bases)
                named = [t for base in bases if base for t in base.tables()]
                shared += len(named) != len(set(named))
                three_way += any(base and len(base.trees) > 2 for base in bases)
                expect(
                    old_schedule_result(single, query) == oracle,
                    "the old schedule finds something else", str(query),
                )
        finally:
            single.close()
            sharded.close()
    expect(replayed > 30 and shared > 2 and three_way > 5, replayed, shared, three_way)
