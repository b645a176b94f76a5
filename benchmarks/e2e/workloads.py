"""The four named workloads and the inputs each one generates from a seed.

The program under test only ever sees the generated objects and query
strings; the keyword structure of every query stays here so the
dict-of-sets oracle never depends on the program's own parser.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass, field, replace

from repro.core.objects import DataObject
from repro.datasets import ConjunctiveWorkload, dblp_like

#: A query as the harness knows it: a disjunction of keyword conjunctions.
Query = tuple[tuple[str, ...], ...]

#: Query lists are drawn from this constant, not from ``--seed``: a query
#: names keywords by frequency rank, so every seed asks the same questions
#: of a different corpus.  With a list per seed, the p90 of 100 queries
#: measured the luck of the draw (13 % between seeds, 5 % with one list).
QUERY_DESIGN_SEED = 2021

#: Broad queries draw from this many of the most frequent keywords.
BROAD_POOL = 16


@dataclass(frozen=True)
class Workload:
    """One named workload: system configuration, sizes and query shape."""

    name: str
    why: str
    scheme: str
    objects: int
    queries: int
    #: 1 ingests with ``add_object``; larger values ingest through
    #: ``add_objects_batched`` in chunks of that many objects.
    chunk: int
    broad: bool
    #: Warm-up queries asked, unmeasured, before the first timed pass.
    warmup: int = 20
    #: Keyword arguments that differ from ``HybridStorageSystem()``.
    system: dict = field(default_factory=dict)
    compact: bool = False
    #: Ask the warm-up list at the start of every pass, not once: the timed
    #: queries then meet the proof cache of a client that has been asking
    #: for a while, not an empty one.
    warm_sessions: bool = False

    @property
    def sharded(self) -> bool:
        return self.system.get("shards", 1) > 1


# Sizes were cut from the issue's 55-75 s starting points so that one run
# (set-up, ingest, warm-up, three query passes, and the traced pass) ends
# in under ~25 s on a 2-core box: 92 driver runs must fit in 3420 s.  Q
# stays >= 100 so the p90 has ten samples beyond it.
WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="smi_selective",
        why="SMI point lookups: 3-keyword joins, MB-tree boundary proofs, small "
        "multiproofs, UpdVO gas on ingest; CVC, affine and disk code idle",
        scheme="smi",
        objects=2000,
        queries=100,
        chunk=1,
        broad=False,
    ),
    Workload(
        name="smi_broad_sharded",
        why="same Merkle family used as full-list scans over 2 affine disk shards: "
        "all_proven, multiproof dedup, large wire payloads, pipe RPCs and journal writes",
        scheme="smi",
        objects=600,
        queries=100,
        chunk=1,
        broad=True,
        system={"shards": 2, "pool": "affine", "engine": "disk"},
        compact=True,
    ),
    Workload(
        name="cistar_selective",
        why="CI* on its favourable case: Bloom-filter skips, joins and codec under a "
        "verification cache kept warm by 40 untimed queries per session; mbtree and "
        "multiproof idle",
        scheme="ci*",
        objects=128,
        queries=180,
        chunk=4,
        broad=False,
        # 180 + 40 are all 220 conjunctions over the 12-keyword pool; 40
        # leave under 1 % of the timed tuples to verify cold.
        warmup=40,
        warm_sessions=True,
    ),
    Workload(
        name="ci_broad",
        why="CI full-list scans from a cold cache: per-entry CVC openings dominate VO "
        "bytes and cold verify_query dominates time; Bloom filters and joins nearly idle",
        scheme="ci",
        objects=120,
        queries=300,
        chunk=4,
        broad=True,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def scaled(workload: Workload, scale: float) -> Workload:
    """The workload at ``scale`` of its size (the smoke test runs 1/20)."""
    if scale == 1.0:
        return workload
    return replace(
        workload,
        objects=max(40, round(workload.objects * scale)),
        queries=max(5, round(workload.queries * scale)),
        warmup=max(5, round(workload.warmup * scale)),
    )


def query_text(query: Query) -> str:
    """The query string the client sends."""
    return " OR ".join(
        "(" + " AND ".join(conj) + ")" if len(conj) > 1 else conj[0]
        for conj in query
    )


def _selective(dataset, count: int, seed: int, exclude: set[Query]) -> list[Query]:
    """``count`` distinct 3-keyword conjunctions over the top-frequency pool.

    The pool is ``ConjunctiveWorkload``'s.  Its draws are replaced by rounds
    that cut the shuffled pool into disjoint triples, so every keyword is
    queried equally often: with independent draws the mean VO size of 100
    queries moved 8.6 % between seeds, with rounds 2.2 %.
    """
    pool = dataset.top_keywords(
        ConjunctiveWorkload(dataset, num_keywords=3).pool_size
    )
    if math.comb(len(pool), 3) < count + len(exclude):
        raise ValueError(f"fewer than {count} conjunctions over the pool")
    rng = random.Random(seed)
    queries: list[Query] = []
    seen = set(exclude)
    while len(queries) < count:
        rng.shuffle(pool)
        for i in range(0, len(pool) - 2, 3):
            query: Query = (tuple(sorted(pool[i : i + 3])),)
            if query not in seen and len(queries) < count:
                seen.add(query)
                queries.append(query)
    return queries


def _broad(dataset, count: int, seed: int, exclude: set[Query]) -> list[Query]:
    """Scans of each top keyword, then seeded ``a OR b``, then ``a OR b OR c``."""
    pool = dataset.top_keywords(BROAD_POOL)
    rng = random.Random(seed)
    candidates: list[Query] = []
    for width in (1, 2, 3):
        group = [
            tuple((kw,) for kw in combo)
            for combo in itertools.combinations(pool, width)
        ]
        if width > 1:
            rng.shuffle(group)
        candidates += [q for q in group if q not in exclude]
    if len(candidates) < count:
        raise ValueError(f"only {len(candidates)} broad queries over the pool")
    return candidates[:count]


@dataclass
class Inputs:
    """Everything one run feeds the program, plus the oracle's answers."""

    objects: list[DataObject]
    queries: list[Query]
    warmup: list[Query]
    #: keyword -> IDs of the objects carrying it (the dict-of-sets oracle).
    postings: dict[str, set[int]]
    corpus_sha3: str
    queries_sha3: str

    def expected(self, query: Query) -> list[int]:
        """The oracle's answer: union over conjuncts of the intersections."""
        ids: set[int] = set()
        for conj in query:
            lists = [self.postings.get(kw, set()) for kw in conj]
            ids |= set.intersection(*lists)
        return sorted(ids)

    @property
    def posting_count(self) -> int:
        return sum(len(ids) for ids in self.postings.values())

    @property
    def user_bytes(self) -> int:
        return sum(
            len(obj.content) + sum(len(kw) for kw in obj.keywords)
            for obj in self.objects
        )


def generate(workload: Workload, seed: int) -> Inputs:
    """Corpus, query list, warm-up list and oracle for ``(workload, seed)``."""
    dataset = dblp_like(workload.objects, seed=seed)
    objects = dataset.materialise()
    make = _broad if workload.broad else _selective
    # The measured list and the warm-up list share no query, so warm-up
    # never pre-answers a timed request.
    queries = make(dataset, workload.queries, QUERY_DESIGN_SEED, set())
    warmup = make(dataset, workload.warmup, QUERY_DESIGN_SEED + 1, set(queries))
    postings: dict[str, set[int]] = {}
    corpus = hashlib.sha3_256()
    for obj in objects:
        corpus.update(obj.object_id.to_bytes(8, "big"))
        corpus.update("\x00".join(obj.keywords).encode())
        corpus.update(obj.content)
        for keyword in obj.keywords:
            postings.setdefault(keyword, set()).add(obj.object_id)
    listing = "\n".join(query_text(q) for q in queries)
    return Inputs(
        objects=objects,
        queries=queries,
        warmup=warmup,
        postings=postings,
        corpus_sha3=corpus.hexdigest(),
        queries_sha3=hashlib.sha3_256(listing.encode()).hexdigest(),
    )
