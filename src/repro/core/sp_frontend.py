"""SP front-end: scatter-gather query serving over keyword shards.

The :class:`ShardedStorageProvider` is the storage provider the rest of
the system talks to.  It owns ``N`` :class:`~repro.sp.engine.IndexShardEngine`
instances — each holding the ADS mirrors and object payloads of one
keyword partition — and routes every operation through a deterministic
seeded :class:`~repro.sp.engine.ShardRouter`:

* **ingestion** — confirmed index mutations go to the owning shard of
  their keyword; raw objects are homed on the shard of their first
  keyword and located through an ID -> shard map;
* **query serving** — each conjunct is joined over the views of its
  owning shards and the per-conjunct VOs are *gathered* in conjunct
  order.

A shard's work runs in one of two places and nowhere else: in this
process (``pool="stateless"``: the engines live here and every
operation is a plain call) or in the resident worker that owns the
shard (``pool="affine"``, :mod:`repro.sp.affine`).

Sharding is invisible above this layer: a keyword's tree receives
exactly the insert sequence it would receive in a single-shard system,
so views — and therefore per-conjunct VOs, verified answers and the
on-chain digests — are byte-identical for any shard count.  The merge
order is the query's conjunct order (replies are gathered in call
order), never a shard-map iteration order, which repro-lint's
determinism rule enforces for this module.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable, Iterator

from repro import obs
from repro.core import suppressed
from repro.core.multiproof import ProveRequest, compress_query_vo, prove_keys
from repro.core.objects import DataObject, ObjectMetadata
from repro.core.query.join import conjunctive_join
from repro.core.query.parser import KeywordQuery
from repro.core.query.vo import ConjunctiveVO, QueryAnswer, QueryVO
from repro.crypto.bloom import DEFAULT_CAPACITY, DEFAULT_FILTER_BITS
from repro.errors import DatasetError, ParameterError
from repro.sp.affine import (
    POOL_KINDS,
    AffineEngineProxy,
    AffineWorkerPool,
    EngineSpec,
)
from repro.sp.engine import ShardRouter

#: Max postings per affine ingest request: bounds any single pipe write
#: so a huge batch streams as several chunked dispatches per shard.
INGEST_CHUNK_ENTRIES = 4096


def _chunk_groups(
    groups: list[tuple[str, list]], limit: int
) -> Iterator[list[tuple[str, list]]]:
    """Split ``(keyword, entries)`` groups into ≤ ``limit``-posting chunks.

    A single keyword's entries may span chunks: the pipe is FIFO and the
    worker applies requests sequentially, so per-keyword insert order —
    the shard-transparency invariant — is preserved.
    """
    chunk: list[tuple[str, list]] = []
    count = 0
    for keyword, entries in groups:
        start = 0
        while start < len(entries):
            take = min(len(entries) - start, limit - count)
            chunk.append((keyword, entries[start : start + take]))
            count += take
            start += take
            if count >= limit:
                yield chunk
                chunk, count = [], 0
    if chunk:
        yield chunk


class RoutedTrees:
    """Read-only keyword -> tree mapping spanning every shard.

    The SMI update path builds pre-insertion spines from the SP's
    current trees via ``trees.get(keyword)``; this adapter routes each
    lookup to the owning shard so that code stays shard-agnostic.
    """

    def __init__(self, frontend: "ShardedStorageProvider") -> None:
        self._frontend = frontend

    def get(self, keyword: str):
        """The keyword's tree, or ``None`` if never inserted."""
        return self._frontend.tree(keyword)

    def spines(self, object_id: int, keywords: tuple[str, ...]) -> list:
        """Pre-insertion ``UpdVO`` spines, one per keyword, in order.

        With an affine pool the spines are extracted inside the workers
        holding the trees — one ``spines`` call per involved shard, a
        few digests per keyword back — instead of pulling every tree
        through the pipe.
        """
        frontend = self._frontend
        if frontend.pool is None:
            return suppressed.gen_spines(self, object_id, keywords)
        frontend.flush_mutations()
        return frontend._scatter_by_owner(
            "spines",
            [(keyword, keyword) for keyword in keywords],
            lambda owned: (object_id, owned),
            ingest=True,
        )


class ShardedStorageProvider:
    """The SP: N shard engines behind deterministic keyword routing.

    ``index_spec`` is the plain-data ``(kind, params)`` description of
    the active scheme's per-shard index mirror; every engine — here or
    in a worker — builds its mirror from it.  ``pool`` says where the
    engines live: ``"stateless"`` in this process, ``"affine"`` in one
    resident worker process per shard.  ``shards=1`` degenerates to the
    pre-sharding monolith: one engine owns everything and every code
    path reduces to the unsharded one.
    """

    def __init__(
        self,
        *,
        index_spec: tuple,
        scheme_value: str,
        join_order: str,
        join_plan: str,
        shards: int = 1,
        engine: str = "memory",
        engine_dir: str | Path | None = None,
        seed: int | None = None,
        star: bool = False,
        filter_bits: int = DEFAULT_FILTER_BITS,
        bloom_capacity: int = DEFAULT_CAPACITY,
        pool: str = "stateless",
    ) -> None:
        self.router = ShardRouter(shards, seed=seed)
        self.scheme_value = scheme_value
        self.join_order = join_order
        self.join_plan = join_plan
        if pool not in POOL_KINDS:
            raise ParameterError(
                f"unknown pool {pool!r}; expected one of: "
                + ", ".join(POOL_KINDS)
            )
        self.pool: AffineWorkerPool | None = None
        specs = [
            EngineSpec(
                shard_id=shard_id,
                engine=engine,
                index_spec=index_spec,
                directory=None if engine_dir is None else str(engine_dir),
                star=star,
                filter_bits=filter_bits,
                bloom_capacity=bloom_capacity,
            )
            for shard_id in range(shards)
        ]
        if pool == "affine":
            self.pool = AffineWorkerPool(specs)
            self.engines = [
                AffineEngineProxy(self.pool, shard_id)
                for shard_id in range(shards)
            ]
            # The workers replayed any disk journals before their
            # handshake and reported the IDs they hold.
            homed = [info["object_ids"] for info in self.pool.ready_info]
        else:
            self.engines = [spec.build() for spec in specs]
            homed = [eng.all_object_ids() for eng in self.engines]
        # Rebuild the object location map after a disk-engine replay.
        self._locations: dict[int, int] = {
            object_id: shard_id
            for shard_id, object_ids in enumerate(homed)
            for object_id in object_ids
        }

    @property
    def shards(self) -> int:
        """Number of shard engines."""
        return len(self.engines)

    def engine_for(self, keyword: str):
        """The engine owning one keyword's partition."""
        return self.engines[self.router.route(keyword)]

    # -- ingestion (called only after on-chain receipts confirm) ----------------

    def home_shard(self, keywords: tuple[str, ...]) -> int:
        """The shard an object's payload is homed on."""
        return self.router.route(keywords[0]) if keywords else 0

    def put_object(self, obj: DataObject) -> None:
        """Home one confirmed raw object on its shard."""
        shard = self.home_shard(obj.keywords)
        self.engines[shard].put_object(obj)
        self._locations[obj.object_id] = shard

    def has_object(self, object_id: int) -> bool:
        """Whether the object is stored on any shard."""
        return object_id in self._locations

    def get_object(self, object_id: int) -> DataObject:
        """Fetch one raw object from its home shard."""
        shard = self._locations.get(object_id)
        if shard is None:
            raise DatasetError(f"no object with ID {object_id}")
        return self.engines[shard].get_object(object_id)

    def get_objects(self, object_ids) -> dict[int, DataObject]:
        """Fetch many raw objects, batched per home shard.

        With an affine pool this is one request per involved shard
        instead of one per object; in-process engines just loop.
        """
        by_shard: dict[int, list[int]] = {}
        for object_id in object_ids:
            shard = self._locations.get(object_id)
            if shard is None:
                raise DatasetError(f"no object with ID {object_id}")
            by_shard.setdefault(shard, []).append(object_id)
        if self.pool is not None:
            self.flush_mutations()
            calls = [
                (shard, "get_objects", ids)
                for shard, ids in sorted(by_shard.items())
            ]
            # The workers answer with canonical encodings; they are
            # wrapped unparsed, which is all the response encoder needs.
            return {
                object_id: DataObject.deferred(wire)
                for (_, _, ids), wires in zip(calls, self.pool.dispatch(calls))
                for object_id, wire in zip(ids, wires)
            }
        return {
            object_id: self.engines[shard].get_object(object_id)
            for shard, ids in sorted(by_shard.items())
            for object_id in ids
        }

    def flush_mutations(self) -> int:
        """Ship any buffered affine delta records; returns the count.

        A no-op in stateless mode (in-process engines apply mutations
        immediately).  The facade calls this at the end of every ingest
        section, so queries issued outside the write lock never race a
        buffered delta.
        """
        if self.pool is None:
            return 0
        return sum(engine.flush() for engine in self.engines)

    def object_count(self) -> int:
        """Total objects across every shard."""
        return len(self._locations)

    def all_object_ids(self) -> list[int]:
        """Every stored object ID across shards, ascending."""
        return sorted(self._locations)

    def insert_entries(self, metadata: ObjectMetadata) -> None:
        """Mirror one confirmed object into its keywords' trees."""
        with obs.span("sp.index.insert", keywords=len(metadata.keywords)):
            for keyword in metadata.keywords:
                self.engine_for(keyword).insert_entry(
                    keyword, metadata.object_id, metadata.object_hash
                )

    def mirror_bulk(self, metadatas: list[ObjectMetadata]) -> None:
        """Mirror a confirmed batch, one posting-group list per shard.

        The Merkle-family bulk path: postings are partitioned by owning
        shard once and every shard's engine extends its trees through
        :meth:`~repro.sp.engine.IndexShardEngine.apply_bulk` — called
        here for in-process engines, run by the worker on its end of
        the pipe for affine ones.  Per keyword the insert sequence
        equals the per-object path's, so the resulting trees (and every
        later VO) are byte-identical.
        """
        pending: dict[int, dict[str, list]] = {}
        for metadata in metadatas:
            for keyword in metadata.keywords:
                shard = self.router.route(keyword)
                pending.setdefault(shard, {}).setdefault(keyword, []).append(
                    (metadata.object_id, metadata.object_hash)
                )
        groups = [
            (shard, sorted(pending[shard].items())) for shard in sorted(pending)
        ]
        if self.pool is None:
            for shard, shard_groups in groups:
                self.engines[shard].apply_bulk(shard_groups)
            return
        # The trees stay resident in the shard workers; only the posting
        # deltas travel, chunked so one huge batch becomes several
        # bounded pipe writes per shard — and as one dispatch across all
        # shards, so the workers ingest side by side.
        self.flush_mutations()
        calls = [
            (shard, "bulk", chunk)
            for shard, shard_groups in groups
            for chunk in _chunk_groups(shard_groups, INGEST_CHUNK_ENTRIES)
        ]
        with obs.span(
            "sp.shard.scatter", shards=len(groups), executor="affine"
        ):
            self.pool.dispatch(calls, ingest=True)

    def register_keyword(self, keyword: str, commitment: int) -> None:
        """Register a first-seen keyword on its owning shard."""
        self.engine_for(keyword).register_keyword(keyword, commitment)

    def apply_insertion(self, keyword: str, proof) -> None:
        """Apply one DO insertion proof on the owning shard."""
        self.engine_for(keyword).apply_insertion(keyword, proof)

    def bloom_add(self, keyword: str, object_id: int) -> None:
        """Mirror one ID into the owning shard's Bloom chain (CI*)."""
        self.engine_for(keyword).bloom_add(keyword, object_id)

    # -- query serving -----------------------------------------------------------

    def view(self, keyword: str):
        """The join engine's view of a tree, routed to the owning shard."""
        return self.engine_for(keyword).view(keyword)

    def tree(self, keyword: str):
        """The keyword's raw tree from its owning shard (or ``None``)."""
        return self.engine_for(keyword).tree(keyword)

    @property
    def trees(self):
        """Routed keyword -> tree mapping (SMI spine construction)."""
        return RoutedTrees(self)

    def _join(self, views: list) -> tuple[list[int], ConjunctiveVO]:
        """One conjunct's join over its keyword views."""
        with obs.span("query.sp.join", keywords=len(views)):
            return conjunctive_join(
                views, order=self.join_order, plan=self.join_plan
            )

    def _affine_conjuncts(
        self, query: KeywordQuery
    ) -> list[tuple[list[int], ConjunctiveVO]]:
        """Evaluate every conjunct through the resident workers.

        A conjunct whose keywords all route to one shard is joined
        *inside* that worker (only IDs and the VO come back); conjuncts
        spanning shards fall back to exporting the needed views — one
        batched request per shard — and joining here.  Outcomes are
        assembled in conjunct order, so the VO encoding is independent
        of shard layout and dispatch interleaving.
        """
        self.flush_mutations()
        conjuncts = [sorted(conj) for conj in query.conjunctions]
        local: dict[int, list[int]] = {}  # shard -> conjunct indices
        cross: list[int] = []
        for index, keywords in enumerate(conjuncts):
            owners = {self.router.route(keyword) for keyword in keywords}
            if len(owners) == 1:
                local.setdefault(owners.pop(), []).append(index)
            else:
                cross.append(index)
        calls: list[tuple[int, str, object]] = []
        call_meta: list[tuple[str, object]] = []
        for shard in sorted(local):
            indices = local[shard]
            calls.append(
                (
                    shard,
                    "join",
                    (
                        [conjuncts[i] for i in indices],
                        self.join_order,
                        self.join_plan,
                    ),
                )
            )
            call_meta.append(("join", indices))
        needed: dict[int, set[str]] = {}  # shard -> keywords to export
        for index in cross:
            for keyword in conjuncts[index]:
                needed.setdefault(self.router.route(keyword), set()).add(
                    keyword
                )
        for shard in sorted(needed):
            calls.append((shard, "views", sorted(needed[shard])))
            call_meta.append(("views", shard))
        with obs.span(
            "sp.shard.scatter",
            shards=len({shard for shard, _, _ in calls}),
            keywords=len(query.all_keywords()),
            executor="affine",
        ):
            replies = self.pool.dispatch(calls)
        outcomes: list = [None] * len(conjuncts)
        exported: dict[str, object] = {}
        with obs.span("sp.shard.gather", conjunctions=len(conjuncts)):
            for (kind, meta), reply in zip(call_meta, replies):
                if kind == "join":
                    for index, outcome in zip(meta, reply):
                        outcomes[index] = outcome
                else:
                    exported.update(reply)
            for index in cross:
                # A view remembers what was read from it: each conjunct
                # walks fresh ones over the exported trees.
                outcomes[index] = self._join(
                    [
                        dataclasses.replace(exported[keyword])
                        for keyword in conjuncts[index]
                    ]
                )
        return outcomes

    def process_query(self, query: KeywordQuery) -> QueryAnswer:
        """Evaluate the query and build ``VO_sp``.

        Conjuncts are independent joins: in-process engines are joined
        here, one after the other; with an affine pool each conjunct is
        joined inside the worker already holding its shard's views.
        Per-conjunct VOs are gathered in conjunct order, so the encoded
        VO never depends on shard layout or pool mode.
        """
        with obs.span(
            "query.sp",
            scheme=self.scheme_value,
            conjunctions=len(query.conjunctions),
        ) as sp_span:
            if self.pool is not None:
                outcomes = self._affine_conjuncts(query)
            else:
                outcomes = [
                    self._join([self.view(kw) for kw in sorted(conj)])
                    for conj in query.conjunctions
                ]
            result_ids = sorted({oid for ids, _ in outcomes for oid in ids})
            objects = self.get_objects(result_ids)
            sp_span.set(results=len(result_ids))
        return QueryAnswer(
            result_ids=result_ids,
            objects=objects,
            vo=self._finish_vo([vo for _, vo in outcomes]),
        )

    def _finish_vo(self, conjunct_vos: list[ConjunctiveVO]) -> QueryVO:
        """Assemble ``VO_sp`` and run the prove step over it.

        The common tail of both pool modes.  The joins only located
        what they read; here each touched tree is proven once for the
        whole query — one table per ``(tree, commitment)``, which is all
        the VO then holds.  It runs *after* call-order gathering, over
        the fully assembled VO, so its output is byte-identical for any
        shard count and pool mode.
        """
        vo = QueryVO(conjuncts=tuple(conjunct_vos))
        with obs.span("query.sp.prove"):
            return compress_query_vo(vo, self._prove)

    def _prove(self, requests: list[ProveRequest]) -> list:
        """Prove step for runs whose join ran in another process.

        In-process engines prove on the tree they hold; with an affine
        pool the requests go to the workers holding the blobs, one
        ``prove`` call per owning shard, so only finished proofs cross
        the pipe.  Replies come back in request order.
        """
        if self.pool is None:
            return [
                prove_keys(self.tree(request.keyword), request)
                for request in requests
            ]
        return self._scatter_by_owner(
            "prove", [(request.keyword, request) for request in requests]
        )

    def _scatter_by_owner(
        self,
        op: str,
        keyed: list[tuple[str, object]],
        payload: Callable[[list], object] = list,
        ingest: bool = False,
    ) -> list:
        """Send each ``(keyword, item)`` to the keyword's affine worker.

        One ``op`` call per owning shard, carrying ``payload(items)``;
        the op answers one reply per item, and the replies come back in
        the order of ``keyed``.
        """
        by_shard: dict[int, list[int]] = {}
        for index, (keyword, _) in enumerate(keyed):
            by_shard.setdefault(self.router.route(keyword), []).append(index)
        shard_ids = sorted(by_shard)
        replies = self.pool.dispatch(
            [
                (shard, op, payload([keyed[i][1] for i in by_shard[shard]]))
                for shard in shard_ids
            ],
            ingest=ingest,
        )
        answers: list = [None] * len(keyed)
        for shard, reply in zip(shard_ids, replies):
            for index, answer in zip(by_shard[shard], reply):
                answers[index] = answer
        return answers

    def compact(self) -> dict:
        """Checkpoint + truncate every durable shard journal.

        Each disk engine snapshots its state (flat-buffer tree blobs,
        one write) and swaps in a fresh journal; memory engines are
        skipped.  Works in both pool modes — affine engines forward the
        request to their resident worker, which compacts the journal it
        owns.  Totals are returned and mirrored to the ``sp.compact.*``
        observability counters.
        """
        totals = {
            "shards_compacted": 0,
            "reclaimed": 0,
            "journal_bytes_before": 0,
            "journal_bytes_after": 0,
            "checkpoint_bytes": 0,
        }
        with obs.span("sp.compact", shards=len(self.engines)):
            self.flush_mutations()
            for engine in self.engines:
                stats = engine.compact()
                if stats is None:
                    continue
                totals["shards_compacted"] += 1
                for key in (
                    "reclaimed",
                    "journal_bytes_before",
                    "journal_bytes_after",
                    "checkpoint_bytes",
                ):
                    totals[key] += stats[key]
        obs.inc("sp.compact.runs")
        obs.inc("sp.compact.shards", totals["shards_compacted"])
        obs.inc("sp.compact.reclaimed.bytes", totals["reclaimed"])
        obs.inc("sp.compact.checkpoint.bytes", totals["checkpoint_bytes"])
        return totals

    def close(self) -> None:
        """Release the engines or the affine workers (idempotent)."""
        if self.pool is not None:
            self.flush_mutations()
            self.pool.close()
            return
        for engine in self.engines:
            engine.close()
