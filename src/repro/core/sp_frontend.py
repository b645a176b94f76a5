"""SP front-end: scatter-gather query serving over keyword shards.

The :class:`ShardedStorageProvider` is the storage provider the rest of
the system talks to.  It drives ``N`` :class:`~repro.sp.engine.IndexShardEngine`
instances — each holding the ADS mirrors and object payloads of one
keyword partition — and routes every operation through a deterministic
seeded :class:`~repro.sp.engine.ShardRouter`:

* **ingestion** — confirmed index mutations are buffered, as shard ops
  holding the values themselves, for the owning shard of their keyword;
  raw objects are homed on the shard of their first keyword and located
  through an ID -> shard map;
* **query serving** — each conjunct is joined over the views of its
  owning shards and the per-conjunct VOs are *gathered* in conjunct
  order.

Every shard operation is one ``(shard, op, payload)`` call answered by
the engine's op table (:meth:`~repro.sp.engine.IndexShardEngine.handle`),
and every call goes through ``self.pool.dispatch``.  The pool is the
transport: :class:`~repro.sp.engine.InProcessShards` calls the table
inline (``pool="stateless"``), :class:`~repro.sp.affine.AffineWorkerPool`
calls it in the resident worker that owns the shard (``pool="affine"``).
Both get the same buffering, ordering and read-your-writes rules: a
shard's buffered ops ship before any read and at the end of every
ingest section.  Nothing here knows the journal's bytes: only a disk
engine encodes an op as a journal record, and only its replay decodes one.

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
from typing import Callable, Iterable, Sequence

from repro import obs
from repro.core.chameleon import InsertionProof
from repro.core.multiproof import ProveRequest, compress_query_vo
from repro.core.objects import DataObject, ObjectMetadata
from repro.core.query.join import conjunctive_join
from repro.core.query.parser import KeywordQuery
from repro.core.query.vo import ConjunctiveVO, QueryAnswer, QueryVO
from repro.errors import DatasetError, ParameterError
from repro.sp.affine import AffineWorkerPool
from repro.sp.engine import (
    POOL_KINDS,
    EngineSpec,
    IndexShardEngine,
    InProcessShards,
    ShardOp,
    ShardRouter,
)

#: Ops buffered per shard before they ship on their own: bounds any
#: single ``apply`` call, so a huge batch streams as several per shard.
CHUNK_RECORDS = 4096


class ShardedStorageProvider:
    """The SP: N shard engines behind deterministic keyword routing.

    ``index_spec`` is the plain-data ``(kind, params)`` description of
    the active scheme's per-shard index mirror; every engine — here or
    in a worker — builds its mirror from it.  ``pool`` says where the
    engines live: ``"stateless"`` in this process, ``"affine"`` in one
    resident worker process per shard.  ``shards=1`` degenerates to the
    pre-sharding monolith: one engine owns everything.
    """

    def __init__(
        self,
        *,
        index_spec: tuple,
        scheme_value: str,
        shards: int = 1,
        engine: str = "memory",
        engine_dir: str | Path | None = None,
        seed: int | None = None,
        pool: str = "stateless",
    ) -> None:
        self.router = ShardRouter(shards, seed=seed)
        self.scheme_value = scheme_value
        if pool not in POOL_KINDS:
            raise ParameterError(
                f"unknown pool {pool!r}; expected one of: "
                + ", ".join(POOL_KINDS)
            )
        specs = [
            EngineSpec(
                shard_id=shard_id,
                engine=engine,
                index_spec=index_spec,
                directory=None if engine_dir is None else str(engine_dir),
            )
            for shard_id in range(shards)
        ]
        self.pool: AffineWorkerPool | InProcessShards
        if pool == "affine":
            self.pool = AffineWorkerPool(specs)
        else:
            self.pool = InProcessShards(specs)
        # Shard ops per shard, not yet applied.
        self._pending: list[list[ShardOp]] = [[] for _ in range(shards)]
        # The engines replayed any disk journals on construction and
        # reported the IDs they hold: rebuild the object location map.
        self._locations: dict[int, int] = {
            object_id: shard_id
            for shard_id, info in enumerate(self.pool.ready_info)
            for object_id in info["object_ids"]
        }

    @property
    def shards(self) -> int:
        """Number of shard engines."""
        return self.router.shards

    @property
    def engines(self) -> list[IndexShardEngine]:
        """The shard engines, when they live in this process."""
        return self.pool.engines

    # -- ingestion (called only after on-chain receipts confirm) ----------------

    def _queue(self, shard: int, op: ShardOp) -> None:
        pending = self._pending[shard]
        pending.append(op)
        if len(pending) >= CHUNK_RECORDS:
            self.pool.dispatch(self._take([shard]), ingest=True)

    def _take(self, shards: Iterable[int]) -> list[tuple[int, str, object]]:
        """One ``apply`` call per listed shard with buffered ops.

        A buffer is emptied before its call goes out: a failed call is
        not requeued, since replaying it could double-apply a prefix
        the shard already journaled.
        """
        calls = [
            (shard, "apply", self._pending[shard])
            for shard in shards
            if self._pending[shard]
        ]
        for shard, _, _ in calls:
            self._pending[shard] = []
        return calls

    def flush_mutations(self) -> int:
        """Ship every shard's buffered ops; returns the count.

        Runs at the end of every ingest section (the facade calls it),
        so queries issued outside the write lock never race a buffered
        op.
        """
        calls = self._take(range(self.shards))
        if calls:
            self.pool.dispatch(calls, ingest=True)
        return sum(len(ops) for _, _, ops in calls)

    def _read(
        self, calls: list[tuple[int, str, object]], ingest: bool = False
    ) -> list:
        """Dispatch read calls behind every shard's buffered ops, in one
        message per shard: both pools run a shard's calls in order."""
        ops = self._take(range(self.shards))
        replies = self.pool.dispatch(ops + calls, ingest=ingest or bool(ops))
        return replies[len(ops):]

    def home_shard(self, keywords: tuple[str, ...]) -> int:
        """The shard an object's payload is homed on."""
        return self.router.route(keywords[0]) if keywords else 0

    def put_object(self, obj: DataObject) -> None:
        """Home one confirmed raw object on its shard."""
        shard = self.home_shard(obj.keywords)
        self._queue(shard, ("object", obj))
        self._locations[obj.object_id] = shard

    def insert_entries(self, metadata: ObjectMetadata) -> None:
        """Mirror one confirmed object into its keywords' trees."""
        for keyword in metadata.keywords:
            self._queue(
                self.router.route(keyword),
                ("entry", keyword, metadata.object_id, metadata.object_hash),
            )

    def register_keyword(self, keyword: str, commitment: int) -> None:
        """Register a first-seen keyword on its owning shard."""
        self._queue(self.router.route(keyword), ("register", keyword, commitment))

    def apply_insertion(self, keyword: str, proof: InsertionProof) -> None:
        """Apply one DO insertion proof on the owning shard."""
        self._queue(self.router.route(keyword), ("apply", keyword, proof))

    def spines(self, object_id: int, keywords: tuple[str, ...]) -> list:
        """Pre-insertion SMI ``UpdVO`` spines, one per keyword, in order.

        Extracted next to the trees — one ``spines`` call per involved
        shard, a few digests per keyword back — never by pulling trees.
        """
        return self._scatter_by_owner(
            "spines",
            [(keyword, keyword) for keyword in keywords],
            lambda owned: (object_id, owned),
            ingest=True,
        )

    # -- objects -----------------------------------------------------------------

    def has_object(self, object_id: int) -> bool:
        """Whether the object is stored on any shard."""
        return object_id in self._locations

    def get_object(self, object_id: int) -> DataObject:
        """Fetch one raw object from its home shard."""
        return self.get_objects([object_id])[object_id]

    def get_objects(self, object_ids) -> dict[int, DataObject]:
        """Fetch many raw objects, one ``get_objects`` call per home shard."""
        by_shard: dict[int, list[int]] = {}
        for object_id in object_ids:
            shard = self._locations.get(object_id)
            if shard is None:
                raise DatasetError(f"no object with ID {object_id}")
            by_shard.setdefault(shard, []).append(object_id)
        calls = [
            (shard, "get_objects", ids) for shard, ids in sorted(by_shard.items())
        ]
        return {
            object_id: obj
            for (_, _, ids), objects in zip(calls, self._read(calls))
            for object_id, obj in zip(ids, objects)
        }

    def all_object_ids(self) -> list[int]:
        """Every stored object ID across shards, ascending."""
        return sorted(self._locations)

    # -- query serving -----------------------------------------------------------

    def view(self, keyword: str):
        """The join engine's view of a tree, from its owning shard."""
        shard = self.router.route(keyword)
        return self._read([(shard, "views", [keyword])])[0][keyword]

    def tree(self, keyword: str):
        """The keyword's raw tree from its owning shard (or ``None``)."""
        return self._read([(self.router.route(keyword), "tree", keyword)])[0]

    def _join_conjuncts(
        self, query: KeywordQuery
    ) -> list[tuple[list[int], ConjunctiveVO]]:
        """Evaluate every conjunct where its shards are.

        A conjunct whose keywords all route to one shard is joined
        *inside* that shard (only IDs and the VO come back); conjuncts
        spanning shards export the needed views — one batched request
        per shard — and are joined here.  Outcomes are assembled in
        conjunct order, so the VO encoding is independent of shard
        layout, pool and dispatch interleaving.
        """
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
            calls.append((shard, "join", [conjuncts[i] for i in indices]))
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
        outcomes: list = [None] * len(conjuncts)
        exported: dict[str, object] = {}
        for (kind, meta), reply in zip(call_meta, self._read(calls)):
            if kind == "join":
                for index, outcome in zip(meta, reply):
                    outcomes[index] = outcome
            else:
                exported.update(reply)
        for index in cross:
            # A view remembers what was read from it: each conjunct
            # walks fresh ones over the exported trees.
            views = [
                dataclasses.replace(exported[keyword])
                for keyword in conjuncts[index]
            ]
            with obs.span("query.sp.join", keywords=len(views)):
                outcomes[index] = conjunctive_join(views)
        return outcomes

    def process_query(
        self,
        query: KeywordQuery,
        held: Sequence[tuple[int, bytes]] = (),
        nodes: Sequence[tuple[str, int, bytes]] = (),
    ) -> QueryAnswer:
        """Evaluate the query and build ``VO_sp``.

        Per-conjunct VOs are gathered in conjunct order, so the encoded
        VO never depends on shard layout or pool mode.  ``held`` and
        ``nodes`` are what the asking client holds (see
        :func:`~repro.core.multiproof.compress_query_vo`).
        """
        with obs.span(
            "query.sp",
            scheme=self.scheme_value,
            conjunctions=len(query.conjunctions),
        ) as sp_span:
            outcomes = self._join_conjuncts(query)
            result_ids = sorted({oid for ids, _ in outcomes for oid in ids})
            objects = self.get_objects(result_ids)
            sp_span.set(results=len(result_ids))
        return QueryAnswer(
            result_ids=result_ids,
            objects=objects,
            vo=self._finish_vo([vo for _, vo in outcomes], held, nodes),
        )

    def _finish_vo(
        self,
        conjunct_vos: list[ConjunctiveVO],
        held: Sequence[tuple[int, bytes]] = (),
        nodes: Sequence[tuple[str, int, bytes]] = (),
    ) -> QueryVO:
        """Assemble ``VO_sp`` and run the prove step over it.

        The joins only located what they read; here each touched tree
        is proven once for the whole query — one table per ``(tree,
        commitment)``, which is all the VO then holds.  It runs *after*
        call-order gathering, over the fully assembled VO, so its output
        is byte-identical for any shard count and pool mode.
        """
        vo = QueryVO(conjuncts=tuple(conjunct_vos))
        with obs.span("query.sp.prove"):
            return compress_query_vo(vo, self._prove, held, nodes)

    def _prove(self, requests: list[ProveRequest]) -> list:
        """Prove step for runs whose join ran in another process.

        The requests go to the shards holding the trees, one ``prove``
        call per owning shard, so only finished proofs cross a pipe.
        Runs joined in this process keep their live trees and never get
        here.  Replies come back in request order.
        """
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
        """Send each ``(keyword, item)`` to the keyword's shard.

        One ``op`` call per owning shard, carrying ``payload(items)``;
        the op answers one reply per item, and the replies come back in
        the order of ``keyed``.
        """
        by_shard: dict[int, list[int]] = {}
        for index, (keyword, _) in enumerate(keyed):
            by_shard.setdefault(self.router.route(keyword), []).append(index)
        shard_ids = sorted(by_shard)
        replies = self._read(
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
        one write) and swaps in a fresh journal; memory engines answer
        ``None`` and are skipped.  Totals are returned and mirrored to
        the ``sp.compact.*`` observability counters.
        """
        totals = {
            "shards_compacted": 0,
            "reclaimed": 0,
            "journal_bytes_before": 0,
            "journal_bytes_after": 0,
            "checkpoint_bytes": 0,
        }
        with obs.span("sp.compact", shards=self.shards):
            for stats in self._read(
                [(shard, "compact", None) for shard in range(self.shards)]
            ):
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
        """Ship any buffered ops, then release the shards (idempotent)."""
        try:
            self.flush_mutations()
        finally:
            self.pool.close()
