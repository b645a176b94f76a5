"""Shard-affine persistent workers: resident engines, delta-only wire.

A worker that is handed its inputs per task — each keyword's current
MB-tree out, the extended tree back — pays IPC that grows with total
index size; such a pool was measured here and lost to plain iteration
(EXPERIMENTS.md, "Dispatch").  This module is the one way SP work leaves
the calling process: each shard's engine lives *resident* inside one
long-lived worker process, spawned once and keyed by shard id, and is
sent only what changed:

* **ingest** ships only the batch's posting deltas to the owning worker,
  in the exact journal-record format the engines already replay — the
  wire format *is* the recovery format, so a delta batch applies through
  the same code path as a crash replay and journals as one append;
* **queries** route each conjunct's join to the worker already holding
  the shard's views.  A Merkle-family join only *locates* its entries,
  so its reply is small; the ``prove`` op then builds each tree's
  multiproof inside the worker holding the blob, and only finished
  proofs cross the channel.  Replies are gathered in request order so
  VOs stay byte-identical to the serial build at any shard count;
* **SMI update proofs** are extracted the same way: the ``spines`` op
  runs Algorithm 1 next to the trees and returns the ``UpdVO`` spines;
* **telemetry** recorded inside a worker travels back as an
  :mod:`repro.obs.xproc` snapshot on the same reply and is adopted under
  the dispatching span, so ``repro obs critpath`` still sees one
  connected trace.

A guarded pickler enforces the contract mechanically: any attempt to
serialise resident shard state (trees, index mirrors, engines) into a
*request* raises :class:`~repro.errors.ParameterError` instead of
silently re-introducing the O(index) payloads this module exists to
remove.  Replies may carry trees — exporting a view is the point.

The pool is transport only; policy (partitioning, batching) stays in
:class:`~repro.core.sp_frontend.ShardedStorageProvider`, which runs the
same engines in its own process when no pool is configured.
"""

from __future__ import annotations

import io
import multiprocessing
import os
import pickle
import sys
import threading
import traceback
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from typing import Any, NoReturn

from repro import obs
from repro.core.objects import DataObject
from repro.errors import ParameterError, ReproError
from repro.obs import trace as obs_trace
from repro.obs import xproc
from repro.parallel import RemoteTraceback
from repro.sp.engine import IndexShardEngine, make_engine

#: Pool modes accepted by the SP front-end / system facade.
POOL_KINDS = ("stateless", "affine")

#: Span wrapping every request handled inside a resident worker.
RPC_SPAN = "sp.affine.rpc"

#: Journal-format records buffered per proxy before an automatic flush.
DEFAULT_CHUNK_RECORDS = 4096


def build_index_factory(index_spec: tuple) -> Callable[[], object]:
    """Build a per-shard index factory from its picklable spec.

    The facade describes the scheme's index mirror as a ``(kind,
    params)`` spec of plain data — a closure over live config would not
    cross a process boundary — and every engine, in-process or resident
    in a worker, gets its factory from here.
    """
    kind, params = index_spec
    if kind == "merkle":
        from repro.core.merkle_family import MerkleInvertedSP

        fanout = params["fanout"]
        return lambda: MerkleInvertedSP(fanout=fanout)
    if kind == "chameleon":
        from repro.core.chameleon_index import ChameleonSP

        pp, arity = params["pp"], params["arity"]
        return lambda: ChameleonSP(pp=pp, arity=arity)
    raise ParameterError(f"unknown index spec kind {kind!r}")


@dataclass(frozen=True)
class EngineSpec:
    """Everything a worker needs to build its resident shard engine.

    Plain data only (``index_spec`` instead of a factory closure), so a
    spec crosses the process boundary under any start method.
    """

    shard_id: int
    engine: str
    index_spec: tuple
    directory: str | None = None
    star: bool = False
    filter_bits: int = 0
    bloom_capacity: int = 0

    def build(self) -> IndexShardEngine:
        """Construct the engine (replaying its journal if on disk)."""
        return make_engine(
            self.engine,
            self.shard_id,
            build_index_factory(self.index_spec),
            directory=self.directory,
            star=self.star,
            filter_bits=self.filter_bits,
            bloom_capacity=self.bloom_capacity,
        )


# -- request guarding ------------------------------------------------------------


def _resident_state_types() -> tuple:
    """The types that constitute resident shard state (lazy import)."""
    from repro.core.chameleon import ChameleonTreeSP
    from repro.core.chameleon_index import ChameleonSP
    from repro.core.mbtree import MBTree
    from repro.core.merkle_family import MerkleInvertedSP
    from repro.core.nodestore import NodeStore, TreeView

    return (
        MBTree,
        ChameleonTreeSP,
        MerkleInvertedSP,
        ChameleonSP,
        IndexShardEngine,
        NodeStore,
        TreeView,
    )


def _reject_resident_state(obj: object) -> NoReturn:
    raise ParameterError(
        f"affine request must not carry resident shard state "
        f"({type(obj).__name__}); ship deltas, not trees"
    )


def _guard_table() -> dict:
    # Rebuilt on every dumps: subclasses of the resident-state types may
    # be imported or defined at any time, and a cached table would let
    # them pickle straight past the guard.  Walking a handful of small
    # class hierarchies is noise next to the pickling itself.
    table = {}
    stack = list(_resident_state_types())
    while stack:
        cls = stack.pop()
        if cls in table:
            continue
        table[cls] = _reject_resident_state
        stack.extend(cls.__subclasses__())
    return table


def guarded_dumps(obj: object) -> bytes:
    """Pickle a request payload, rejecting resident shard state.

    The dispatch-table guard costs nothing for allowed types (builtin
    containers and scalars never consult it) and fails fast the moment a
    tree, index mirror or engine would cross the channel toward a
    worker — the structural invariant of the affine path.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = _guard_table()
    pickler.dump(obj)
    return buffer.getvalue()


# -- worker side -----------------------------------------------------------------


def _handle(engine: IndexShardEngine, op: str, payload: Any) -> object:
    """Execute one request against the resident engine."""
    if op == "apply":
        return engine.apply_records(payload)
    if op == "bulk":
        return engine.apply_bulk(payload)
    if op == "join":
        from repro.core.query.join import conjunctive_join

        conjuncts, order, plan = payload
        outcomes = []
        for keywords in conjuncts:
            views = [engine.view(keyword) for keyword in keywords]
            with obs.span("query.sp.join", keywords=len(views)):
                outcomes.append(
                    conjunctive_join(views, order=order, plan=plan)
                )
        return outcomes
    if op == "prove":
        from repro.core.multiproof import prove_keys

        return [
            prove_keys(engine.tree(request.keyword), request)
            for request in payload
        ]
    if op == "spines":
        from repro.core.suppressed import gen_spines

        object_id, keywords = payload
        return gen_spines(engine.index.trees, object_id, keywords)
    if op == "compact":
        return engine.compact()
    if op == "views":
        return {keyword: engine.view(keyword) for keyword in payload}
    if op == "tree":
        return engine.tree(payload)
    if op == "get_objects":
        # Canonical encodings, built once per stored object: the parent
        # forwards them into the response without parsing.
        return [engine.get_object(object_id).encoded() for object_id in payload]
    if op == "object_ids":
        return engine.all_object_ids()
    if op == "ping":
        return payload
    if op == "close":
        return True
    raise ParameterError(f"unknown affine op {op!r}")


def _worker_main(conn: Connection, spec: EngineSpec) -> None:
    """Resident worker loop: build the engine once, serve until close.

    Runs in the child process.  The fork start method copies the
    parent's installed telemetry collector, which must not absorb the
    worker's spans — uninstall first; traced requests run under a fresh
    local collector whose snapshot rides back on the reply.
    """
    obs_trace.uninstall()
    try:
        engine = spec.build()
    except BaseException as exc:  # noqa: B036 - reported to the parent
        conn.send_bytes(
            pickle.dumps((False, (exc, traceback.format_exc()), None))
        )
        conn.close()
        return
    conn.send_bytes(
        pickle.dumps(
            (
                True,
                {"pid": os.getpid(), "object_ids": engine.all_object_ids()},
                None,
            )
        )
    )
    while True:
        try:
            raw = conn.recv_bytes()
        except (EOFError, OSError):
            break  # parent died or closed: release the journal and exit
        op, payload, traced = pickle.loads(raw)
        snapshot = None
        if traced:
            collector = obs_trace.Collector()
            with obs_trace.collect(collector):
                try:
                    with collector.span(
                        RPC_SPAN,
                        op=op,
                        shard=spec.shard_id,
                        worker=os.getpid(),
                    ):
                        result = _handle(engine, op, payload)
                    ok = True
                except BaseException as exc:  # noqa: B036 - re-raised upstream
                    ok, result = False, (exc, traceback.format_exc())
            snapshot = xproc.capture(collector)
        else:
            try:
                ok, result = True, _handle(engine, op, payload)
            except BaseException as exc:  # noqa: B036 - re-raised upstream
                ok, result = False, (exc, traceback.format_exc())
        try:
            conn.send_bytes(pickle.dumps((ok, result, snapshot)))
        except (BrokenPipeError, OSError):
            break
        if op == "close" and ok:
            break
    engine.close()
    conn.close()


# -- parent side -----------------------------------------------------------------


def _mark_pipe_lock(lock: threading.Lock) -> None:
    """Bless a pipe-serialising lock with the runtime sanitizer.

    Resolved through ``sys.modules`` so the analysis package is never
    imported here: it is already loaded iff ``REPRO_SANITIZE=1``.
    """
    sanitize = sys.modules.get("repro.analysis.sanitize")
    if sanitize is not None:
        sanitize.mark_pipe_lock(lock)


@dataclass
class _Worker:
    process: multiprocessing.Process
    conn: object
    lock: threading.Lock = field(default_factory=threading.Lock)


class AffineWorkerPool:
    """One long-lived process per shard, request/reply over pipes.

    Workers are spawned once at construction (handshake carries each
    shard's replayed object IDs, so disk recovery happens *in* the
    worker); every later interaction is :meth:`dispatch`.  Byte counters
    (``request_bytes`` / ``ingest_bytes`` / ``reply_bytes``) accumulate
    on the pool itself so benchmarks can read scatter payloads without a
    telemetry collector installed.
    """

    kind = "affine"

    def __init__(self, specs: list[EngineSpec]) -> None:
        if not specs:
            raise ParameterError("affine pool needs at least one shard spec")
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            ctx = multiprocessing.get_context()
        self._workers: list[_Worker] = []
        self._closed = False
        self._broken = False
        self._counter_lock = threading.Lock()
        self.request_bytes = 0
        self.ingest_bytes = 0
        self.reply_bytes = 0
        self.ready_info: list[dict] = []
        for spec in specs:
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_worker_main,
                args=(child_conn, spec),
                daemon=True,
                name=f"affine-shard-{spec.shard_id}",
            )
            process.start()
            child_conn.close()
            worker = _Worker(process=process, conn=parent_conn)
            _mark_pipe_lock(worker.lock)
            self._workers.append(worker)
        # Collect handshakes after every spawn so workers boot (and
        # replay their journals) concurrently.
        for spec, worker in zip(specs, self._workers):
            ok, info, _ = pickle.loads(worker.conn.recv_bytes())
            if not ok:
                exc, formatted = info
                self.close()
                raise exc from RemoteTraceback(formatted)
            self.ready_info.append(info)

    @property
    def shards(self) -> int:
        """Number of resident workers (= shards)."""
        return len(self._workers)

    def dispatch(
        self, calls: list[tuple[int, str, object]], ingest: bool = False
    ) -> list:
        """Run ``(shard, op, payload)`` calls; results in call order.

        Per-worker locks are taken in ascending shard order (two
        concurrent dispatches can never deadlock).  Requests are sent
        eagerly, draining any already-ready replies between sends; each
        pipe is FIFO, so the j-th reply from a shard pairs with the j-th
        call to that shard and results land in call order regardless of
        read interleaving.  The drain-before-send also means a worker
        mid-way through a large reply is normally read before we block
        writing to it — but a large request racing a large (>pipe
        buffer) earlier reply on the *same* shard can still wedge, so
        call sites keep one side of any multi-call shard conversation
        small (bulk replies are counts; view/join requests are keyword
        lists).

        Exactly one reply is consumed per successfully sent request,
        even when a send fails partway or a worker reports an error —
        an unread reply would desynchronize that shard's pipe and feed
        a stale result to the *next* dispatch.  The first error (a
        worker-side exception, with the worker's traceback chained, or
        the send-phase failure) is re-raised only after the drain;
        telemetry snapshots are adopted first, so failing spans still
        reach the trace.  If a pipe itself dies mid-protocol the pool
        is marked broken and every later dispatch fails fast.
        """
        if self._closed:
            raise ReproError("affine pool is closed")
        if self._broken:
            raise ReproError(
                "affine pool is broken after a prior pipe failure; "
                "build a new pool"
            )
        if not calls:
            return []
        collector = obs_trace.current()
        traced = collector is not None
        parent_id = None
        if traced:
            stack = collector._stack()
            parent_id = stack[-1].span_id if stack else None
        shard_order = sorted({shard for shard, _, _ in calls})
        held = []
        results: list = [None] * len(calls)
        # Per-shard FIFO of result slots awaiting a reply.
        pending: dict[int, deque] = {shard: deque() for shard in shard_order}
        failure = None  # first worker-side (exc, formatted_traceback)
        sent = 0
        received = 0

        def read_reply(shard: int) -> None:
            nonlocal received, failure
            try:
                raw = self._workers[shard].conn.recv_bytes()
            except BaseException:
                self._broken = True
                raise
            received += len(raw)
            index = pending[shard].popleft()
            ok, result, snapshot = pickle.loads(raw)
            if snapshot is not None and traced:
                xproc.adopt(
                    collector,
                    snapshot,
                    parent_id=parent_id,
                    extra_attributes={"shard": shard},
                )
            if ok:
                results[index] = result
            elif failure is None:
                failure = result

        try:
            for shard in shard_order:
                self._workers[shard].lock.acquire()
                held.append(shard)
            send_failure = None
            try:
                for index, (shard, op, payload) in enumerate(calls):
                    for ready in shard_order:
                        while pending[ready] and self._workers[
                            ready
                        ].conn.poll(0):
                            read_reply(ready)
                    # guarded_dumps may reject the payload: nothing has
                    # hit this call's pipe yet, so the pool stays usable
                    # once already-sent replies are drained below.
                    buffer = guarded_dumps((op, payload, traced))
                    try:
                        self._workers[shard].conn.send_bytes(buffer)
                    except BaseException:
                        # A failed send may have written a partial
                        # frame: this shard's stream is unrecoverable.
                        self._broken = True
                        raise
                    sent += len(buffer)
                    pending[shard].append(index)
            except BaseException as exc:  # noqa: B036 - re-raised after drain
                send_failure = exc
            try:
                for shard in shard_order:
                    while pending[shard]:
                        read_reply(shard)
            except BaseException as exc:  # noqa: B036 - undrainable pipe
                self._broken = True
                if send_failure is None and failure is None:
                    raise
            if failure is not None:
                exc, formatted = failure
                raise exc from RemoteTraceback(formatted)
            if send_failure is not None:
                raise send_failure
        finally:
            for shard in reversed(held):
                self._workers[shard].lock.release()
        with self._counter_lock:
            self.request_bytes += sent
            self.reply_bytes += received
            if ingest:
                self.ingest_bytes += sent
        obs.inc("sp.affine.rpcs", len(calls))
        obs.inc("sp.affine.request.bytes", sent)
        obs.inc("sp.affine.reply.bytes", received)
        if ingest:
            obs.inc("sp.affine.scatter.bytes", sent)
        return results

    def request(self, shard: int, op: str, payload: object = None) -> Any:
        """One call to one worker; returns its result."""
        return self.dispatch([(shard, op, payload)])[0]

    def reset_counters(self) -> None:
        """Zero the byte counters (benchmark phase boundaries)."""
        with self._counter_lock:
            self.request_bytes = 0
            self.ingest_bytes = 0
            self.reply_bytes = 0

    def close(self, timeout_s: float = 5.0) -> None:
        """Shut every worker down (idempotent): close op, join, reap."""
        if self._closed:
            return
        self._closed = True
        if not self._broken:
            for worker in self._workers:
                with worker.lock:
                    if not worker.process.is_alive():
                        continue
                    try:
                        worker.conn.send_bytes(
                            guarded_dumps(("close", None, False))
                        )
                        # Bounded wait for the close ack: a worker wedged
                        # in a long _handle call must not hang close() —
                        # fall through to join/terminate below.
                        if worker.conn.poll(timeout_s):
                            worker.conn.recv_bytes()
                    except (BrokenPipeError, EOFError, OSError):
                        pass
        for worker in self._workers:
            worker.process.join(timeout_s)
            if worker.process.is_alive():  # pragma: no cover - wedged worker
                worker.process.terminate()
                worker.process.join(timeout_s)
            worker.conn.close()


class AffineEngineProxy:
    """The front-end's engine-shaped handle onto one resident worker.

    Mutators buffer journal-format delta records and flush them in
    chunks (one ``apply`` request per chunk); every read flushes first,
    so a query issued right after an ingest sees the complete state —
    the same read-your-writes guarantee the in-process engines give.
    The system facade's readers-writer lock already serialises ingest
    against queries, so the buffer needs no locking of its own.
    """

    def __init__(
        self,
        pool: AffineWorkerPool,
        shard_id: int,
        *,
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
    ) -> None:
        self.pool = pool
        self.shard_id = shard_id
        self.kind = "affine"
        self.chunk_records = chunk_records
        self._pending: list[dict] = []

    # -- resident state must not be reachable here --------------------------------

    @property
    def store(self) -> NoReturn:
        raise ReproError(
            "affine mode keeps the object store resident in the shard "
            "worker; fetch through the storage provider instead"
        )

    @property
    def index(self) -> NoReturn:
        raise ReproError(
            "affine mode keeps the index mirror resident in the shard "
            "worker; query through the storage provider instead"
        )

    # -- buffered mutators ---------------------------------------------------------

    def _queue(self, record: dict) -> None:
        self._pending.append(record)
        if len(self._pending) >= self.chunk_records:
            self.flush()

    def flush(self) -> int:
        """Ship buffered delta records to the worker; returns count."""
        if not self._pending:
            return 0
        records, self._pending = self._pending, []
        self.pool.dispatch(
            [(self.shard_id, "apply", records)], ingest=True
        )
        return len(records)

    def insert_entry(
        self, keyword: str, object_id: int, object_hash: bytes
    ) -> None:
        self._queue(
            {
                "op": "entry",
                "kw": keyword,
                "id": object_id,
                "hash": object_hash.hex(),
            }
        )

    def register_keyword(self, keyword: str, commitment: int) -> None:
        self._queue(
            {"op": "register", "kw": keyword, "c": format(commitment, "x")}
        )

    def apply_insertion(self, keyword: str, proof: object) -> None:
        from repro.sp.engine import _proof_to_record

        self._queue(
            {"op": "apply", "kw": keyword, "proof": _proof_to_record(proof)}
        )

    def bloom_add(self, keyword: str, object_id: int) -> None:
        self._queue({"op": "bloom", "kw": keyword, "id": object_id})

    def put_object(self, obj: DataObject) -> None:
        from repro.sp.engine import _object_to_record

        self._queue({"op": "object", **_object_to_record(obj)})

    # -- reads (flush first: read-your-writes) ------------------------------------

    def view(self, keyword: str) -> Any:
        self.flush()
        return self.pool.request(self.shard_id, "views", [keyword])[keyword]

    def tree(self, keyword: str) -> Any:
        self.flush()
        return self.pool.request(self.shard_id, "tree", keyword)

    def get_object(self, object_id: int) -> DataObject:
        self.flush()
        return DataObject.deferred(
            self.pool.request(self.shard_id, "get_objects", [object_id])[0]
        )

    def has_object(self, object_id: int) -> bool:
        self.flush()
        return object_id in self.pool.request(self.shard_id, "object_ids")

    def object_count(self) -> int:
        self.flush()
        return len(self.pool.request(self.shard_id, "object_ids"))

    def all_object_ids(self) -> list[int]:
        self.flush()
        return self.pool.request(self.shard_id, "object_ids")

    def compact(self) -> dict | None:
        """Checkpoint + truncate the resident engine's journal."""
        self.flush()
        return self.pool.request(self.shard_id, "compact")

    def close(self) -> None:
        """Flush any tail records; worker shutdown is the pool's job."""
        if not self.pool._closed:
            self.flush()
