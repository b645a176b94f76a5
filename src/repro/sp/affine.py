"""Shard-affine persistent workers: resident engines, delta-only wire.

A worker that is handed its inputs per task — each keyword's current
MB-tree out, the extended tree back — pays IPC that grows with total
index size; such a pool was measured here and lost to plain iteration
(EXPERIMENTS.md, "Dispatch").  This module is the transport that runs
shard calls in other processes: each shard's engine lives *resident*
inside one long-lived worker process, spawned once and keyed by shard
id, which answers ``(op, payload)`` requests through the engine's op
table (:meth:`~repro.sp.engine.IndexShardEngine.handle`) — the same
table the in-process transport calls inline — and is sent only what
changed:

* **ingest** ships only the batch's delta ops to the owning worker,
  pickled as the values they are (an object as its canonical bytes,
  arriving deferred): nothing is decoded on the way in, and a delta
  batch applies through the same dispatch a disk engine's crash replay
  feeds after decoding its journal, journaling as one append;
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
  the dispatching span, so a traced run is still one connected trace.

A guarded pickler enforces the contract mechanically: any attempt to
serialise resident shard state (trees, index mirrors, engines) into a
*request* raises :class:`~repro.errors.ParameterError` instead of
silently re-introducing the O(index) payloads this module exists to
remove.  Replies may carry trees — exporting a view is the point.

The pool is transport only; policy (partitioning, buffering, batching)
stays in :class:`~repro.core.sp_frontend.ShardedStorageProvider`, which
drives this pool and :class:`~repro.sp.engine.InProcessShards` through
the same ``dispatch``.
"""

from __future__ import annotations

import io
import multiprocessing
import os
import pickle
import sys
import threading
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from typing import Any, NoReturn

from repro import obs
from repro.errors import ParameterError, ReproError, WorkerBootError
from repro.obs import trace as obs_trace
from repro.obs import xproc
from repro.parallel import RemoteTraceback
from repro.sp.engine import EngineSpec, IndexShardEngine

#: Span wrapping every call handled inside a resident worker.
RPC_SPAN = "sp.affine.rpc"


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


def _worker_main(
    conn: Connection, spec: EngineSpec, parent_ends: list[Connection]
) -> None:
    """Resident worker loop: build the engine once, serve until close.

    Runs in the child process.  The fork start method copies the
    parent's installed telemetry collector, which must not absorb the
    worker's spans — uninstall first; a traced message runs under a
    fresh local collector whose snapshot rides back on the reply.  It
    also copies the parent's ends of this pool's pipes, ``parent_ends``:
    they are closed first, so that the parent closing its end is an
    end-of-file here.
    """
    for end in parent_ends:
        end.close()
    obs_trace.uninstall()
    try:
        engine = spec.build()
    except BaseException as exc:  # noqa: B036 - reported to the parent
        conn.send_bytes(pickle.dumps((False, (exc, traceback.format_exc()))))
        conn.close()
        return
    pid = os.getpid()
    conn.send_bytes(
        pickle.dumps((True, {"pid": pid, "object_ids": engine.all_object_ids()}))
    )
    while True:
        try:
            raw = conn.recv_bytes()
        except (EOFError, OSError):
            break  # parent died or closed: release the journal and exit
        calls, traced = pickle.loads(raw)
        collector = obs_trace.install() if traced else None
        outcomes = []
        for op, payload in calls:
            try:
                with obs_trace.span(
                    RPC_SPAN, op=op, shard=spec.shard_id, worker=pid
                ):
                    outcomes.append((True, engine.handle(op, payload)))
            except BaseException as exc:  # noqa: B036 - re-raised upstream
                outcomes.append((False, (exc, traceback.format_exc())))
        snapshot = None
        if collector is not None:
            obs_trace.uninstall()
            snapshot = xproc.capture(collector)
        try:
            conn.send_bytes(pickle.dumps((outcomes, snapshot)))
        except (BrokenPipeError, OSError):
            break
        if any(op == "close" for op, _ in calls):
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
    """One long-lived process per shard, one message and one reply each.

    Workers are spawned once at construction (handshake carries each
    shard's replayed object IDs, so disk recovery happens *in* the
    worker); every later interaction is :meth:`dispatch`.  Traffic is
    counted in the ``sp.affine.*`` telemetry counters.
    """

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
        self.ready_info: list[dict] = []
        for spec in specs:
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_worker_main,
                args=(
                    child_conn,
                    spec,
                    [worker.conn for worker in self._workers] + [parent_conn],
                ),
                daemon=True,
                name=f"affine-shard-{spec.shard_id}",
            )
            process.start()
            child_conn.close()
            worker = _Worker(process=process, conn=parent_conn)
            _mark_pipe_lock(worker.lock)
            self._workers.append(worker)
        # Collect handshakes after every spawn so workers boot (and
        # replay their journals) concurrently.  Any failure closes the
        # whole pool: no worker outlives a pool that never started.
        try:
            for worker in self._workers:
                try:
                    ok, info = pickle.loads(worker.conn.recv_bytes())
                except (EOFError, OSError) as exc:
                    raise WorkerBootError(
                        f"{worker.process.name} exited before its handshake"
                    ) from exc
                if not ok:
                    exc, formatted = info
                    raise exc from RemoteTraceback(formatted)
                self.ready_info.append(info)
        except BaseException:
            self.close()
            raise

    @property
    def shards(self) -> int:
        """Number of resident workers (= shards)."""
        return len(self._workers)

    @property
    def engines(self) -> NoReturn:
        raise ReproError(
            "affine mode keeps the shard engines resident in their "
            "workers; go through the storage provider instead"
        )

    def dispatch(
        self, calls: list[tuple[int, str, object]], ingest: bool = False
    ) -> list:
        """Run ``(shard, op, payload)`` calls; results in call order.

        Each shard is sent one message — its ``(op, payload)`` calls, in
        call order — and answers with one reply holding one outcome per
        call.  Every message is pickled through :func:`guarded_dumps`
        before any byte is sent, so a rejected payload reaches no pipe.
        Under the per-worker locks, taken in ascending shard order (two
        concurrent dispatches can never deadlock), every worker is sent
        its message and then every reply is read.  A worker reads its
        whole request before it writes its reply, and no reply is left
        unread when the locks are released, so a dispatch cannot wedge
        and the next one reads only its own replies.

        A worker runs every call of its message even after one fails.
        The first failure in call order (a worker-side exception, with
        the worker's traceback chained) is raised once every reply is
        read and its telemetry snapshot adopted, so failing spans still
        reach the trace.  If a pipe itself dies mid-exchange the pool is
        marked broken and every later dispatch fails fast.
        """
        by_shard: dict[int, list[int]] = {}
        for index, (shard, _, _) in enumerate(calls):
            by_shard.setdefault(shard, []).append(index)
        shard_order = sorted(by_shard)
        collector = obs_trace.current()
        parent_id = None
        if collector is not None:
            stack = collector._stack()
            parent_id = stack[-1].span_id if stack else None
        requests = [
            guarded_dumps(
                ([calls[i][1:] for i in by_shard[shard]], collector is not None)
            )
            for shard in shard_order
        ]
        workers = [self._workers[shard] for shard in shard_order]
        held = []
        try:
            for worker in workers:
                worker.lock.acquire()
                held.append(worker)
            if self._closed:
                raise ReproError("affine pool is closed")
            if self._broken:
                raise ReproError(
                    "affine pool is broken after a prior pipe failure; "
                    "build a new pool"
                )
            try:
                for worker, request in zip(workers, requests):
                    worker.conn.send_bytes(request)
                replies = [worker.conn.recv_bytes() for worker in workers]
            except BaseException:
                # A half-written request or an unread reply leaves the
                # stream unrecoverable.
                self._broken = True
                raise
        finally:
            for worker in reversed(held):
                worker.lock.release()
        outcomes: list = [None] * len(calls)
        for shard, raw in zip(shard_order, replies):
            shard_outcomes, snapshot = pickle.loads(raw)
            if snapshot is not None and collector is not None:
                xproc.adopt(
                    collector,
                    snapshot,
                    parent_id=parent_id,
                    extra_attributes={"shard": shard},
                )
            for index, outcome in zip(by_shard[shard], shard_outcomes):
                outcomes[index] = outcome
        sent = sum(map(len, requests))
        obs.inc("sp.affine.rpcs", len(calls))
        obs.inc("sp.affine.request.bytes", sent)
        obs.inc("sp.affine.reply.bytes", sum(map(len, replies)))
        if ingest:
            obs.inc("sp.affine.scatter.bytes", sent)
        for ok, result in outcomes:
            if not ok:
                exc, formatted = result
                raise exc from RemoteTraceback(formatted)
        return [result for _, result in outcomes]

    def request(self, shard: int, op: str, payload: object = None) -> Any:
        """One call to one worker; returns its result."""
        return self.dispatch([(shard, op, payload)])[0]

    def close(self, timeout_s: float = 5.0) -> None:
        """Shut every worker down (idempotent): close op, join, reap.

        A pool latched broken sends no close op — a pipe may hold an
        unread reply — so its pipe ends are closed instead, before any
        join: each live worker reads end-of-file and exits at once.
        """
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
                            guarded_dumps(([("close", None)], False))
                        )
                        # Bounded wait for the close ack: a worker wedged
                        # in a long _handle call must not hang close() —
                        # fall through to join/terminate below.
                        if worker.conn.poll(timeout_s):
                            worker.conn.recv_bytes()
                    except (BrokenPipeError, EOFError, OSError):
                        pass
        for worker in self._workers:
            worker.conn.close()
        for worker in self._workers:
            worker.process.join(timeout_s)
            if worker.process.is_alive():  # pragma: no cover - wedged worker
                worker.process.terminate()
                worker.process.join(timeout_s)
