"""Pluggable index-shard engines: one keyword partition of the SP.

The SP's state — per-keyword ADS mirrors and raw object payloads — is
naturally partitioned by keyword: every proof is verified against a
*single* keyword's on-chain digest, so two keywords never share
cryptographic state.  An :class:`IndexShardEngine` owns one such
partition: the index holding its keywords' trees and the objects homed
on it.  A CI* keyword's Bloom filter chain is not separate state: the
index derives it from the IDs applied to the keyword's tree.  Every
call reaches an engine through one op table,
:meth:`IndexShardEngine.handle`, and every mutation as a batch of
journal-format records (:meth:`IndexShardEngine.apply_records`).  Two
transports run the table: :class:`InProcessShards` calls it inline in
the SP front-end's process, and :class:`~repro.sp.affine.AffineWorkerPool`
calls it in the worker that owns the shard.  Opening commitments stays
with the data owner — it needs the trapdoor and the aux state, which
never leave the DO — so shards receive ready-made insertion proofs like
any SP does.

Two implementations:

* :class:`MemoryShardEngine` — plain in-process state (the default);
* :class:`DiskShardEngine` — the same state fronted by an append-only
  JSONL segment log (``shard-NNN.jsonl``).  Every confirmed batch of
  records is journaled as one append after it is applied; reopening the
  engine replays the log through the identical code path, reusing the
  event-sourced recovery model of :mod:`repro.core.persistence`.  A
  checkpoint (``shard-NNN.ckpt``, version 2) holds a header, one JSON
  block (shard, epoch, node-store version, tree lengths, object
  records), the tree blobs and a SHA-3 digest; restoring it hands the
  trees to the index, which rebuilds whatever it derives from them.

Routing is a pure function: :class:`ShardRouter` hashes each keyword
with a seeded, domain-separated tag, so the keyword -> shard map is
deterministic across processes and runs (no ``PYTHONHASHSEED``
dependence) and every replica of the deployment routes identically.

Telemetry: ``sp.shard.route.hits`` / ``sp.shard.route.misses`` counters
on the routing cache and one ``sp.shard.<i>.objects`` counter per shard.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro import obs
from repro.core.chameleon import ChameleonTreeSP, InsertionProof
from repro.core.mbtree import MBTree
from repro.core.multiproof import prove_keys
from repro.core.nodestore import KIND_CHAMELEON, KIND_MBTREE, NODESTORE_VERSION
from repro.core.objects import DataObject, ObjectStore, object_to_record, record_to_object
from repro.core.query.join import conjunctive_join
from repro.core.suppressed import gen_spines
from repro.crypto.hashing import digests_equal, sha3, tagged_hash
from repro.errors import IntegrityError, ParameterError, ReproError

#: Engine kinds accepted by :func:`make_engine`.
ENGINE_KINDS = ("memory", "disk")

#: Where the SP front-end's shard engines live: in its own process
#: (:class:`InProcessShards`) or in resident workers
#: (:class:`~repro.sp.affine.AffineWorkerPool`).
POOL_KINDS = ("stateless", "affine")


class ShardRouter:
    """Deterministic seeded keyword -> shard routing.

    The shard of a keyword is derived from a domain-separated hash of
    the keyword under the system seed, so the mapping is stable across
    processes, replicas and restarts — a prerequisite for the shard
    journals to stay consistent with the routing.  Resolved routes are
    memoised per keyword (``sp.shard.route.hits`` / ``.misses``).
    """

    def __init__(self, shards: int, seed: int | None = None) -> None:
        if shards < 1:
            raise ParameterError("shards must be at least 1")
        self.shards = shards
        self._salt = (seed if seed is not None else 0).to_bytes(
            8, "big", signed=True
        )
        self._cache: dict[str, int] = {}

    def route(self, keyword: str) -> int:
        """The shard index owning ``keyword``."""
        cached = self._cache.get(keyword)
        if cached is not None:
            obs.inc("sp.shard.route.hits")
            return cached
        obs.inc("sp.shard.route.misses")
        digest = tagged_hash("shard-route", self._salt, keyword.encode("utf-8"))
        shard = int.from_bytes(digest[:8], "big") % self.shards
        self._cache[keyword] = shard
        return shard


def proof_to_record(proof: InsertionProof) -> dict:
    # Group elements are arbitrary-precision ints; hex keeps the journal
    # line compact and round-trips exactly.
    return {
        "position": proof.position,
        "object_id": proof.object_id,
        "object_hash": proof.object_hash.hex(),
        "commitment": format(proof.commitment, "x"),
        "opening": format(proof.opening, "x"),
        "parent_opening": format(proof.parent_opening, "x"),
        "parent_position": proof.parent_position,
        "child_index": proof.child_index,
    }


def tree_from_blob(blob: bytes | bytearray | memoryview) -> Any:
    """Restore an ADS tree from a node-store buffer, dispatching on kind.

    The blob is self-describing (header kind byte), so checkpoint
    loading needs no out-of-band type tag.
    """
    if len(blob) < 7:
        raise IntegrityError("node-store blob shorter than its header")
    kind = blob[6]
    if kind == KIND_MBTREE:
        return MBTree.from_blob(blob)
    if kind == KIND_CHAMELEON:
        return ChameleonTreeSP.from_blob(blob)
    raise IntegrityError(f"unknown node-store kind {kind}")


def _record_to_proof(record: dict) -> InsertionProof:
    if "opening" not in record:
        # Per-slot openings cannot be turned into whole-vector ones
        # without the trapdoor: the shard must be rebuilt by the DO.
        raise IntegrityError(
            "journal record carries per-slot openings from an older build"
        )
    return InsertionProof(
        position=record["position"],
        object_id=record["object_id"],
        object_hash=bytes.fromhex(record["object_hash"]),
        commitment=int(record["commitment"], 16),
        opening=int(record["opening"], 16),
        parent_opening=int(record["parent_opening"], 16),
        parent_position=record["parent_position"],
        child_index=record["child_index"],
    )


class IndexShardEngine:
    """One keyword partition's slice of the SP (in-memory base).

    ``index_factory`` builds the scheme's empty per-partition index
    mirror (:class:`~repro.core.merkle_family.MerkleInvertedSP` or
    :class:`~repro.core.chameleon_index.ChameleonSP`).  The index is the
    partition's whole ADS state: under CI* it derives each keyword's
    Bloom filter chain from the IDs applied to its tree, so the engine
    holds, journals and checkpoints no chain of its own.

    Records are only applied for *confirmed* insertions — the system
    applies SP-side state after the on-chain receipt succeeds — so an
    engine never needs rollback, and the disk subclass can journal each
    batch unconditionally.
    """

    kind = "memory"

    def __init__(
        self, shard_id: int, index_factory: Callable[[], object]
    ) -> None:
        self.shard_id = shard_id
        self.index = index_factory()
        self.store = ObjectStore()
        self._objects_metric = f"sp.shard.{shard_id}.objects"

    # -- mutators (confirmed insertions only) -----------------------------------

    def apply_records(self, records: list[dict]) -> int:
        """Apply a batch of journal-format records, then journal them as
        one append; returns the number applied.

        The one way state changes: the SP front-end ships each shard's
        buffered records here, in this process or over the affine pipe,
        and crash recovery replays the same records through
        :meth:`_apply`.  If a record fails, the prefix already applied
        is still journaled, so the log never falls behind memory.
        """
        applied = 0
        try:
            for record in records:
                self._apply(record)
                applied += 1
        finally:
            self._journal_many(records[:applied])
        return applied

    def _apply(self, record: dict) -> None:
        """Apply one journal-format record to in-memory state (no
        journaling) — the single dispatch shared by batch ingest and
        crash replay."""
        op = record.get("op")
        if op == "entry":
            self.index.tree_for(record["kw"]).insert(
                record["id"], bytes.fromhex(record["hash"])
            )
        elif op == "register":
            self.index.register_keyword(record["kw"], int(record["c"], 16))
        elif op == "apply":
            self.index.apply_insertion(
                record["kw"], _record_to_proof(record["proof"])
            )
        elif op == "object":
            self.store.put(record_to_object(record))
            obs.inc(self._objects_metric)
        else:
            # Never skipped: a record this build cannot apply (an older
            # build's ``bloom``, say) leaves the shard unrecoverable here.
            raise IntegrityError(f"unknown journal op {op!r}")

    # -- reads ------------------------------------------------------------------

    def view(self, keyword: str) -> Any:
        """The join engine's view of one of this shard's keyword trees."""
        return self.index.view(keyword)

    def tree(self, keyword: str) -> Any:
        """The keyword's raw index tree, or ``None`` if never inserted."""
        return self.index.trees.get(keyword)

    def get_object(self, object_id: int) -> DataObject:
        """Fetch one raw object homed on this shard."""
        return self.store.get(object_id)

    def object_count(self) -> int:
        """Number of objects homed on this shard."""
        return len(self.store)

    def all_object_ids(self) -> list[int]:
        """IDs homed on this shard, ascending."""
        return self.store.all_ids()

    # -- the op table --------------------------------------------------------------

    def handle(self, op: str, payload: Any) -> object:
        """Answer one ``(op, payload)`` shard call.

        Every SP operation reaches a shard through this table, in this
        process (:class:`InProcessShards`) or in the affine worker that
        holds the engine (:mod:`repro.sp.affine`).  A Merkle-family
        ``join`` only locates its entries, and ``prove`` then builds each
        tree's table here, next to the tree.
        """
        if op == "apply":
            return self.apply_records(payload)
        if op == "join":
            conjuncts, order, plan = payload
            outcomes = []
            for keywords in conjuncts:
                views = [self.view(keyword) for keyword in keywords]
                with obs.span("query.sp.join", keywords=len(views)):
                    outcomes.append(
                        conjunctive_join(views, order=order, plan=plan)
                    )
            return outcomes
        if op == "prove":
            return [
                prove_keys(self.tree(request.keyword), request)
                for request in payload
            ]
        if op == "spines":
            object_id, keywords = payload
            return gen_spines(self.index.trees, object_id, keywords)
        if op == "compact":
            return self.compact()
        if op == "views":
            return {keyword: self.view(keyword) for keyword in payload}
        if op == "tree":
            return self.tree(payload)
        if op == "get_objects":
            return [self.get_object(object_id) for object_id in payload]
        if op == "object_ids":
            return self.all_object_ids()
        if op == "ping":
            return payload
        if op == "close":
            return True
        raise ParameterError(f"unknown shard op {op!r}")

    # -- durability hooks --------------------------------------------------------

    def _journal_many(self, records: list[dict]) -> None:
        """Batched durability hook; one append for the whole batch."""

    def close(self) -> None:
        """Release any resources (no-op in memory)."""

    def compact(self) -> dict | None:
        """Checkpoint + truncate durable state; ``None`` when stateless.

        Memory engines have nothing to compact; the disk engine returns
        a stats dict (``reclaimed`` journal bytes, checkpoint size).
        """
        return None


class MemoryShardEngine(IndexShardEngine):
    """The default engine: plain in-process state, no durability."""

    kind = "memory"


#: Checkpoint file magic (``shard-NNN.ckpt``).
CKPT_MAGIC = b"RPCK"

#: Checkpoint container version.  Version 1 also stored each keyword's
#: Bloom filters; version 2 stores trees and objects only, and a
#: version-1 checkpoint is refused like any other foreign one.
CKPT_VERSION = 2

_CKPT_HEAD = struct.Struct(">4sHII")  # magic, version, epoch, meta_len


class DiskShardEngine(IndexShardEngine):
    """An engine fronted by an append-only JSONL segment log.

    Every confirmed batch appends its self-describing records to
    ``<directory>/shard-NNN.jsonl`` after they are applied in memory.
    Opening an engine over an existing log replays it through the same
    record dispatch (:meth:`_apply`, which never journals), rebuilding
    byte-identical tree state — the recovery model of
    :mod:`repro.core.persistence`, scoped to one shard.

    Checkpoints and compaction
    --------------------------
    :meth:`snapshot` writes the engine's complete state to
    ``shard-NNN.ckpt`` — the flat-buffer tree blobs verbatim, no
    per-node serialisation — then swaps in a fresh journal, so restart
    cost is one mmap'd read plus a (normally empty) journal suffix
    instead of a full-history replay.  Checkpoints and journals carry an
    *epoch* number tying them together:

    * journal epoch == checkpoint epoch: normal restart — load the
      checkpoint, replay the suffix;
    * journal epoch < checkpoint epoch: a crash hit between checkpoint
      rename and journal swap; the checkpoint already covers every
      journaled record, so the stale journal is discarded and the swap
      finished;
    * a ``*.tmp`` file is always a torn write and is removed;
    * a checkpoint that fails its integrity digest is recoverable only
      when the journal still holds full history (epoch 0).

    Every rename is followed by a directory fsync so a crash cannot
    resurrect the superseded file, and the torn-tail tolerance of the
    journal replay is unchanged.
    """

    kind = "disk"

    def __init__(
        self,
        shard_id: int,
        index_factory: Callable[[], object],
        directory: str | Path,
    ) -> None:
        super().__init__(shard_id, index_factory)
        self.directory = Path(directory)
        self.path = self.directory / f"shard-{shard_id:03d}.jsonl"
        self.checkpoint_path = self.directory / f"shard-{shard_id:03d}.ckpt"
        self.directory.mkdir(parents=True, exist_ok=True)
        self._log = None
        self.epoch = 0
        self._recover()
        self._log = self.path.open("a")

    # -- recovery ----------------------------------------------------------------

    def _recover(self) -> None:
        """Reassemble state from checkpoint + journal (see class docs)."""
        for stem in (self.checkpoint_path, self.path):
            torn = stem.with_name(stem.name + ".tmp")
            if torn.exists():
                torn.unlink()  # a tmp file never survived its rename
        journal_epoch = self._journal_epoch() if self.path.exists() else None
        if self.checkpoint_path.exists():
            try:
                self.epoch = self.load_snapshot()
            except IntegrityError:
                if journal_epoch == 0:
                    # The journal still holds full history: drop the bad
                    # checkpoint and recover the long way.
                    self.checkpoint_path.unlink()
                    self.epoch = 0
                    self._replay()
                    return
                raise
            if journal_epoch == self.epoch:
                self._replay()  # the suffix written since the checkpoint
            elif journal_epoch is None or journal_epoch < self.epoch:
                # Crash between checkpoint rename and journal swap: the
                # checkpoint supersedes the journal; finish the swap.
                self._reset_journal()
            else:
                raise ReproError(
                    f"journal epoch {journal_epoch} is ahead of checkpoint "
                    f"epoch {self.epoch} for {self.path.name}"
                )
        elif self.path.exists():
            if journal_epoch:
                raise ReproError(
                    f"journal {self.path.name} references a missing "
                    f"checkpoint (epoch {journal_epoch})"
                )
            self._replay()

    def _journal_epoch(self) -> int:
        """The journal's epoch header (0 = pre-epoch / full history)."""
        with self.path.open("rb") as fh:
            first = fh.readline()
        if not first.endswith(b"\n"):
            return 0
        try:
            record = json.loads(first)
        except ValueError:
            return 0
        if isinstance(record, dict) and record.get("op") == "epoch":
            return int(record["n"])
        return 0

    def _replay(self) -> None:
        """Stream-replay the segment log, truncating a torn tail record.

        The journal is read line-by-line — never materialised whole, so
        replay memory is O(record), not O(journal).  A crash mid-append
        leaves either bytes after the last newline or a final
        newline-terminated line that no longer decodes (the page holding
        its prefix may not have hit disk).  Both are the torn tail of an
        *unconfirmed* append: drop it, truncate the file to the last
        good record and recover everything before it.  A non-final line
        that fails to decode is real corruption and raises — silently
        skipping interior records would desynchronise the shard from the
        on-chain digests.
        """
        good_end = 0
        lineno = 0
        with self.path.open("rb") as fh:
            while True:
                raw = fh.readline()
                if not raw:
                    break
                lineno += 1
                if not raw.endswith(b"\n"):
                    break  # bytes past the last newline: torn append
                line = raw.strip()
                if line:
                    try:
                        record = json.loads(line)
                    except ValueError as exc:
                        if not fh.read(1):
                            break  # torn final line: truncate before it
                        raise ReproError(
                            f"corrupt journal record at {self.path.name}:"
                            f"{lineno}"
                        ) from exc
                    if record.get("op") != "epoch":
                        self._apply(record)
                good_end += len(raw)
        if good_end < self.path.stat().st_size:
            os.truncate(self.path, good_end)

    # -- journaling --------------------------------------------------------------

    def _journal_many(self, records: list[dict]) -> None:
        # One write call + flush for the whole batch, not O(k) syscalls.
        if self._log is not None and records:
            self._log.write(
                "".join(json.dumps(record) + "\n" for record in records)
            )
            self._log.flush()

    def _fsync_dir(self) -> None:
        """Make renames in the shard directory durable."""
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _reset_journal(self) -> None:
        """Atomically replace the journal with a fresh epoch-tagged one."""
        tmp = self.path.with_name(self.path.name + ".tmp")
        with tmp.open("w") as fh:
            if self.epoch:
                fh.write(json.dumps({"op": "epoch", "n": self.epoch}) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._fsync_dir()

    # -- checkpoints -------------------------------------------------------------

    def _serialise_state(self, epoch: int) -> bytes:
        """One self-validating buffer holding the whole engine state.

        Tree state is the flat-buffer blobs verbatim — writing a
        checkpoint is a header, one JSON metadata block, and a
        concatenation of buffers already sitting in memory.  The
        trailing SHA-3 digest makes torn or bit-rotted checkpoints
        detectable before any of their state is adopted.
        """
        trees_meta: list[list] = []
        blobs: list[bytes] = []
        for keyword in sorted(self.index.trees):
            blob = self.index.trees[keyword].to_blob()
            trees_meta.append([keyword, len(blob)])
            blobs.append(blob)
        objects = [
            object_to_record(self.store.get(object_id))
            for object_id in self.store.all_ids()
        ]
        meta = {
            "shard": self.shard_id,
            "epoch": epoch,
            "node_store": NODESTORE_VERSION,
            "trees": trees_meta,
            "objects": objects,
        }
        meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8")
        body = (
            _CKPT_HEAD.pack(CKPT_MAGIC, CKPT_VERSION, epoch, len(meta_bytes))
            + meta_bytes
            + b"".join(blobs)
        )
        return body + sha3(body)

    def snapshot(self) -> Path:
        """Checkpoint the engine and swap in a fresh journal.

        Protocol (each rename followed by a directory fsync):

        1. write ``shard-NNN.ckpt.tmp`` at epoch ``E+1``, fsync, rename
           over ``shard-NNN.ckpt``;
        2. replace the journal with one holding only the new epoch
           header, and reopen it for appends.

        A crash after step 1 is recovered by the epoch rule (stale
        journal discarded — the checkpoint covers it); a crash during
        either tmp write leaves only an ignored ``*.tmp``.
        """
        payload = self._serialise_state(self.epoch + 1)
        tmp = self.checkpoint_path.with_name(self.checkpoint_path.name + ".tmp")
        with tmp.open("wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.checkpoint_path)
        self._fsync_dir()
        self.epoch += 1
        if self._log is not None:
            self._log.close()
            self._log = None
        self._reset_journal()
        self._log = self.path.open("a")
        return self.checkpoint_path

    def load_snapshot(self) -> int:
        """Adopt the checkpoint's state (mmap'd); returns its epoch.

        The file is mapped, digest-verified, and the tree blobs are
        handed to ``from_blob`` as buffer slices — no per-node decode.
        State is built fully before any of it is installed, so a
        failing checkpoint leaves the engine untouched.
        """
        with self.checkpoint_path.open("rb") as fh:
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        try:
            if len(mapped) < _CKPT_HEAD.size + 32:
                raise IntegrityError("checkpoint shorter than its header")
            if not digests_equal(sha3(mapped[:-32]), mapped[-32:]):
                raise IntegrityError("checkpoint integrity digest mismatch")
            magic, version, epoch, meta_len = _CKPT_HEAD.unpack_from(mapped, 0)
            if magic != CKPT_MAGIC:
                raise IntegrityError("bad checkpoint magic")
            if version != CKPT_VERSION:
                raise IntegrityError(
                    f"unsupported checkpoint version {version}"
                )
            offset = _CKPT_HEAD.size
            meta = json.loads(mapped[offset : offset + meta_len])
            if meta.get("shard") != self.shard_id:
                raise IntegrityError(
                    f"checkpoint belongs to shard {meta.get('shard')}, "
                    f"not {self.shard_id}"
                )
            offset += meta_len
            view = memoryview(mapped)
            trees: dict[str, Any] = {}
            try:
                for keyword, blob_len in meta["trees"]:
                    blob = view[offset : offset + blob_len]
                    try:
                        if len(blob) != blob_len:
                            raise IntegrityError(
                                "checkpoint tree blob truncated"
                            )
                        trees[keyword] = tree_from_blob(blob)
                    finally:
                        blob.release()
                    offset += blob_len
            finally:
                view.release()
            if offset != len(mapped) - 32:
                raise IntegrityError("checkpoint has trailing bytes")
            objects = [record_to_object(rec) for rec in meta["objects"]]
        finally:
            mapped.close()
        self.index.adopt(trees)
        self.store = ObjectStore()
        for obj in objects:
            self.store.put(obj)
            obs.inc(self._objects_metric)
        return epoch

    def compact(self) -> dict:
        """Checkpoint + truncate the journal; returns reclaim stats."""
        journal_before = (
            self.path.stat().st_size if self.path.exists() else 0
        )
        self.snapshot()
        journal_after = self.path.stat().st_size
        return {
            "journal_bytes_before": journal_before,
            "journal_bytes_after": journal_after,
            "reclaimed": max(0, journal_before - journal_after),
            "checkpoint_bytes": self.checkpoint_path.stat().st_size,
        }

    def close(self) -> None:
        """Flush, fsync and close the segment log (idempotent).

        The engine stays readable in memory; the fsync guarantees every
        journaled record is durable before the handle is released, so a
        clean close is always replayable in full.
        """
        if self._log is not None:
            log, self._log = self._log, None
            log.flush()
            os.fsync(log.fileno())
            log.close()


def make_engine(
    kind: str,
    shard_id: int,
    index_factory: Callable[[], object],
    *,
    directory: str | Path | None = None,
) -> IndexShardEngine:
    """Build one shard engine of the given kind."""
    if kind == "memory":
        return MemoryShardEngine(shard_id, index_factory)
    if kind == "disk":
        if directory is None:
            raise ParameterError(
                "engine='disk' requires an engine directory"
            )
        return DiskShardEngine(shard_id, index_factory, directory)
    raise ParameterError(
        f"unknown engine {kind!r}; expected one of: " + ", ".join(ENGINE_KINDS)
    )


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

        return lambda: MerkleInvertedSP(**params)
    if kind == "chameleon":
        from repro.core.chameleon_index import ChameleonSP

        return lambda: ChameleonSP(**params)
    raise ParameterError(f"unknown index spec kind {kind!r}")


@dataclass(frozen=True)
class EngineSpec:
    """Everything a transport needs to build one shard engine.

    Plain data only (``index_spec`` instead of a factory closure), so a
    spec crosses the process boundary under any start method.
    """

    shard_id: int
    engine: str
    index_spec: tuple
    directory: str | None = None

    def build(self) -> IndexShardEngine:
        """Construct the engine (replaying its journal if on disk)."""
        return make_engine(
            self.engine,
            self.shard_id,
            build_index_factory(self.index_spec),
            directory=self.directory,
        )


class InProcessShards:
    """The in-process transport: engines here, each call answered inline.

    The same interface as :class:`~repro.sp.affine.AffineWorkerPool` —
    ``dispatch`` of ``(shard, op, payload)`` calls, ``ready_info`` and
    ``close`` — without pickling: a call's payload and reply are the
    objects themselves.
    """

    kind = "stateless"

    def __init__(self, specs: list[EngineSpec]) -> None:
        self.engines = [spec.build() for spec in specs]
        self.ready_info = [
            {"object_ids": engine.all_object_ids()} for engine in self.engines
        ]

    def dispatch(
        self, calls: list[tuple[int, str, object]], ingest: bool = False
    ) -> list:
        """Run the calls in order; results in call order."""
        return [
            self.engines[shard].handle(op, payload)
            for shard, op, payload in calls
        ]

    def close(self) -> None:
        """Close every engine (idempotent)."""
        for engine in self.engines:
            engine.close()
