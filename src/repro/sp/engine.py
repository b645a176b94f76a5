"""Pluggable index-shard engines: one keyword partition of the SP.

The SP's state — per-keyword ADS mirrors, raw object payloads, Bloom
filter chains — is naturally partitioned by keyword: every proof is
verified against a *single* keyword's on-chain digest, so two keywords
never share cryptographic state.  An :class:`IndexShardEngine` owns one
such partition: the ADS instances of its keywords and the objects homed
on it.  An engine lives either in the SP front-end's process or in the
affine worker that owns its shard (:mod:`repro.sp.affine`); the same
methods run in both places.  Opening commitments stays with the data
owner — it needs the trapdoor and the aux state, which never leave the
DO — so shards receive ready-made insertion proofs like any SP does.

Two implementations:

* :class:`MemoryShardEngine` — plain in-process state (the default);
* :class:`DiskShardEngine` — the same state fronted by an append-only
  JSONL segment log (``shard-NNN.jsonl``).  Every confirmed mutation is
  journaled after it is applied; reopening the engine replays the log
  through the identical code paths, reusing the event-sourced recovery
  model of :mod:`repro.core.persistence`.

Routing is a pure function: :class:`ShardRouter` hashes each keyword
with a seeded, domain-separated tag, so the keyword -> shard map is
deterministic across processes and runs (no ``PYTHONHASHSEED``
dependence) and every replica of the deployment routes identically.

Telemetry: ``sp.shard.route.hits`` / ``sp.shard.route.misses`` counters
on the routing cache and one ``sp.shard.<i>.objects`` counter per shard.
"""

from __future__ import annotations

import base64
import json
import mmap
import os
import struct
from pathlib import Path
from typing import Any, Callable

from repro import obs
from repro.core.chameleon import ChameleonTreeSP, InsertionProof
from repro.core.mbtree import MBTree
from repro.core.nodestore import KIND_CHAMELEON, KIND_MBTREE, NODESTORE_VERSION
from repro.core.objects import DataObject, ObjectStore
from repro.crypto.bloom import (
    DEFAULT_CAPACITY,
    DEFAULT_FILTER_BITS,
    BloomFilter,
    BloomFilterChain,
)
from repro.crypto.hashing import digests_equal, sha3, tagged_hash
from repro.errors import IntegrityError, ParameterError, ReproError

#: Engine kinds accepted by :func:`make_engine`.
ENGINE_KINDS = ("memory", "disk")


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


def _object_to_record(obj: DataObject) -> dict:
    return {
        "id": obj.object_id,
        "keywords": list(obj.keywords),
        "content": base64.b64encode(obj.content).decode("ascii"),
    }


def _record_to_object(record: dict) -> DataObject:
    return DataObject(
        object_id=record["id"],
        keywords=tuple(record["keywords"]),
        content=base64.b64decode(record["content"]),
    )


def _proof_to_record(proof: InsertionProof) -> dict:
    # Group elements are arbitrary-precision ints; hex keeps the journal
    # line compact and round-trips exactly.
    return {
        "position": proof.position,
        "object_id": proof.object_id,
        "object_hash": proof.object_hash.hex(),
        "commitment": format(proof.commitment, "x"),
        "slot1_proof": format(proof.slot1_proof, "x"),
        "parent_link_proof": format(proof.parent_link_proof, "x"),
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
    return InsertionProof(
        position=record["position"],
        object_id=record["object_id"],
        object_hash=bytes.fromhex(record["object_hash"]),
        commitment=int(record["commitment"], 16),
        slot1_proof=int(record["slot1_proof"], 16),
        parent_link_proof=int(record["parent_link_proof"], 16),
        parent_position=record["parent_position"],
        child_index=record["child_index"],
    )


class IndexShardEngine:
    """One keyword partition's slice of the SP (in-memory base).

    ``index_factory`` builds the scheme's empty per-partition index
    mirror (:class:`~repro.core.merkle_family.MerkleInvertedSP` or
    :class:`~repro.core.chameleon_index.ChameleonSP`); ``star`` attaches
    the partition's Bloom filter chains to its views (CI* only).

    Mutators are only called for *confirmed* insertions — the system
    applies SP-side state after the on-chain receipt succeeds — so an
    engine never needs rollback, and the disk subclass can journal each
    mutation unconditionally.
    """

    kind = "memory"

    def __init__(
        self,
        shard_id: int,
        index_factory: Callable[[], object],
        *,
        star: bool = False,
        filter_bits: int = DEFAULT_FILTER_BITS,
        bloom_capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.shard_id = shard_id
        self.index = index_factory()
        self.store = ObjectStore()
        self.blooms: dict[str, BloomFilterChain] = {}
        self.star = star
        self.filter_bits = filter_bits
        self.bloom_capacity = bloom_capacity
        self._objects_metric = f"sp.shard.{shard_id}.objects"

    # -- mutators (confirmed insertions only) -----------------------------------

    def insert_entry(
        self, keyword: str, object_id: int, object_hash: bytes
    ) -> None:
        """Mirror one confirmed posting into the keyword's MB-tree."""
        record = {
            "op": "entry",
            "kw": keyword,
            "id": object_id,
            "hash": object_hash.hex(),
        }
        self._apply(record)
        self._journal(record)

    def register_keyword(self, keyword: str, commitment: int) -> None:
        """Register a first-seen keyword's root commitment (Chameleon)."""
        record = {"op": "register", "kw": keyword, "c": format(commitment, "x")}
        self._apply(record)
        self._journal(record)

    def apply_insertion(self, keyword: str, proof: InsertionProof) -> None:
        """Ingest one DO insertion proof (Chameleon)."""
        record = {"op": "apply", "kw": keyword, "proof": _proof_to_record(proof)}
        self._apply(record)
        self._journal(record)

    def bloom_add(self, keyword: str, object_id: int) -> None:
        """Mirror one ID into the keyword's Bloom filter chain (CI*)."""
        record = {"op": "bloom", "kw": keyword, "id": object_id}
        self._apply(record)
        self._journal(record)

    def put_object(self, obj: DataObject) -> None:
        """Store one raw object homed on this shard."""
        record = {"op": "object", **_object_to_record(obj)}
        self._apply(record)
        self._journal(record)

    def apply_records(self, records: list[dict]) -> int:
        """Apply a batch of journal-format delta records, then journal
        them as one append.

        This is the resident-worker ingest entry point: the wire format
        of a shard delta *is* the journal record format, so a batch
        shipped over the affine channel replays through the same code
        path as crash recovery and lands in the segment log with one
        write call.  Returns the number of records applied.
        """
        for record in records:
            self._apply(record)
        self._journal_many(records)
        return len(records)

    def apply_bulk(self, groups: list[tuple[str, list]]) -> int:
        """Ingest posting groups ``[(keyword, [(id, hash), ...]), ...]``.

        The bulk-mirror path of both pool modes: the front-end calls it
        on an in-process engine, an affine worker runs it on its end of
        the pipe.  The deltas arrive as raw postings and the trees are
        extended *in place* — no tree ever crosses a channel.  All
        groups journal as a single append, so a replay rebuilds the
        identical trees.  Returns the number of postings applied.
        """
        applied = 0
        records = []
        for keyword, entries in groups:
            tree = self.index.tree_for(keyword)
            for object_id, object_hash in entries:
                tree.insert(object_id, object_hash)
                records.append(
                    {
                        "op": "entry",
                        "kw": keyword,
                        "id": object_id,
                        "hash": object_hash.hex(),
                    }
                )
                applied += 1
        self._journal_many(records)
        return applied

    def _apply(self, record: dict) -> None:
        """Apply one journal-format record to in-memory state (no
        journaling) — the single dispatch shared by the public mutators,
        batch ingest and crash replay."""
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
        elif op == "bloom":
            keyword = record["kw"]
            chain = self.blooms.get(keyword)
            if chain is None:
                chain = self.blooms[keyword] = BloomFilterChain(
                    filter_bits=self.filter_bits, capacity=self.bloom_capacity
                )
            chain.add(record["id"])
        elif op == "object":
            self.store.put(_record_to_object(record))
            obs.inc(self._objects_metric)
        else:
            raise ReproError(f"unknown journal op {op!r}")

    # -- reads ------------------------------------------------------------------

    def view(self, keyword: str) -> Any:
        """The join engine's view of one of this shard's keyword trees."""
        view = self.index.view(keyword)
        if self.star:
            view.bloom = self.blooms.get(keyword)
        return view

    def tree(self, keyword: str) -> Any:
        """The keyword's raw index tree, or ``None`` if never inserted."""
        return self.index.trees.get(keyword)

    def get_object(self, object_id: int) -> DataObject:
        """Fetch one raw object homed on this shard."""
        return self.store.get(object_id)

    def has_object(self, object_id: int) -> bool:
        """Whether the object is homed on this shard."""
        return object_id in self.store

    def object_count(self) -> int:
        """Number of objects homed on this shard."""
        return len(self.store)

    def all_object_ids(self) -> list[int]:
        """IDs homed on this shard, ascending."""
        return self.store.all_ids()

    # -- durability hooks --------------------------------------------------------

    def _journal(self, record: dict) -> None:
        """Durability hook; the in-memory engine keeps nothing."""

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

#: Checkpoint container version.
CKPT_VERSION = 1

_CKPT_HEAD = struct.Struct(">4sHII")  # magic, version, epoch, meta_len


class DiskShardEngine(IndexShardEngine):
    """An engine fronted by an append-only JSONL segment log.

    Every confirmed mutation appends one self-describing record to
    ``<directory>/shard-NNN.jsonl`` after it is applied in memory.
    Opening an engine over an existing log replays it through the same
    public mutators (journaling is disabled during replay because the
    log handle opens only afterwards), rebuilding byte-identical tree
    state — the recovery model of :mod:`repro.core.persistence`, scoped
    to one shard.

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
        **kwargs,
    ) -> None:
        super().__init__(shard_id, index_factory, **kwargs)
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

    def _journal(self, record: dict) -> None:
        if self._log is not None:
            self._log.write(json.dumps(record) + "\n")
            self._log.flush()

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
        blooms = {
            keyword: [
                {
                    "bits": format(flt.bits, "x"),
                    "count": flt.count,
                    "min": flt.min_id,
                    "max": flt.max_id,
                    "hash_count": flt.hash_count,
                    "members": sorted(flt.exact_members()),
                }
                for flt in chain.filters
            ]
            for keyword, chain in self.blooms.items()
        }
        objects = [
            _object_to_record(self.store.get(object_id))
            for object_id in self.store.all_ids()
        ]
        meta = {
            "shard": self.shard_id,
            "epoch": epoch,
            "node_store": NODESTORE_VERSION,
            "trees": trees_meta,
            "blooms": blooms,
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
            blooms: dict[str, BloomFilterChain] = {}
            for keyword, filters in meta["blooms"].items():
                chain = BloomFilterChain(
                    filter_bits=self.filter_bits, capacity=self.bloom_capacity
                )
                for rec in filters:
                    flt = BloomFilter(
                        filter_bits=self.filter_bits,
                        capacity=self.bloom_capacity,
                        hash_count=rec["hash_count"],
                        bits=int(rec["bits"], 16),
                        count=rec["count"],
                        min_id=rec["min"],
                        max_id=rec["max"],
                    )
                    flt._members.update(rec["members"])
                    chain.filters.append(flt)
                blooms[keyword] = chain
            objects = [_record_to_object(rec) for rec in meta["objects"]]
        finally:
            mapped.close()
        self.index.trees.clear()
        self.index.trees.update(trees)
        self.blooms = blooms
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
    star: bool = False,
    filter_bits: int = DEFAULT_FILTER_BITS,
    bloom_capacity: int = DEFAULT_CAPACITY,
) -> IndexShardEngine:
    """Build one shard engine of the given kind."""
    if kind == "memory":
        return MemoryShardEngine(
            shard_id,
            index_factory,
            star=star,
            filter_bits=filter_bits,
            bloom_capacity=bloom_capacity,
        )
    if kind == "disk":
        if directory is None:
            raise ParameterError(
                "engine='disk' requires an engine directory"
            )
        return DiskShardEngine(
            shard_id,
            index_factory,
            directory,
            star=star,
            filter_bits=filter_bits,
            bloom_capacity=bloom_capacity,
        )
    raise ParameterError(
        f"unknown engine {kind!r}; expected one of: " + ", ".join(ENGINE_KINDS)
    )
