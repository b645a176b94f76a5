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
ops holding the values themselves (:meth:`IndexShardEngine.apply_ops`).
Two transports run the table: :class:`InProcessShards` calls it inline in
the SP front-end's process, and :class:`~repro.sp.affine.AffineWorkerPool`
calls it in the worker that owns the shard.  Opening commitments stays
with the data owner — it needs the trapdoor and the aux state, which
never leave the DO — so shards receive ready-made insertion proofs like
any SP does.

Two kinds (:func:`make_engine`):

* ``"memory"`` — :class:`IndexShardEngine`: plain in-process state;
* ``"disk"`` — :class:`DiskShardEngine`: the same state fronted by an
  append-only binary journal (``shard-NNN.journal``) and a checkpoint
  (``shard-NNN.ckpt``), each value at its wire width and each object in
  its canonical encoding; the disk engine is the only code that encodes
  an op, and its replay the only code that decodes one.

Routing is a pure function: :class:`ShardRouter` hashes each keyword
with a seeded, domain-separated tag, so the keyword -> shard map is
deterministic across processes and runs (no ``PYTHONHASHSEED``
dependence) and every replica of the deployment routes identically.

Telemetry: ``sp.shard.route.hits`` / ``sp.shard.route.misses`` counters
on the routing cache and one ``sp.shard.<i>.objects`` counter per shard.
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro import obs
from repro.core.chameleon import ChameleonTreeSP, InsertionProof
from repro.core.mbtree import MBTree
from repro.core.multiproof import prove_keys
from repro.core.nodestore import NODESTORE_VERSION
from repro.core.objects import DataObject, ObjectStore, normalise_keyword
from repro.core.query.join import conjunctive_join
from repro.core.suppressed import gen_spines
from repro.core.wire import U8, U32, Reader
from repro.crypto.hashing import digests_equal, sha3, tagged_hash
from repro.errors import IntegrityError, ParameterError, ReproError

#: Engine kinds accepted by :func:`make_engine`.
ENGINE_KINDS = ("memory", "disk")

#: A shard mutation: ``("object", DataObject)``, ``("entry", keyword,
#: object_id, object_hash)``, ``("register", keyword, commitment)`` or
#: ``("apply", keyword, InsertionProof)``.
ShardOp = tuple

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


class IndexShardEngine:
    """One keyword partition's slice of the SP (the memory engine).

    ``index_factory`` builds the scheme's empty per-partition index
    mirror (:class:`~repro.core.merkle_family.MerkleInvertedSP` or
    :class:`~repro.core.chameleon_index.ChameleonSP`).  The index is the
    partition's whole ADS state: under CI* it derives each keyword's
    Bloom filter chain from the IDs applied to its tree, so the engine
    holds, journals and checkpoints no chain of its own.

    Ops are only applied for *confirmed* insertions — the system applies
    SP-side state after the on-chain receipt succeeds — so an engine
    never needs rollback, and the disk subclass can journal each batch
    unconditionally.
    """

    def __init__(
        self, shard_id: int, index_factory: Callable[[], object]
    ) -> None:
        self.shard_id = shard_id
        self.index = index_factory()
        self.store = ObjectStore()
        self._objects_metric = f"sp.shard.{shard_id}.objects"

    # -- mutators (confirmed insertions only) -----------------------------------

    def apply_ops(self, ops: list[ShardOp]) -> int:
        """Apply a batch of shard ops, then journal them as one append;
        returns the number applied.

        The one way state changes: the SP front-end ships each shard's
        buffered ops here, in this process or over the affine pipe, and
        crash recovery replays the journaled ops through :meth:`_apply`.
        If an op fails, the prefix already applied is still journaled,
        so the log never falls behind memory.
        """
        applied = 0
        try:
            for op in ops:
                self._apply(op)
                applied += 1
        finally:
            self._journal_many(ops[:applied])
        return applied

    def _apply(self, op: ShardOp) -> None:
        """Apply one shard op to in-memory state (no journaling) — the
        single dispatch shared by batch ingest and crash replay."""
        kind = op[0]
        if kind == "entry":
            _, keyword, object_id, object_hash = op
            self.index.tree_for(keyword).insert(object_id, object_hash)
        elif kind == "register":
            self.index.register_keyword(op[1], op[2])
        elif kind == "apply":
            self.index.apply_insertion(op[1], op[2])
        elif kind == "object":
            self.store.put(op[1])
            obs.inc(self._objects_metric)
        else:
            raise ParameterError(f"unknown shard mutation {kind!r}")

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
            return self.apply_ops(payload)
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

    def _journal_many(self, ops: list[ShardOp]) -> None:
        """Batched durability hook; one append for the whole batch."""

    def close(self) -> None:
        """Release any resources (no-op in memory)."""

    def compact(self) -> dict | None:
        """Checkpoint + truncate durable state; ``None`` when stateless.

        Memory engines have nothing to compact; the disk engine returns
        a stats dict (``reclaimed`` journal bytes, checkpoint size).
        """
        return None


#: Journal file magic and format version (``shard-NNN.journal``).  Every
#: journal that holds bytes starts with its header; the JSONL journals
#: of older builds (``shard-NNN.jsonl``) are refused, never replayed.
JOURNAL_MAGIC = b"RPJL"
JOURNAL_VERSION = 1

_JOURNAL_START = struct.Struct(">4sHI")  # magic, version, epoch
_JOURNAL_HEAD_SIZE = _JOURNAL_START.size + U32.size  # + CRC-32 of the start
_FRAME = struct.Struct(">II")  # body length, CRC-32 of the body

#: The ``u8`` tag of each op kind in a journal record.
_TAGS = {"object": 1, "entry": 2, "register": 3, "apply": 4}
_KINDS = {tag: kind for kind, tag in _TAGS.items()}
_U64 = struct.Struct(">Q")
_PROOF_TAIL = struct.Struct(">QB")  # parent position, child index

#: Checkpoint file magic (``shard-NNN.ckpt``).
CKPT_MAGIC = b"RPCK"

#: Checkpoint container version.  Version 1 also stored each keyword's
#: Bloom filters and version 2 a JSON metadata block; version 3 holds
#: the metadata as fixed-width fields and object encodings, and an
#: older checkpoint is refused like any other foreign one.
CKPT_VERSION = 3

_CKPT_HEAD = struct.Struct(">4sHII")  # magic, version, epoch, meta_len
_CKPT_META = struct.Struct(">IHI")  # shard, node-store version, tree count


def _journal_head(epoch: int) -> bytes:
    """A journal's header record at ``epoch``."""
    start = _JOURNAL_START.pack(JOURNAL_MAGIC, JOURNAL_VERSION, epoch)
    return start + U32.pack(zlib.crc32(start))


def _put_keyword(out: bytearray, keyword: str) -> None:
    blob = keyword.encode("utf-8")
    out.append(len(blob))  # normalised keywords are at most 255 bytes
    out += blob


def _encode_ops(ops: list[ShardOp], value_bytes: int | None) -> bytes:
    """One journal record's body: each op's tag, then its values at their
    wire widths; read back by :func:`_read_ops`."""
    out = bytearray()
    for op in ops:
        kind = op[0]
        out.append(_TAGS[kind])
        if kind == "object":
            wire = op[1].encoded()
            out += U32.pack(len(wire))
            out += wire
            continue
        _put_keyword(out, op[1])
        if kind == "entry":
            out += _U64.pack(op[2])
            out += op[3]
        elif kind == "register":
            out += op[2].to_bytes(value_bytes, "big")
        else:
            proof = op[2]
            out += _U64.pack(proof.position)
            out += _U64.pack(proof.object_id)
            out += proof.object_hash
            for element in (proof.commitment, proof.opening, proof.parent_opening):
                out += element.to_bytes(value_bytes, "big")
            out += _PROOF_TAIL.pack(proof.parent_position, proof.child_index)
    return bytes(out)


def _read_object(wire: bytes) -> DataObject:
    """An object stored by its wire encoding, which must re-encode to
    itself.  The encoding is injective, so it does exactly when its
    keywords are already in normal form, each listed once."""
    obj = DataObject.from_wire(wire)
    try:
        canonical = tuple(dict.fromkeys(map(normalise_keyword, obj.keywords)))
    except ReproError as exc:
        raise IntegrityError(f"object {obj.object_id}: {exc}") from None
    if canonical != obj.keywords:
        raise IntegrityError(f"object {obj.object_id} is not in canonical form")
    return obj


def _read_ops(body: bytes, value_bytes: int | None) -> list[ShardOp]:
    """The ops of one journal record, failing closed.

    ``value_bytes`` is the shard's group-element width, or ``None`` for
    a Merkle index: an ``entry`` belongs to a Merkle shard's journal,
    a ``register`` or ``apply`` to a Chameleon one's, and an op of the
    other family, an unknown tag or a field that does not fit is a
    :class:`ReproError`.  Only replay runs this: live ops are never
    decoded.
    """
    reader = Reader(body, "journal record")
    ops: list[ShardOp] = []
    while reader.pos < len(body):
        tag = reader.u8()
        kind = _KINDS.get(tag)
        if kind is None:
            # Never skipped: a record this build cannot apply leaves the
            # shard unrecoverable here.
            raise IntegrityError(f"unknown journal op tag {tag}")
        if kind == "object":
            ops.append((kind, _read_object(reader.blob(U32))))
            continue
        if (kind == "entry") != (value_bytes is None):
            family = "Merkle" if value_bytes is None else "Chameleon"
            raise IntegrityError(f"a {family} shard's journal holds an {kind!r} op")
        keyword = reader.text(U8)
        if value_bytes is None:  # an entry, by the check above
            ops.append((kind, keyword, reader.uint(8), reader.take(32)))
        elif kind == "register":
            ops.append((kind, keyword, reader.uint(value_bytes)))
        else:
            proof = InsertionProof(
                position=reader.uint(8),
                object_id=reader.uint(8),
                object_hash=reader.take(32),
                commitment=reader.uint(value_bytes),
                opening=reader.uint(value_bytes),
                parent_opening=reader.uint(value_bytes),
                parent_position=reader.uint(8),
                child_index=reader.u8(),
            )
            ops.append((kind, keyword, proof))
    return ops


def _read_ckpt_meta(
    meta: bytes, shard_id: int
) -> tuple[list[tuple[str, int]], list[DataObject]]:
    """The ``(keyword, blob length)`` pairs and the objects of a
    checkpoint's metadata block, failing closed: the digest proves the
    file whole, not well formed, so anything but the block
    :meth:`DiskShardEngine._serialise_state` writes for this shard —
    keywords and object IDs strictly ascending — is a
    :class:`ReproError`."""
    reader = Reader(meta, "checkpoint metadata")
    shard, node_store, count = _CKPT_META.unpack(reader.take(_CKPT_META.size))
    if shard != shard_id:
        raise IntegrityError(f"checkpoint belongs to shard {shard}, not {shard_id}")
    if node_store != NODESTORE_VERSION:
        raise IntegrityError(f"checkpoint holds node-store version {node_store}")
    trees = [(reader.text(U8), reader.uint(4)) for _ in range(count)]
    objects = [_read_object(wire) for wire in reader.blobs(U32, reader.uint(4))]
    reader.finish()
    keywords = [keyword for keyword, _ in trees]
    ids = [obj.object_id for obj in objects]
    if keywords != sorted(set(keywords)) or ids != sorted(set(ids)):
        raise IntegrityError("checkpoint trees or objects are not in ascending order")
    return trees, objects


class DiskShardEngine(IndexShardEngine):
    """An engine fronted by an append-only binary segment log.

    Every confirmed batch of ops is appended to
    ``<directory>/shard-NNN.journal`` after it is applied, as one record:
    ``u32`` body length, CRC-32 of the body, then each op's ``u8`` tag
    and values at their wire widths (:func:`_encode_ops`).  The journal
    opens with a header record (magic, version, epoch, CRC-32), written
    with its first append or when compaction swaps in a fresh journal.
    Reopening decodes each record strictly back into ops
    (:func:`_read_ops`, through :class:`~repro.core.wire.Reader`) and
    applies them through the same dispatch (:meth:`_apply`, which never
    journals), rebuilding byte-identical tree state — the recovery model
    of :mod:`repro.core.persistence`, scoped to one shard.  A JSONL
    journal of an older build (``shard-NNN.jsonl``) is refused.

    Checkpoints and compaction
    --------------------------
    :meth:`snapshot` writes ``shard-NNN.ckpt``: a header, a metadata
    block (shard, node-store version, each tree's keyword and blob
    length, each object's encoding), the tree blobs verbatim and a SHA-3
    digest.  It then swaps in a fresh journal, so restart is one mmap'd
    read plus a (normally empty) journal suffix.  Checkpoints and
    journals carry an *epoch* number tying them together:

    * journal epoch == checkpoint epoch: normal restart — load the
      checkpoint, replay the suffix;
    * journal epoch < checkpoint epoch: a crash hit between checkpoint
      rename and journal swap; the checkpoint already covers every
      journaled record, so the stale journal is discarded and the swap
      finished;
    * a ``*.tmp`` file is always a torn write and is removed;
    * a checkpoint that fails its digest or does not decode is
      recoverable only when the journal still holds full history
      (epoch 0).

    Every rename is followed by a directory fsync so a crash cannot
    resurrect the superseded file.
    """

    def __init__(
        self,
        shard_id: int,
        index_factory: Callable[[], object],
        directory: str | Path,
    ) -> None:
        super().__init__(shard_id, index_factory)
        # ``None``: a Merkle index, whose journal holds entries and never
        # a group element.
        self._value_bytes = getattr(self.index, "value_bytes", None)
        self.directory = Path(directory)
        self.path = self.directory / f"shard-{shard_id:03d}.journal"
        self.checkpoint_path = self.directory / f"shard-{shard_id:03d}.ckpt"
        self.directory.mkdir(parents=True, exist_ok=True)
        self._log = None
        self.epoch = 0
        self._recover()
        self._log = self.path.open("ab")
        # A journal gets its header with its first append.
        self._head = b"" if self._log.tell() else _journal_head(self.epoch)

    # -- recovery ----------------------------------------------------------------

    def _recover(self) -> None:
        """Reassemble state from checkpoint + journal (see class docs)."""
        legacy = self.path.with_suffix(".jsonl")
        if legacy.exists():
            raise IntegrityError(
                f"{legacy.name} is a JSON journal of an older build; "
                "rebuild the shard from the data owner's objects"
            )
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
        """The journal's epoch, from its header record: 0 for an empty
        journal or one whose first append was torn inside the header;
        anything else but a whole header of this version is refused."""
        with self.path.open("rb") as fh:
            head = fh.read(_JOURNAL_HEAD_SIZE)
        if len(head) < _JOURNAL_HEAD_SIZE and _journal_head(0).startswith(head):
            return 0
        magic, version, epoch = _JOURNAL_START.unpack_from(
            head.ljust(_JOURNAL_HEAD_SIZE)
        )
        if magic != JOURNAL_MAGIC:
            raise IntegrityError(f"{self.path.name} is not a shard journal")
        start, checksum = head[: _JOURNAL_START.size], head[_JOURNAL_START.size :]
        if checksum != U32.pack(zlib.crc32(start)):
            raise IntegrityError(f"{self.path.name} has a corrupt header")
        if version != JOURNAL_VERSION:
            raise IntegrityError(f"unsupported journal version {version}")
        return epoch

    def _replay(self) -> None:
        """Stream-replay the segment log, truncating a torn tail record.

        Read record by record, so replay memory is O(record).  A crash
        mid-append leaves a final record cut short, or one whose checksum
        fails (the page holding its prefix may not have hit disk): the
        torn tail of an *unconfirmed* append, dropped by truncating the
        file to the last good record.  A failing checksum with bytes
        after it is real corruption and raises, and so does a record that
        passes its checksum but does not decode: skipping records would
        desynchronise the shard from the on-chain digests.
        """
        size = self.path.stat().st_size
        good_end = 0
        with self.path.open("rb") as fh:
            if size >= _JOURNAL_HEAD_SIZE:  # else a header torn at creation
                good_end = fh.seek(_JOURNAL_HEAD_SIZE)
            while good_end:
                frame = fh.read(_FRAME.size)
                if len(frame) < _FRAME.size:
                    break  # the end, or a torn record head
                length, checksum = _FRAME.unpack(frame)
                body = fh.read(length)
                if len(body) < length:
                    break  # torn append
                if zlib.crc32(body) != checksum:
                    if fh.tell() == size:
                        break  # torn final record: truncate before it
                    raise ReproError(
                        f"corrupt journal record at {self.path.name}+{good_end}"
                    )
                try:
                    ops = _read_ops(body, self._value_bytes)
                except ReproError as exc:
                    raise IntegrityError(
                        f"journal record at {self.path.name}+{good_end}: {exc}"
                    ) from None
                for op in ops:
                    self._apply(op)
                good_end = fh.tell()
        if good_end < size:
            os.truncate(self.path, good_end)

    # -- journaling --------------------------------------------------------------

    def _journal_many(self, ops: list[ShardOp]) -> None:
        # One record, one write call + flush for the whole batch.
        if self._log is not None and ops:
            body = _encode_ops(ops, self._value_bytes)
            self._log.write(
                self._head + _FRAME.pack(len(body), zlib.crc32(body)) + body
            )
            self._head = b""
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
        with tmp.open("wb") as fh:
            fh.write(_journal_head(self.epoch))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._fsync_dir()

    # -- checkpoints -------------------------------------------------------------

    def _serialise_state(self, epoch: int) -> bytes:
        """One self-validating buffer holding the whole engine state.

        Tree state is the flat-buffer blobs verbatim — writing a
        checkpoint is a header, one metadata block, and a concatenation
        of buffers already sitting in memory.  The trailing SHA-3 digest
        makes torn or bit-rotted checkpoints detectable before any of
        their state is adopted.
        """
        keywords = sorted(self.index.trees)
        blobs = [self.index.trees[keyword].to_blob() for keyword in keywords]
        meta = bytearray(_CKPT_META.pack(self.shard_id, NODESTORE_VERSION, len(blobs)))
        for keyword, blob in zip(keywords, blobs):
            _put_keyword(meta, keyword)
            meta += U32.pack(len(blob))
        object_ids = self.store.all_ids()
        meta += U32.pack(len(object_ids))
        for object_id in object_ids:
            wire = self.store.get(object_id).encoded()
            meta += U32.pack(len(wire))
            meta += wire
        body = (
            _CKPT_HEAD.pack(CKPT_MAGIC, CKPT_VERSION, epoch, len(meta))
            + meta
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
        self._log = self.path.open("ab")
        self._head = b""
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
            if offset + meta_len > len(mapped) - 32:
                raise IntegrityError("checkpoint metadata runs past the file")
            try:
                tree_lengths, objects = _read_ckpt_meta(
                    mapped[offset : offset + meta_len], self.shard_id
                )
            except ReproError as exc:
                raise IntegrityError(f"checkpoint metadata: {exc}") from None
            offset += meta_len
            if offset + sum(length for _, length in tree_lengths) != len(mapped) - 32:
                raise IntegrityError("checkpoint tree blobs do not fill the file")
            # The index's family decides the tree type; a blob of the
            # other one fails its kind check.
            from_blob = (
                MBTree.from_blob if self._value_bytes is None else ChameleonTreeSP.from_blob
            )
            trees: dict[str, Any] = {}
            with memoryview(mapped) as view:
                for keyword, blob_len in tree_lengths:
                    with view[offset : offset + blob_len] as blob:
                        trees[keyword] = from_blob(blob)
                    offset += blob_len
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
        journal_before = self.path.stat().st_size
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
        return IndexShardEngine(shard_id, index_factory)
    if kind == "disk":
        if directory is None:
            raise ParameterError(
                "engine='disk' requires an engine directory"
            )
        return DiskShardEngine(shard_id, index_factory, directory)
    raise ParameterError(
        f"unknown engine {kind!r}; expected one of: " + ", ".join(ENGINE_KINDS)
    )


def holds_shard_state(directory: str | Path) -> bool:
    """Whether any shard journal or checkpoint under ``directory`` holds bytes."""
    return any(path.stat().st_size for path in Path(directory).glob("shard-*"))


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
