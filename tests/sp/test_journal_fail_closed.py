"""A shard journal or checkpoint that was not written whole is refused,
typed, or reopens to a state the shard really had.

A disk shard replays its journal on open, so every byte of it is read
back through the journal decoder.  A two-batch journal of each index
family is mutated three ways and the shard reopened over each mutant:

* every byte flipped, and the journal cut at every offset: the reopen
  either raises a :class:`ReproError` or holds exactly the state after
  the first ``k`` batches (a torn tail dropped) — never another state;
* re-sealed structural mutations — a record whose checksum holds but
  whose body is not one the engine writes (an unknown tag, a keyword
  length past the record or not UTF-8, an object that does not
  re-encode to itself, trailing bytes): always a :class:`ReproError`;
* an op of the other index family (a ``register`` or ``apply`` in a
  Merkle shard's journal, an ``entry`` in a Chameleon one's), written by
  the engine's own encoder: an :class:`IntegrityError`.

A checkpoint's digest proves it whole, not well formed, so its metadata
block is re-sealed after each edit and must be refused with an
:class:`IntegrityError`.  Every check raises on its own, so they hold
under ``python -O`` too.  Tier-1 runs the flips and cuts at a seeded
sample of offsets; ``REPRO_FULL_SWEEPS=1`` (the CI step with asserts
compiled out) runs every offset.
"""

from __future__ import annotations

import copy
import os
import random
import struct

import pytest

from repro import DataObject, HybridStorageSystem
from repro.core.chameleon import InsertionProof
from repro.core.chameleon_index import ChameleonSP
from repro.core.merkle_family import MerkleInvertedSP
from repro.crypto.hashing import sha3
from repro.errors import IntegrityError, ReproError
from repro.sp.engine import _CKPT_HEAD, DiskShardEngine

from tests import journal_records

#: Offsets of each sweep run in tier-1; every offset under the env flag.
SAMPLE = None if os.environ.get("REPRO_FULL_SWEEPS") == "1" else 96

BATCHES = (
    [DataObject(oid, ("a", "b") if oid % 2 else ("a",), b"x%d" % oid) for oid in (1, 2, 3)],
    [DataObject(4, ("a", "c"), b"x4"), DataObject(5, ("b",), b"")],
)


def require(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(what)


def state_of(engine) -> tuple:
    """Everything a shard holds: each tree's node-store bytes and each
    object's encoding."""
    return (
        {keyword: bytes(tree.to_blob()) for keyword, tree in engine.index.trees.items()},
        {oid: engine.get_object(oid).encoded() for oid in engine.all_object_ids()},
    )


def factory_of(index):
    """A factory for empty indexes of ``index``'s kind and parameters."""
    if isinstance(index, ChameleonSP):
        pp = index.pp
        return lambda: ChameleonSP(pp=pp)
    fanout = index.fanout
    return lambda: MerkleInvertedSP(fanout=fanout)


@pytest.fixture(scope="module", params=["ci", "smi"])
def journal(request, tmp_path_factory):
    """A one-shard journal of ``BATCHES``: its bytes, the index factory,
    the element width (``None`` for Merkle) and the state after each
    prefix of the journaled batches (an SMI object's spine read ships
    the ops before it, so one ingest batch may journal several)."""
    directory = tmp_path_factory.mktemp(request.param)
    system = HybridStorageSystem(
        scheme=request.param, seed=3, cvc_modulus_bits=512, engine="disk",
        engine_dir=directory,
    )
    engine = system._sp.pool.engines[0]
    states = [state_of(engine)]
    apply_ops = engine.apply_ops

    def recording(ops):
        # A batch is what one call journals as one record.
        applied = apply_ops(ops)
        if ops:
            states.append(state_of(engine))
        return applied

    engine.apply_ops = recording
    for batch in BATCHES:
        system.add_objects_batched(batch)
    factory = factory_of(system.sp_index)
    value_bytes = system.value_bytes if request.param == "ci" else None
    system.close()
    data = (directory / "shard-000.journal").read_bytes()
    return data, factory, value_bytes, states


def reopen(directory, data: bytes, factory):
    """The state of a shard opened over journal ``data``, or ``None``
    when the open is refused with a :class:`ReproError`."""
    (directory / "shard-000.journal").write_bytes(data)
    try:
        engine = DiskShardEngine(0, factory, directory)
    except ReproError:
        return None
    try:
        return state_of(engine)
    finally:
        engine.close()


def offsets(length: int, salt: int) -> list[int]:
    """Every offset below ``length``, or a seeded sample of them."""
    every = list(range(length))
    if SAMPLE is None or SAMPLE >= length:
        return every
    return sorted(random.Random(length * 31 + salt).sample(every, SAMPLE))


def test_the_honest_journal_reopens_to_the_last_batch(journal, tmp_path):
    data, factory, _, states = journal
    require(reopen(tmp_path, data, factory) == states[-1], "honest journal")
    require(len(journal_records.split(data)[1]) == len(states) - 1, "one record per batch")
    require(len(set(map(repr, states))) == len(states), "batches change the state")


def test_every_flipped_byte_is_refused_or_a_batch_prefix(journal, tmp_path):
    data, factory, _, states = journal
    refused = 0
    for at in offsets(len(data), 1):
        mutant = bytearray(data)
        mutant[at] ^= 0xFF
        state = reopen(tmp_path, bytes(mutant), factory)
        refused += state is None
        require(state is None or state in states[:-1], f"flip at {at} gave another state")
    require(refused, "no flip was refused")


def test_every_cut_is_refused_or_a_batch_prefix(journal, tmp_path):
    data, factory, _, states = journal
    seen = set()
    for at in offsets(len(data), 2):
        state = reopen(tmp_path, data[:at], factory)
        require(state is None or state in states[:-1], f"cut at {at} gave another state")
        seen.add(None if state is None else states.index(state))
    require(0 in seen, "no cut gave the empty shard")


def object_wire(object_id: int, keywords: list[bytes], content: bytes) -> bytes:
    """An object encoding written field by field, canonical or not."""
    return (
        struct.pack(">QH", object_id, len(keywords))
        + b"".join(bytes([len(keyword)]) + keyword for keyword in keywords)
        + struct.pack(">I", len(content))
        + content
    )


def structural_mutants(bodies: list[bytes], value_bytes):
    """``(label, record body)`` for bodies the engine never writes."""
    kind = "entry" if value_bytes is None else "register"
    tag = bytes([journal_records.TAGS[kind]])
    fields = bytes(40) if value_bytes is None else (7).to_bytes(value_bytes, "big")
    object_op = journal_records.object_op
    for unknown in (0, 5, 0x7F, 0xFF):
        yield f"unknown tag {unknown}", bytes([unknown]) + bodies[0]
    yield "keyword length past the record", tag + bytes([200]) + b"a" + fields[:2]
    yield "keyword length past the body", tag + b"\xff" + b"a" * 20
    yield "keyword not UTF-8", tag + b"\x02\xff\xfe" + fields
    yield "keyword cut", tag + b"\x01"
    yield "fields cut", tag + b"\x01a" + fields[:-1]
    yield "tag only", tag
    yield "object length past the record", object_op(object_wire(9, [b"a"], b"z"))[:-1]
    yield "object keyword upper case", object_op(object_wire(9, [b"A"], b"z"))
    yield "object keyword repeated", object_op(object_wire(9, [b"a", b"a"], b"z"))
    yield "object keyword padded", object_op(object_wire(9, [b" a"], b"z"))
    yield "object keyword empty", object_op(object_wire(9, [b""], b"z"))
    yield "object keyword not UTF-8", object_op(object_wire(9, [b"\xff"], b"z"))
    yield "object content length short", object_op(object_wire(9, [b"a"], b"z")[:-1] + b"zz")
    yield "object with trailing bytes", object_op(object_wire(9, [b"a"], b"z") + b"\x00")
    yield "object cut", object_op(object_wire(9, [b"a"], b"z"))[:6]
    for trailing in (b"\x00", b"\x01", tag, b"\x00" * 7):
        yield f"trailing bytes {trailing!r}", bodies[-1] + trailing
    yield "empty object op", object_op(b"")


def test_every_mutated_field_is_refused_with_a_typed_error(journal, tmp_path):
    data, factory, value_bytes, _ = journal
    epoch, bodies = journal_records.split(data)
    refused = 0
    for label, body in structural_mutants(bodies, value_bytes):
        for at in (1, len(bodies)):  # interior and final
            mutant = bodies[:at] + [body] + bodies[at:]
            journal_bytes = journal_records.header(epoch) + b"".join(
                map(journal_records.seal, mutant)
            )
            require(reopen(tmp_path, journal_bytes, factory) is None, f"{label} was accepted")
            refused += 1
    require(refused > 40, f"only {refused} mutants ran")


class TestCrossFamilyOps:
    """An op of the other index family is refused on replay with an
    :class:`IntegrityError`, never an untyped error: the journal is
    written by the engine's own encoder, then reopened under the other
    family's index."""

    @pytest.fixture(scope="class")
    def pp(self):
        system = HybridStorageSystem(scheme="ci", seed=3, cvc_modulus_bits=512)
        system.close()
        return system.sp_index.pp

    def one_record(self, directory, factory, op) -> None:
        engine = DiskShardEngine(0, factory, directory)
        engine._journal_many([op])
        engine.close()

    def proof(self):
        return InsertionProof(
            position=1, object_id=1, object_hash=bytes(32), commitment=5,
            opening=7, parent_opening=9, parent_position=0, child_index=1,
        )

    @pytest.mark.parametrize("kind", ["register", "apply"])
    def test_a_chameleon_op_in_a_merkle_journal(self, pp, tmp_path, kind):
        op = ("register", "a", 5) if kind == "register" else ("apply", "a", self.proof())
        self.one_record(tmp_path, lambda: ChameleonSP(pp=pp), op)
        with pytest.raises(IntegrityError):
            DiskShardEngine(0, lambda: MerkleInvertedSP(fanout=4), tmp_path)

    def test_an_entry_in_a_chameleon_journal(self, pp, tmp_path):
        op = ("entry", "a", 1, bytes(32))
        self.one_record(tmp_path, lambda: MerkleInvertedSP(fanout=4), op)
        with pytest.raises(IntegrityError):
            DiskShardEngine(0, lambda: ChameleonSP(pp=pp), tmp_path)


class TestKeywordsInNormalForm:
    """A journaled keyword that :func:`normalise_keyword` would change
    is refused with an :class:`IntegrityError`: replayed, it would build
    a tree no object's keywords can reach.  Each record is written by
    hand and is otherwise one the engine accepts."""

    #: Keywords an object can never carry, each a ``u8``-prefixed string.
    KEYWORDS = ("A b", " a", "a ", "kw\x00")

    @pytest.fixture(scope="class")
    def pp(self):
        system = HybridStorageSystem(scheme="ci", seed=3, cvc_modulus_bits=512)
        system.close()
        return system.sp_index.pp

    def width(self, pp) -> int:
        return (pp.modulus.bit_length() + 7) // 8

    def reopened(self, directory, factory, body: bytes):
        directory.mkdir(exist_ok=True)
        (directory / "shard-000.journal").write_bytes(
            journal_records.header(0) + journal_records.seal(body)
        )
        DiskShardEngine(0, factory, directory).close()

    def test_the_normal_form_reopens(self, pp, tmp_path):
        self.reopened(
            tmp_path,
            lambda: MerkleInvertedSP(fanout=4),
            journal_records.entry_op("a b", 1, bytes(32)),
        )
        register = bytes([journal_records.TAGS["register"]]) + journal_records.keyword("a b")
        self.reopened(
            tmp_path / "ci",
            lambda: ChameleonSP(pp=pp),
            register + (7).to_bytes(self.width(pp), "big"),
        )

    @pytest.mark.parametrize("text", KEYWORDS)
    def test_an_entry_keyword(self, tmp_path, text):
        with pytest.raises(IntegrityError, match="normal form"):
            self.reopened(
                tmp_path,
                lambda: MerkleInvertedSP(fanout=4),
                journal_records.entry_op(text, 1, bytes(32)),
            )

    @pytest.mark.parametrize("kind", ["register", "apply"])
    @pytest.mark.parametrize("text", KEYWORDS)
    def test_a_chameleon_keyword(self, pp, tmp_path, text, kind):
        width = self.width(pp)
        ops = [("register", (7).to_bytes(width, "big"))]
        if kind == "apply":
            ops.append(
                (
                    "apply",
                    struct.pack(">QQ", 1, 1) + bytes(32)
                    + b"".join(v.to_bytes(width, "big") for v in (5, 7, 9))
                    + struct.pack(">QB", 0, 1),
                )
            )
        body = b"".join(
            bytes([journal_records.TAGS[op]])
            + journal_records.keyword(text if op == kind else "a")
            + fields
            for op, fields in ops
        )
        with pytest.raises(IntegrityError, match="normal form"):
            self.reopened(tmp_path, lambda: ChameleonSP(pp=pp), body)


def reseal(path, meta_bytes: bytes, meta_len: int | None = None) -> None:
    """Replace a checkpoint's metadata block with ``meta_bytes`` (its
    header claiming ``meta_len`` bytes, if given) and re-seal the digest."""
    blob = path.read_bytes()
    magic, version, epoch, old_len = _CKPT_HEAD.unpack_from(blob, 0)
    body = (
        _CKPT_HEAD.pack(
            magic, version, epoch, len(meta_bytes) if meta_len is None else meta_len
        )
        + meta_bytes
        + blob[_CKPT_HEAD.size + old_len : -32]
    )
    path.write_bytes(body + sha3(body))


def parse_meta(raw: bytes) -> dict:
    """A version-3 metadata block's fields: ``u32`` shard, ``u16``
    node-store version, ``u32`` tree count, per tree a ``u8``-prefixed
    keyword and ``u32`` blob length, ``u32`` object count, per object a
    ``u32``-prefixed encoding."""
    shard, node_store, count = struct.unpack_from(">IHI", raw)
    pos, trees = 10, []
    for _ in range(count):
        end = pos + 1 + raw[pos]
        trees.append([raw[pos + 1 : end], struct.unpack_from(">I", raw, end)[0]])
        pos = end + 4
    (count,) = struct.unpack_from(">I", raw, pos)
    pos, objects = pos + 4, []
    for _ in range(count):
        (length,) = struct.unpack_from(">I", raw, pos)
        objects.append(raw[pos + 4 : pos + 4 + length])
        pos += 4 + length
    if pos != len(raw):
        raise AssertionError("metadata has trailing bytes")
    return {"shard": shard, "node_store": node_store, "trees": trees, "objects": objects}


def meta_bytes(meta: dict, tree_count=None, object_count=None, cut=None) -> bytes:
    """The block :func:`parse_meta` reads, with optional wrong counts,
    cut after the named section (``"head"``, ``"trees"``)."""
    trees, objects = meta["trees"], meta["objects"]
    head = struct.pack(">IH", meta["shard"], meta["node_store"])
    if cut == "head":
        return head
    out = head + struct.pack(">I", len(trees) if tree_count is None else tree_count)
    out += b"".join(bytes([len(kw)]) + kw + struct.pack(">I", length) for kw, length in trees)
    if cut == "trees":
        return out
    out += struct.pack(">I", len(objects) if object_count is None else object_count)
    return out + b"".join(struct.pack(">I", len(wire)) + wire for wire in objects)


def edit_meta(edit):
    """``edit(meta)`` on a copy of the parsed metadata, returning bytes:
    ``edit`` returns replacement bytes, or ``None`` after editing in place."""

    def apply(meta: dict) -> bytes:
        meta = copy.deepcopy(meta)
        return edit(meta) or meta_bytes(meta)

    return apply


def first_tree(make):
    """An edit replacing the first ``[keyword, length]`` tree entry with
    ``make(keyword, length)``."""

    def edit(meta):
        meta["trees"][0] = make(*meta["trees"][0])

    return edit


class TestCheckpointMetadataFailsClosed:
    """A checkpoint's digest proves it is whole, not that its metadata is
    well formed: a re-sealed checkpoint whose metadata block is not the
    one a checkpoint of this shard writes — or whose header claims more
    metadata than the file holds — is refused with an
    :class:`IntegrityError` on reopen, never an untyped error."""

    #: label -> edit of the metadata (see :func:`edit_meta`).
    EDITS = {
        "metadata of another shard": edit_meta(lambda meta: meta.update(shard=1)),
        "metadata of another node-store version": edit_meta(
            lambda meta: meta.update(node_store=meta["node_store"] + 1)
        ),
        "metadata cut inside its head": edit_meta(lambda meta: meta_bytes(meta)[:7]),
        "no tree count": edit_meta(lambda meta: meta_bytes(meta, cut="head")),
        "no objects": edit_meta(lambda meta: meta_bytes(meta, cut="trees")),
        "tree count past the entries": edit_meta(
            lambda meta: meta_bytes(meta, tree_count=len(meta["trees"]) + 1)
        ),
        "object count past the objects": edit_meta(
            lambda meta: meta_bytes(meta, object_count=len(meta["objects"]) + 1)
        ),
        "blob length cut short": edit_meta(
            lambda meta: meta_bytes(meta)[: 10 + 1 + len(meta["trees"][0][0]) + 2]
        ),
        "blob length one more": edit_meta(first_tree(lambda kw, length: [kw, length + 1])),
        "blob length past the file": edit_meta(first_tree(lambda kw, length: [kw, 2**32 - 1])),
        "tree keyword not UTF-8": edit_meta(first_tree(lambda kw, length: [b"\xff", length])),
        "tree keyword not in normal form": edit_meta(
            first_tree(lambda kw, length: [kw.upper(), length])
        ),
        "trees out of order": edit_meta(lambda meta: meta["trees"].reverse()),
        "objects out of order": edit_meta(lambda meta: meta["objects"].reverse()),
        "object repeated": edit_meta(lambda meta: meta["objects"].append(meta["objects"][0])),
        "object record not an object": edit_meta(lambda meta: meta["objects"].append(b"\x01")),
        "object not in canonical form": edit_meta(
            lambda meta: meta["objects"].append(object_wire(99, [b"KW0"], b"z"))
        ),
        "trailing bytes": edit_meta(lambda meta: meta_bytes(meta) + b"\x00"),
    }

    @pytest.fixture
    def checkpointed(self, tmp_path):
        """A compacted one-shard Merkle store: its checkpoint path and
        parsed metadata."""
        system = HybridStorageSystem(
            scheme="smi", seed=3, engine="disk", engine_dir=tmp_path
        )
        system.add_objects(
            [DataObject(oid, ("kw0", "kw1"), b"x%d" % oid) for oid in range(1, 4)]
        )
        system.compact()
        system.close()
        path = tmp_path / "shard-000.ckpt"
        blob = path.read_bytes()
        meta_len = _CKPT_HEAD.unpack_from(blob, 0)[3]
        meta = parse_meta(blob[_CKPT_HEAD.size : _CKPT_HEAD.size + meta_len])
        return path, meta

    def reopen(self, path) -> None:
        engine = DiskShardEngine(0, lambda: MerkleInvertedSP(fanout=4), path.parent)
        engine.close()

    def test_the_honest_checkpoint_opens(self, checkpointed):
        path, meta = checkpointed
        reseal(path, meta_bytes(meta))
        self.reopen(path)

    @pytest.mark.parametrize("label", sorted(EDITS))
    def test_malformed_metadata_is_refused(self, checkpointed, label):
        path, meta = checkpointed
        reseal(path, self.EDITS[label](meta))
        with pytest.raises(IntegrityError):
            self.reopen(path)

    @pytest.mark.parametrize(
        "raw", [b"\xff\xfe\x00{", b"{\"shard\": 0", b""], ids=["utf8", "json", "empty"]
    )
    def test_metadata_that_is_not_json_is_refused(self, checkpointed, raw):
        # Neither the binary block nor JSON: bytes that are not UTF-8,
        # a cut version-2 JSON block, nothing.
        path, _ = checkpointed
        reseal(path, raw)
        with pytest.raises(IntegrityError):
            self.reopen(path)

    def test_metadata_length_past_the_file_is_refused(self, checkpointed):
        path, meta = checkpointed
        reseal(path, meta_bytes(meta), meta_len=len(path.read_bytes()))
        with pytest.raises(IntegrityError):
            self.reopen(path)
