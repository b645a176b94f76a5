"""A shard journal decodes strictly: a mutated record is refused, typed.

A disk shard replays its journal on open, so every record is read back
through :func:`repro.core.objects.record_to_object` (an ``object`` op),
the insertion-proof decoder (a Chameleon ``apply`` op) or the entry
decoder (a Merkle ``entry`` op).  Each field of one record of each op —
and the record itself — is replaced by a value of
the wrong type, width or form, the journal rewritten and the shard
reopened: every reopen must fail with a :class:`ReproError` (any other
exception propagates and fails the test), so no mutated value is ever
taken for the one written.  The checks raise on their own, so they hold
under ``python -O`` too.
"""

from __future__ import annotations

import json

import pytest

from repro import DataObject, HybridStorageSystem
from repro.core.chameleon_index import ChameleonSP
from repro.core.merkle_family import MerkleInvertedSP
from repro.crypto.hashing import sha3
from repro.errors import IntegrityError, ReproError
from repro.sp.engine import _CKPT_HEAD, DiskShardEngine

#: Marks a field to delete instead of replacing.
MISSING = object()


def uint_mutants(value: int, bits: int = 64) -> list:
    """Wrong values for a ``bits``-bit unsigned field holding ``value``."""
    return [float(value), True, str(value), -1, 1 << bits, None, [value], MISSING]


def hex_mutants(text: str) -> list:
    """Wrong values for a field holding a digest's hex ``text``."""
    return [
        text.upper(),
        "0x" + text,
        text[:-2],
        text + "00",
        text[:4] + " " + text[5:],
        text[:-1] + "g",
        "",
        int(text, 16),
        None,
        MISSING,
    ]


def element_mutants(text: str, value_bytes: int) -> list:
    """Wrong values for a field holding a group element's hex ``text``."""
    return [
        text.upper(),
        "0x" + text,
        "0" + text,
        "1" + "0" * (2 * value_bytes),
        "-" + text,
        " " + text,
        text[:3] + "_" + text[3:],
        "",
        int(text, 16),
        None,
        MISSING,
    ]


def require(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(what)


@pytest.fixture(scope="module", params=["ci", "smi"])
def journal(request, tmp_path_factory):
    """A one-shard journal of the scheme: its records, the index factory
    and the group-element width."""
    directory = tmp_path_factory.mktemp(request.param)
    system = HybridStorageSystem(
        scheme=request.param, seed=3, cvc_modulus_bits=512, engine="disk",
        engine_dir=directory,
    )
    system.add_objects(
        [DataObject(oid, ("a", "b") if oid % 2 else ("a",), b"x%d" % oid)
         for oid in range(1, 5)]
    )
    index = system.sp_index
    if isinstance(index, ChameleonSP):
        pp = index.pp
        factory = lambda: ChameleonSP(pp=pp)  # noqa: E731
    else:
        fanout = index.fanout
        factory = lambda: MerkleInvertedSP(fanout=fanout)  # noqa: E731
    value_bytes = system.value_bytes
    system.close()
    lines = (directory / "shard-000.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines], factory, value_bytes


def reopen(tmp_path, records, factory) -> None:
    """Write ``records`` as a shard journal and open the shard over it."""
    (tmp_path / "shard-000.jsonl").write_text(
        "".join(json.dumps(record) + "\n" for record in records)
    )
    engine = DiskShardEngine(0, factory, tmp_path)
    engine.close()


def mutated(record: dict, path: tuple[str, ...], value) -> dict:
    """A deep copy of ``record`` with the field at ``path`` replaced."""
    record = json.loads(json.dumps(record))
    parent = record
    for name in path[:-1]:
        parent = parent[name]
    if value is MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return record


def cases(records, value_bytes):
    """``(label, index, mutated record)`` for each field of the first
    ``object`` record and the first ``apply`` or ``entry`` record, and
    for those records."""
    first = {}
    for index, record in enumerate(records):
        first.setdefault(record["op"], index)
    if "entry" in first:
        at = first["entry"]
        entry = records[at]
        for value in uint_mutants(entry["id"]):
            yield f"entry id {value!r}", at, mutated(entry, ("id",), value)
        for value in hex_mutants(entry["hash"]):
            yield f"entry hash {value!r}", at, mutated(entry, ("hash",), value)
        for value in (5, None, MISSING):
            yield f"entry kw {value!r}", at, mutated(entry, ("kw",), value)
        for value in ([entry], None, "entry", 7):
            yield f"record {value!r}", at, value
    at = first["object"]
    obj = records[at]
    for value in uint_mutants(obj["id"]):
        yield f"object id {value!r}", at, mutated(obj, ("id",), value)
    for value in ("eDE", "eD!=", "eDF=", " eDE=", "eDE=\n", 5, None, MISSING):
        yield f"object content {value!r}", at, mutated(obj, ("content",), value)
    for value in ("a", ["A", "b"], ["a", "a", "b"], [" a", "b"], ["a", 1], [""], None, MISSING):
        yield f"object keywords {value!r}", at, mutated(obj, ("keywords",), value)
    if "apply" not in first:
        return
    at = first["apply"]
    apply = records[at]
    proof = apply["proof"]
    for name in ("position", "object_id", "parent_position"):
        for value in uint_mutants(proof[name]):
            yield f"proof {name} {value!r}", at, mutated(apply, ("proof", name), value)
    for value in uint_mutants(proof["child_index"], 8):
        yield f"proof child_index {value!r}", at, mutated(
            apply, ("proof", "child_index"), value
        )
    for value in hex_mutants(proof["object_hash"]):
        yield f"proof object_hash {value!r}", at, mutated(
            apply, ("proof", "object_hash"), value
        )
    for name in ("commitment", "opening", "parent_opening"):
        for value in element_mutants(proof[name], value_bytes):
            yield f"proof {name} {value!r}", at, mutated(
                apply, ("proof", name), value
            )
    for value in (5, None, "zzz", MISSING):
        yield f"apply kw {value!r}", at, mutated(apply, ("kw",), value)
    for value in ([1], None, "proof", MISSING):
        yield f"apply proof {value!r}", at, mutated(apply, ("proof",), value)
    for value in ([apply], None, "apply", 7):
        yield f"record {value!r}", at, value


def test_every_mutated_field_is_refused_with_a_typed_error(journal, tmp_path):
    records, factory, value_bytes = journal
    reopen(tmp_path, records, factory)  # the honest journal opens
    refused = 0
    for label, index, record in cases(records, value_bytes):
        mutant = list(records)
        mutant[index] = record
        try:
            reopen(tmp_path, mutant, factory)
        except ReproError:
            refused += 1
            continue
        raise AssertionError(f"{label} was accepted")
    require(refused > 35, f"only {refused} mutants ran")


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


def edited(meta: dict, edit) -> bytes:
    """``meta`` after ``edit`` changed a deep copy of it, as JSON bytes:
    ``edit`` returns a replacement, or ``None`` after editing in place."""
    meta = json.loads(json.dumps(meta))
    meta = edit(meta) or meta
    return json.dumps(meta).encode()


def without(name: str):
    """An edit dropping field ``name`` of the metadata."""
    return lambda meta: {key: value for key, value in meta.items() if key != name}


def first_tree(make):
    """An edit replacing the first ``[keyword, length]`` tree entry with
    ``make(keyword, length)``."""

    def edit(meta):
        meta["trees"][0] = make(*meta["trees"][0])

    return edit


class TestCheckpointMetadataFailsClosed:
    """A checkpoint's digest proves it is whole, not that its metadata is
    well formed: a re-sealed checkpoint whose metadata block is not the
    JSON object a checkpoint writes — or whose header claims more
    metadata than the file holds — is refused with an
    :class:`IntegrityError` on reopen, never an untyped error."""

    #: label -> edit of the metadata (see :func:`edited`).
    EDITS = {
        "metadata a list": lambda meta: [meta],
        "metadata a string": lambda meta: "meta",
        "no trees": without("trees"),
        "no objects": without("objects"),
        "trees not a list": lambda meta: meta.update(trees={"kw0": 1}),
        "objects not a list": lambda meta: meta.update(objects="none"),
        "blob length a string": first_tree(lambda keyword, length: [keyword, str(length)]),
        "blob length a bool": first_tree(lambda keyword, length: [keyword, True]),
        "blob length negative": first_tree(lambda keyword, length: [keyword, -1]),
        "tree entry a string": first_tree(lambda keyword, length: keyword),
        "tree entry a number": first_tree(lambda keyword, length: 5),
        "tree entry of one": first_tree(lambda keyword, length: [keyword]),
        "tree entry of three": first_tree(lambda keyword, length: [keyword, length, 0]),
        "tree keyword a number": first_tree(lambda keyword, length: [5, length]),
        "object record a list": lambda meta: meta["objects"].append([1]),
    }

    @pytest.fixture
    def checkpointed(self, tmp_path):
        """A compacted one-shard Merkle store: its checkpoint path and
        metadata."""
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
        meta = json.loads(blob[_CKPT_HEAD.size : _CKPT_HEAD.size + meta_len])
        return path, meta

    def reopen(self, path) -> None:
        engine = DiskShardEngine(0, lambda: MerkleInvertedSP(fanout=4), path.parent)
        engine.close()

    def test_the_honest_checkpoint_opens(self, checkpointed):
        path, meta = checkpointed
        reseal(path, edited(meta, lambda meta: None))
        self.reopen(path)

    @pytest.mark.parametrize("label", sorted(EDITS))
    def test_malformed_metadata_is_refused(self, checkpointed, label):
        path, meta = checkpointed
        reseal(path, edited(meta, self.EDITS[label]))
        with pytest.raises(IntegrityError):
            self.reopen(path)

    @pytest.mark.parametrize(
        "raw", [b"\xff\xfe\x00{", b"{\"shard\": 0", b""], ids=["utf8", "json", "empty"]
    )
    def test_metadata_that_is_not_json_is_refused(self, checkpointed, raw):
        path, _ = checkpointed
        reseal(path, raw)
        with pytest.raises(IntegrityError):
            self.reopen(path)

    def test_metadata_length_past_the_file_is_refused(self, checkpointed):
        path, meta = checkpointed
        meta_bytes = edited(meta, lambda meta: None)
        reseal(path, meta_bytes, meta_len=len(path.read_bytes()))
        with pytest.raises(IntegrityError):
            self.reopen(path)
