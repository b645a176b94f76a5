"""Data objects and on-chain meta-data (Section II-B system model).

Each data object is a tuple ``o_i = <id, {w_j}, v>``: a monotonically
increasing integer ID, a set of keywords, and the raw content.  The data
owner sends the full object to the SP and only the meta-data
``<id, {w_j}, h(o_i)>`` to the blockchain.
"""

from __future__ import annotations

import base64
import struct
from dataclasses import dataclass, field

from repro.core.wire import U32
from repro.crypto.hashing import tagged_hasher
from repro.errors import DatasetError, IntegrityError, ReproError


#: Maximum keyword size in UTF-8 bytes.  The canonical encoding stores
#: each keyword behind a one-byte length prefix, so this is a protocol
#: limit, not a tunable; it is enforced at ingestion so an over-long
#: keyword can never reach the encoder.
MAX_KEYWORD_BYTES = 255

#: ``id(8) || n_keywords(2)``, the fixed head of an object's encoding.
_HEAD = struct.Struct(">QH")

#: SHA3 state seeded with the ``"data-object"`` tag; copied per object.
_HASHER = tagged_hasher("data-object")


def normalise_keyword(keyword: str) -> str:
    """Canonical keyword form: stripped, lower-cased, non-empty, ≤255 bytes.

    NUL is refused: the on-chain record
    (:meth:`ObjectMetadata.payload_bytes`) separates keywords with it,
    so a keyword holding one would make ``("a\\0b",)`` and
    ``("a", "b")`` the same record.
    """
    cleaned = keyword.strip().lower()
    if not cleaned:
        raise DatasetError("keywords must be non-empty")
    if "\x00" in cleaned:
        raise DatasetError("keywords must not contain NUL")
    encoded_len = len(cleaned.encode("utf-8"))
    if encoded_len > MAX_KEYWORD_BYTES:
        raise DatasetError(
            f"keyword is {encoded_len} UTF-8 bytes; the wire protocol "
            f"limits keywords to {MAX_KEYWORD_BYTES} bytes"
        )
    return cleaned


@dataclass(frozen=True)
class DataObject:
    """A raw data object held off-chain by the SP.

    ``object_id`` plays the role of the paper's monotonically increasing
    32-bit identifier (e.g. a transaction timestamp); ``keywords`` are
    already stop-word-filtered; ``content`` is the opaque payload.

    An object has one canonical encoding (:meth:`encoded`), built once;
    it is what the SP ships and what ``h(o)`` is taken over.  An object
    that arrived as bytes (:meth:`from_wire`, :meth:`deferred`) keeps
    exactly those bytes as its encoding.
    """

    object_id: int
    keywords: tuple[str, ...]
    content: bytes

    def __post_init__(self) -> None:
        if self.object_id < 0:
            raise DatasetError("object IDs are non-negative")
        normalised = tuple(dict.fromkeys(normalise_keyword(w) for w in self.keywords))
        object.__setattr__(self, "keywords", normalised)

    def encoded(self) -> bytes:
        """``id(8) || n(2) || (len(1) keyword)* || len(4) || content``.

        Every variable-length part sits behind its length, so the
        encoding is injective: two objects that differ in any field, or
        in where one field ends and the next begins, differ in bytes.
        """
        try:
            return self._wire
        except AttributeError:
            pass
        try:
            parts = [_HEAD.pack(self.object_id, len(self.keywords))]
            tail = U32.pack(len(self.content))
        except struct.error:
            raise DatasetError(
                "object ID, keyword count or content length exceeds the "
                "encoding's fixed-width fields"
            ) from None
        for keyword in self.keywords:
            blob = keyword.encode("utf-8")
            if len(blob) > MAX_KEYWORD_BYTES:
                # Ingestion already enforces this; re-checked so a rogue
                # object raises a library error, not a ValueError from
                # the one-byte length prefix.
                raise ReproError(
                    f"keyword is {len(blob)} UTF-8 bytes; the wire "
                    f"format caps keywords at {MAX_KEYWORD_BYTES} bytes"
                )
            parts.append(bytes((len(blob),)))
            parts.append(blob)
        parts.append(tail)
        parts.append(self.content)
        wire = b"".join(parts)
        object.__setattr__(self, "_wire", wire)
        return wire

    @classmethod
    def deferred(cls, wire: bytes) -> "DataObject":
        """An object over an encoding whose fields are read on demand.

        Only the ID is read; keywords and content are parsed — by the
        routine :meth:`from_wire` uses, failing closed the same way —
        the first time one is asked for.  It wraps two kinds of bytes:
        the SP's own plumbing (a shard worker's reply), where that is
        never, and the objects of an answer the client received, whose
        fields are read only by the caller after ``verify_query`` has
        matched their ``h(o)`` to the proven digest and tested the query
        on the encoding itself (:func:`encoding_satisfies`).
        """
        try:
            object_id, _ = _HEAD.unpack_from(wire)
        except struct.error:
            raise ReproError("truncated object encoding") from None
        obj = object.__new__(cls)
        fields = obj.__dict__
        fields["object_id"] = object_id
        fields["_wire"] = wire
        return obj

    @classmethod
    def from_wire(cls, wire: bytes) -> "DataObject":
        """Parse an object received as bytes; malformed ones raise.

        The fields are read strictly (every length honoured, nothing
        left over, keywords UTF-8) but *not* re-normalised: a keyword
        that is not in canonical form, or is listed twice, is kept as
        sent.  Such an object is not one the data owner encoded, so a
        caller that needs canonical objects checks for it — the shard
        journal's decoder re-normalises, and the client never parses
        before ``h(o)`` has matched (:meth:`deferred`).
        """
        obj = object.__new__(cls)
        fields = vars(obj)
        fields["object_id"], fields["keywords"], fields["content"] = _fields(wire)
        fields["_wire"] = wire
        return obj

    def __reduce__(self):
        # Pickled as its canonical bytes, unparsed on the other side: a
        # shard worker's ``get_objects`` reply ships just the encodings.
        # One bound-method object for every call, so a reply pickles the
        # constructor once and refers back to it per object.
        return (_DEFERRED, (self.encoded(),))

    def __getattr__(self, name: str):
        # Only reached for a name the instance lacks: the unparsed
        # fields of a :meth:`deferred` object.
        fields = vars(self)
        if name in ("keywords", "content") and "_wire" in fields:
            _, fields["keywords"], fields["content"] = _fields(fields["_wire"])
            return fields[name]
        raise AttributeError(name)

    def digest(self) -> bytes:
        """``h(o_i)``: the tagged hash of the canonical encoding."""
        return encoding_digest(self.encoded())

    def keyword_set(self) -> frozenset[str]:
        """The object's keywords as a frozen set."""
        return frozenset(self.keywords)

_DEFERRED = DataObject.deferred


def _fields(wire: bytes) -> tuple[int, tuple[str, ...], bytes]:
    """``(id, keywords, content)`` of an object encoding, in one pass.

    Offsets into the bytes, no per-field reader calls: an answer holds
    hundreds of objects.  A length that overruns the buffer either fails
    an unpack below or breaks the final equality.
    """
    try:
        object_id, n_keywords = _HEAD.unpack_from(wire)
        pos = _HEAD.size
        keywords = []
        for _ in range(n_keywords):
            end = pos + 1 + wire[pos]
            keywords.append(wire[pos + 1 : end].decode())
            pos = end
        (length,) = U32.unpack_from(wire, pos)
    except (IndexError, struct.error):
        raise ReproError("truncated object encoding") from None
    except UnicodeDecodeError:
        raise ReproError("keyword in object encoding is not UTF-8") from None
    pos += U32.size
    if pos + length != len(wire):
        raise ReproError("object encoding does not end with its content")
    return object_id, tuple(keywords), wire[pos:]


def encoding_digest(wire: bytes) -> bytes:
    """``h(o)`` of an object's encoding: its tagged SHA3 hash."""
    hasher = _HASHER.copy()
    hasher.update(wire)
    return hasher.digest()


def encoding_satisfies(
    wire: bytes, conjunctions: tuple[frozenset[bytes], ...], wanted: frozenset[bytes]
) -> bool:
    """Whether a canonical encoding carries every keyword of one of
    ``conjunctions`` — a DNF query's keywords as UTF-8, ``wanted`` their
    union — without decoding a keyword or building the keyword set.

    The walk follows the length prefixes, so a query keyword matches a
    whole keyword only: never one inside another, across a prefix or in
    the content; it stops at the first keyword that completes a
    conjunction.  It trusts the prefixes, so ``wire`` must be known to
    be canonical — the client calls it only once the bytes have hashed
    to their proven ``h(o)``.
    """
    pos = _HEAD.size
    found: set[bytes] = set()
    for _ in range(wire[8] << 8 | wire[9]):
        end = pos + 1 + wire[pos]
        keyword = wire[pos + 1 : end]
        if keyword in wanted:
            found.add(keyword)
            for conj in conjunctions:
                if conj <= found:
                    return True
        pos = end
    return False


def object_to_record(obj: DataObject) -> dict:
    """The JSON record of an object, as the data owner's
    ``objects.jsonl`` stores it (shard journals and checkpoints hold
    :meth:`DataObject.encoded` instead)."""
    return {
        "id": obj.object_id,
        "keywords": list(obj.keywords),
        "content": base64.b64encode(obj.content).decode("ascii"),
    }


def record_to_object(record: dict) -> DataObject:
    """Inverse of :func:`object_to_record`, failing closed.

    The ID is a 64-bit ``int`` (not a ``bool`` or a ``float``), the
    keywords a list of strings in their normal form, the content
    canonical base64: a record that is not a JSON object, lacks a field
    or holds anything else is an :class:`IntegrityError`, so no other
    value is taken for the one written.
    """
    if not isinstance(record, dict):
        raise IntegrityError("object record is not a JSON object")
    object_id = record.get("id")
    if type(object_id) is not int or object_id < 0 or object_id >> 64:
        raise IntegrityError(f"object record's ID {object_id!r} is not a 64-bit uint")
    keywords = record.get("keywords")
    content = record.get("content")
    try:
        "".join(keywords)  # refuses anything but strings
    except TypeError:
        keywords = None
    if type(keywords) is not list:
        raise IntegrityError(f"object {object_id}'s keywords are not strings")
    if not isinstance(content, str):
        raise IntegrityError(f"object {object_id}'s content is not base64 text")
    try:
        raw = base64.b64decode(content, validate=True)
    except ValueError:
        raise IntegrityError(f"object {object_id}'s content is not base64") from None
    if base64.b64encode(raw).decode("ascii") != content:
        raise IntegrityError(f"object {object_id}'s content is not canonical base64")
    try:
        obj = DataObject(object_id=object_id, keywords=tuple(keywords), content=raw)
    except ReproError as exc:
        raise IntegrityError(f"object {object_id}: {exc}") from exc
    if list(obj.keywords) != keywords:
        raise IntegrityError(f"object {object_id}'s keywords are not normalised")
    return obj


@dataclass(frozen=True)
class ObjectMetadata:
    """The on-chain record ``<id, {w_j}, h(o_i)>`` sent by the DO."""

    object_id: int
    keywords: tuple[str, ...]
    object_hash: bytes

    @classmethod
    def of(cls, obj: DataObject) -> "ObjectMetadata":
        """Build the on-chain meta-data record for an object."""
        return cls(
            object_id=obj.object_id,
            keywords=obj.keywords,
            object_hash=obj.digest(),
        )

    def payload_bytes(self) -> bytes:
        """Wire encoding whose length is charged as ``C_txdata``."""
        keyword_blob = b"\x00".join(w.encode("utf-8") for w in self.keywords)
        return (
            self.object_id.to_bytes(8, "big")
            + len(self.keywords).to_bytes(2, "big")
            + keyword_blob
            + self.object_hash
        )


@dataclass
class ObjectStore:
    """The SP's raw-object repository, addressable by ID."""

    _objects: dict[int, DataObject] = field(default_factory=dict)

    def put(self, obj: DataObject) -> None:
        """Store one item."""
        if obj.object_id in self._objects:
            raise DatasetError(
                f"object {obj.object_id} already stored; objects are immutable"
            )
        self._objects[obj.object_id] = obj

    def get(self, object_id: int) -> DataObject:
        """Fetch one item by ID."""
        try:
            return self._objects[object_id]
        except KeyError as exc:
            raise DatasetError(f"no object with ID {object_id}") from exc

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._objects

    def all_ids(self) -> list[int]:
        """All stored object IDs in ascending order."""
        return sorted(self._objects)
