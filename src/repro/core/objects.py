"""Data objects and on-chain meta-data (Section II-B system model).

Each data object is a tuple ``o_i = <id, {w_j}, v>``: a monotonically
increasing integer ID, a set of keywords, and the raw content.  The data
owner sends the full object to the SP and only the meta-data
``<id, {w_j}, h(o_i)>`` to the blockchain.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.core.wire import U32
from repro.crypto.hashing import tagged_hasher
from repro.errors import DatasetError, ReproError


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
        """An object over bytes this program encoded itself.

        For the SP's own plumbing (a shard worker's reply): only the ID
        is read; keywords and content are parsed — as strictly as
        :meth:`from_wire` does — the first time one is asked for, which
        on the serving path is never.
        """
        if len(wire) < _HEAD.size:
            raise ReproError("truncated object encoding")
        obj = object.__new__(cls)
        vars(obj).update(object_id=int.from_bytes(wire[:8], "big"), _wire=wire)
        return obj

    @classmethod
    def from_wire(cls, wire: bytes) -> "DataObject":
        """Parse an object received as bytes; malformed ones raise.

        The fields are read strictly (every length honoured, nothing
        left over, keywords UTF-8) but *not* re-normalised: a keyword
        that is not in canonical form, or is listed twice, is kept as
        sent.  Such an object is not one the data owner hashed — its
        bytes differ from every canonical encoding — so the client's
        ``h(o)`` check against the proven digest, which precedes any
        use of the keywords, refuses it.
        """
        obj = cls.deferred(wire)
        obj._parse()
        return obj

    def _parse(self) -> None:
        # Offsets into the bytes, no per-field reader calls: an answer
        # holds hundreds of objects.  A length that overruns the buffer
        # either fails an unpack below or breaks the final equality.
        wire = self._wire
        try:
            _, n_keywords = _HEAD.unpack_from(wire)
            pos = _HEAD.size
            keywords = []
            for _ in range(n_keywords):
                end = pos + 1 + wire[pos]
                keywords.append(str(wire[pos + 1 : end], "utf-8"))
                pos = end
            (length,) = U32.unpack_from(wire, pos)
        except (IndexError, struct.error):
            raise ReproError("truncated object encoding") from None
        except UnicodeDecodeError:
            raise ReproError("keyword in object encoding is not UTF-8") from None
        pos += U32.size
        if pos + length != len(wire):
            raise ReproError("object encoding does not end with its content")
        vars(self).update(keywords=tuple(keywords), content=wire[pos:])

    def __getattr__(self, name: str):
        # Only reached for a name the instance lacks: the unparsed
        # fields of a :meth:`deferred` object.
        if name in ("keywords", "content") and "_wire" in vars(self):
            self._parse()
            return vars(self)[name]
        raise AttributeError(name)

    def digest(self) -> bytes:
        """``h(o_i)``: the tagged hash of the canonical encoding."""
        hasher = _HASHER.copy()
        hasher.update(self.encoded())
        return hasher.digest()

    def keyword_set(self) -> frozenset[str]:
        """The object's keywords as a frozen set."""
        return frozenset(self.keywords)

    def matches_conjunction(self, required: frozenset[str]) -> bool:
        """True when the object carries every keyword in ``required``."""
        return required <= self.keyword_set()


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
