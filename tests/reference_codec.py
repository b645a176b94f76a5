"""Reference oracle: the stream codec the offset reader replaced.

The SP protocol and the VO codec used to read every field through
``io.BytesIO.read()``; ``repro.core.wire.Reader`` and the offset loops
in ``repro.core.query.codec`` / ``repro.core.objects`` took their place.
The old implementation lives on here, field by field, as the
independent side of ``tests/query/test_codec_oracle.py``: on honest
answers both encoders must produce the same bytes, and on any byte
string both decoders must return equal values or both raise
``ReproError``.

:class:`ReferenceVOCodec` writes and reads the one frame (v6: tables
with a kind tag each, conjuncts that name them) in that per-field style,
from its layout in the codec's docstring — a Merkle table through its
:class:`MerkleParts`, a Chameleon node table field by field, with the
decoder's structural rules restated over the parsed rows, and a kind-3
reference as an index into the held tables it is given, and a kind-4
node table with short rows as the kind-2 table it stands for, each short
node's fields taken from the held statement bytes it is given — or, for
a Merkle table (arity 0), the kind-0 table it stands for, each short
row or entry helper taken from the held rows it is given.  The parts ↔
body pair (:func:`merkle_parts`, :func:`merkle_table`,
:func:`forge_merkle`) is also how tests read and forge Merkle tables,
which hold nothing but their wire body.  The protocol half is the old reader *plus* the fail-closed rules
the protocol gained with the new one —
status byte in ``{0, 1}``, UTF-8 text, no trailing bytes after the
message or inside an object's field — written in the old per-field
style; without them the two sides would disagree on exactly the inputs
those rules exist for.  A request is protocol v4's: the query text, the
``(size, token)`` list of the tables the client holds, at most 64, each
size a varint in its shortest encoding, then at most 64 node summaries
``(keyword, cnt, runs)``.  Objects come back as plain ``(id, keywords,
content)`` triples: the reference does not normalise what it reads, and
neither does ``DataObject.from_wire``.
"""

from __future__ import annotations

import dataclasses
import io
from dataclasses import dataclass

from repro.core.chameleon import ChameleonMultiproof
from repro.core.multiproof import TreeMultiproof
from repro.core.query.vo import ConjunctiveVO, QueryVO, ReplayVO
from repro.errors import ReproError

_TABLE_MERKLE = 0
_TABLE_CHAMELEON = 2
_TABLE_HELD = 3
_TABLE_NODES = 4

#: The frame marker.
_MARKER = 0xF6

_KINDS = {"cyclic": 1, "semijoin": 2}


class ReferenceVOCodec:
    """Encoder/decoder bound to one scheme's group-element width."""

    def __init__(self, value_bytes: int = 128) -> None:
        if value_bytes <= 0:
            raise ReproError("value_bytes must be positive")
        self.value_bytes = value_bytes

    # -- primitives --------------------------------------------------------------

    @staticmethod
    def _write_uint(out: io.BytesIO, value: int, width: int) -> None:
        out.write(value.to_bytes(width, "big"))

    @staticmethod
    def _read_uint(data: io.BytesIO, width: int) -> int:
        raw = data.read(width)
        if len(raw) != width:
            raise ReproError("truncated VO payload")
        return int.from_bytes(raw, "big")

    def _read_element(self, data: io.BytesIO) -> int:
        return self._read_uint(data, self.value_bytes)

    @staticmethod
    def _write_string(out: io.BytesIO, text: str) -> None:
        encoded = text.encode("utf-8")
        if len(encoded) > 0xFF:
            raise ReproError("keyword too long for wire format")
        out.write(len(encoded).to_bytes(1, "big"))
        out.write(encoded)

    @staticmethod
    def _read_string(data: io.BytesIO) -> str:
        length = ReferenceVOCodec._read_uint(data, 1)
        raw = data.read(length)
        if len(raw) != length:
            raise ReproError("truncated VO payload")
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ReproError("keyword in VO payload is not UTF-8") from exc

    @staticmethod
    def _read_bytes(data: io.BytesIO, length: int) -> bytes:
        raw = data.read(length)
        if len(raw) != length:
            raise ReproError("truncated VO payload")
        return raw

    @staticmethod
    def _write_varint(out: io.BytesIO, value: int) -> None:
        if value < 0:
            raise ReproError("varint values must be non-negative")
        while value >= 0x80:
            out.write(bytes([(value & 0x7F) | 0x80]))
            value >>= 7
        out.write(bytes([value]))

    @staticmethod
    def _read_varint(data: io.BytesIO) -> int:
        value = 0
        shift = 0
        while True:
            raw = data.read(1)
            if not raw:
                raise ReproError("truncated VO payload")
            byte = raw[0]
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 63:
                raise ReproError("oversized varint in VO payload")

    # -- multiproofs --------------------------------------------------------------

    def _write_multiproof(self, out: io.BytesIO, mp: TreeMultiproof) -> None:
        write_merkle_parts(out, merkle_parts(mp))

    def _read_multiproof(self, data: io.BytesIO) -> TreeMultiproof:
        start = data.tell()
        read_merkle_parts(data)
        return TreeMultiproof(data.getvalue()[start : data.tell()])

    def _write_entry_table(
        self, out: io.BytesIO, table: ChameleonMultiproof
    ) -> None:
        """The root and the rows travel as the bytes the table holds."""
        self._write_uint(out, table.arity, 1)
        self._write_varint(out, table.count)
        out.write(table.body)

    def _read_entry_table(self, data: io.BytesIO) -> ChameleonMultiproof:
        """``flags || Lambda_0 || shipped*`` then ``count`` rows of
        ``position || flags || id || h(o) || c || Lambda || shipped*``."""
        arity = self._read_uint(data, 1)
        count = self._read_varint(data)
        start = data.tell()
        width = self.value_bytes
        if 1 + width + count * (2 + 40 + 2 * width) > len(data.getbuffer()) - start:
            raise ReproError("node table longer than the VO payload")
        if not 1 <= arity <= 7:
            raise ReproError("node table arity out of range")
        flags_of: dict[int, int] = {}
        childless: set[int] = set()
        previous = -1
        for index in range(count + 1):
            position = self._read_varint(data) if index else 0
            flags = self._read_uint(data, 1)
            if flags >> (arity + 1) or (position == 0 and flags & 1):
                raise ReproError(f"invalid node table flags {flags}")
            if index:
                self._read_bytes(data, 8 + 32)  # id || h(o)
                self._read_element(data)  # c_pos
            self._read_element(data)  # Lambda
            for j in range(1, arity + 1):
                if flags >> j & 1:
                    self._read_element(data)  # a shipped child
            if position <= previous:
                raise ReproError("node table positions do not ascend")
            if index:
                parent = (position - 1) // arity
                if parent not in flags_of:
                    raise ReproError("node table lacks a parent row")
                if flags_of[parent] >> (position - parent * arity) & 1:
                    raise ReproError("node table ships a child it shows")
                childless.discard(parent)
            if not flags & 1:
                childless.add(position)
            flags_of[position] = flags
            previous = position
        if childless:
            raise ReproError("node table row hangs nothing")
        body = data.getvalue()[start : data.tell()]
        return ChameleonMultiproof(arity, self.value_bytes, count, body)

    # -- node tables with short rows (kind 4) -----------------------------------

    def _node_rows(self, table: ChameleonMultiproof) -> list[tuple[int, int, bytes]]:
        """``(position, flags, fields)`` per node of a kind-2 body, the
        root first; ``fields`` is everything after the flag byte."""
        width = self.value_bytes
        data = io.BytesIO(table.body)
        nodes = []
        for index in range(table.count + 1):
            position = self._read_varint(data) if index else 0
            flags = self._read_uint(data, 1)
            shipped = bin(flags >> 1).count("1")
            size = (40 + 2 * width if index else width) + shipped * width
            nodes.append((position, flags, self._read_bytes(data, size)))
        return nodes

    def short_rows(self, table: ChameleonMultiproof, listed: set) -> bytes | None:
        """The kind-4 root and rows of a cold node table with each node
        at a position in ``listed`` short; ``None`` when none is."""
        nodes = self._node_rows(table)
        if not any(position in listed for position, _, _ in nodes):
            return None
        out = io.BytesIO()
        for position, flags, fields in nodes:
            short = position in listed
            if position:
                self._write_varint(out, position * 2 + short)
            elif short:
                flags |= 1
            self._write_uint(out, flags, 1)
            if not short:
                out.write(fields)
        return out.getvalue()

    def _resolve(self, statements, position: int, flags: int) -> bytes:
        """A short node's fields, from the statement held for it."""
        width = self.value_bytes
        statement = statements.get(position)
        if statement is None:
            raise ReproError("short row for a node the session does not hold")
        shape = statement[0]
        filled = shape & 0x7F
        root = position == 0
        node = 2 * width if root else 40 + 2 * width
        if bool(shape & 0x80) != root or len(statement) != 1 + node + filled * width:
            raise ReproError("short row does not match the node held")
        children = [
            statement[1 + node + j * width : 1 + node + (j + 1) * width]
            for j in range(filled)
        ]
        fields = statement[1 + width if root else 1 : 1 + node]
        for j in range(1, 8):
            if flags >> j & 1:
                if j > filled:
                    raise ReproError("short row ships a child the node lacks")
                fields += children[j - 1]
        return fields

    def _read_short_table(self, data: io.BytesIO, nodes) -> ChameleonMultiproof:
        at = _read_count(data)
        if at >= len(nodes):
            raise ReproError("short rows under a summary never listed")
        statements, beside = nodes[at]  # a node summary's memo is the codec's
        arity = self._read_uint(data, 1)
        if isinstance(beside, dict) == (arity == 0):
            raise ReproError("table under a summary of the other family")
        if arity == 0:
            return read_held_merkle(data, statements, beside)
        count = self._read_varint(data)
        if not 1 <= arity <= 7:
            raise ReproError("node table arity out of range")
        if 1 + 2 * count > len(data.getbuffer()) - data.tell():
            raise ReproError("node table longer than the VO payload")
        width = self.value_bytes
        cold = io.BytesIO()
        self._write_uint(cold, arity, 1)
        self._write_varint(cold, count)
        for index in range(count + 1):
            if index:
                marked = _read_count(data)
                position, short = marked >> 1, marked & 1
            else:
                position = 0
            flags = self._read_uint(data, 1)
            if not index:
                short = flags & 1
                flags &= ~1
            if index:
                self._write_varint(cold, position)
            self._write_uint(cold, flags, 1)
            if short:
                cold.write(self._resolve(statements, position, flags))
                continue
            cold.write(self._read_bytes(data, 40 + 2 * width if index else width))
            for j in range(1, 8):
                if flags >> j & 1:
                    cold.write(self._read_bytes(data, width))
        cold.seek(0)
        table = self._read_entry_table(cold)
        if cold.read(1):
            raise ReproError("node table body outruns its rows")
        return table

    # -- public API ----------------------------------------------------------------

    def encode(self, vo: QueryVO, held=(), nodes=(), counts=None, rows=()) -> bytes:
        """Serialise a cold ``VO_sp`` as it goes to a client that lists
        ``held`` — ``(byte_size, cache_token)`` per table — and the node
        summaries ``nodes``: a table listed in ``held`` goes as a
        reference to its first listing, and a node table whose keyword
        (the first the conjuncts name it under) a summary lists — first
        listing — under ``counts[keyword]``, the ``cnt`` its tree holds,
        goes with the summary's positions as short rows, if it shows
        any of them.  A Merkle table whose keyword a summary lists goes
        with the listed rows short, ``rows`` being each summary's held
        rows (:func:`held_merkle_body`)."""
        keyword_of = {}
        for conjunct in vo.conjuncts:
            if conjunct.base is not None:
                for tree, run in zip(conjunct.base.trees, conjunct.base.runs):
                    if run is not None:
                        keyword_of.setdefault(run, tree)
        out = io.BytesIO()
        out.write(bytes([_MARKER]))
        self._write_varint(out, len(vo.multiproofs))
        for index, table in enumerate(vo.multiproofs):
            entry = (table.byte_size(), table.cache_token())
            short = None
            if isinstance(table, TreeMultiproof) and rows:
                keyword = keyword_of[index]
                for at, (listed_keyword, base, bitmap) in enumerate(nodes):
                    if listed_keyword == keyword:
                        short = held_merkle_body(table, base, bitmap, rows[at])
                        break
            if isinstance(table, ChameleonMultiproof) and counts:
                keyword = keyword_of[index]
                for at, (listed_keyword, count, bitmap) in enumerate(nodes):
                    if listed_keyword == keyword:
                        if count == counts[keyword]:
                            listed = {
                                p
                                for p in range(8 * len(bitmap))
                                if bitmap[p // 8] >> (p % 8) & 1
                            }
                            short = self.short_rows(table, listed)
                        break
            if entry in held:
                self._write_uint(out, _TABLE_HELD, 1)
                self._write_varint(out, list(held).index(entry))
            elif short is not None and isinstance(table, TreeMultiproof):
                self._write_uint(out, _TABLE_NODES, 1)
                self._write_varint(out, at)
                self._write_uint(out, 0, 1)
                out.write(short)
            elif short is not None:
                self._write_uint(out, _TABLE_NODES, 1)
                self._write_varint(out, at)
                self._write_uint(out, table.arity, 1)
                self._write_varint(out, table.count)
                out.write(short)
            elif isinstance(table, ChameleonMultiproof):
                self._write_uint(out, _TABLE_CHAMELEON, 1)
                self._write_entry_table(out, table)
            else:
                self._write_uint(out, _TABLE_MERKLE, 1)
                self._write_multiproof(out, table)
        self._write_uint(out, len(vo.conjuncts), 1)
        for conjunct in vo.conjuncts:
            self._write_replayed(out, conjunct)
        return out.getvalue()

    def _write_replayed(self, out: io.BytesIO, vo: ConjunctiveVO) -> None:
        self._write_uint(out, len(vo.keywords), 1)
        for keyword in vo.keywords:
            self._write_string(out, keyword)
        if vo.empty_keyword is not None:
            self._write_uint(out, 0, 1)
            self._write_string(out, vo.empty_keyword)
            return
        self._write_uint(out, _KINDS[vo.base.plan], 1)
        for tree, run in zip(vo.base.trees, vo.base.runs):
            self._write_uint(out, vo.keywords.index(tree), 1)
            self._write_varint(out, 0 if run is None else run + 1)

    def _read_replayed(self, data: io.BytesIO, mps: tuple) -> ConjunctiveVO:
        keywords = tuple(
            self._read_string(data) for _ in range(self._read_uint(data, 1))
        )
        kind = self._read_uint(data, 1)
        if kind == 0:
            return ConjunctiveVO(
                keywords=keywords, empty_keyword=self._read_string(data)
            )
        plans = {tag: plan for plan, tag in _KINDS.items()}
        if kind not in plans:
            raise ReproError(f"unknown conjunct kind {kind}")
        trees = []
        runs = []
        seen = set()
        for _ in keywords:
            index = self._read_uint(data, 1)
            slot = self._read_varint(data)
            if slot > len(mps):
                raise ReproError("table slot out of range")
            if index >= len(keywords) or index in seen:
                raise ReproError("tree order is not a permutation")
            seen.add(index)
            trees.append(keywords[index])
            runs.append(slot - 1 if slot else None)
        return ConjunctiveVO(
            keywords=keywords,
            base=ReplayVO(plan=plans[kind], trees=tuple(trees), runs=tuple(runs)),
        )

    def _read_table(self, data: io.BytesIO, held, nodes):
        kind = self._read_uint(data, 1)
        if kind == _TABLE_MERKLE:
            return self._read_multiproof(data)
        if kind == _TABLE_CHAMELEON:
            return self._read_entry_table(data)
        if kind == _TABLE_HELD:
            index = _read_count(data)
            if index >= len(held):
                raise ReproError("reference beyond the held tables")
            return held[index]
        if kind == _TABLE_NODES:
            return self._read_short_table(data, nodes)
        raise ReproError(f"unknown table kind {kind}")

    def decode(self, payload: bytes, held=(), nodes=()) -> QueryVO:
        """Parse a wire-form ``VO_sp``; a reference resolves into ``held``,
        a short row into the statement bytes ``nodes`` holds for it (each
        summary's statements first, then a memo the reference ignores).

        Only :class:`~repro.errors.ReproError` escapes, whatever the
        bytes.
        """
        data = io.BytesIO(payload)
        marker = self._read_uint(data, 1)
        if marker != _MARKER:
            raise ReproError(f"unsupported VO frame marker {marker:#x}")
        mps = tuple(
            self._read_table(data, held, nodes)
            for _ in range(self._read_varint(data))
        )
        conjuncts = tuple(
            self._read_replayed(data, mps)
            for _ in range(self._read_uint(data, 1))
        )
        if data.read(1):
            raise ReproError("trailing bytes in VO payload")
        return QueryVO(conjuncts=conjuncts, multiproofs=mps)


# -- Merkle tables as parts --------------------------------------------------------


@dataclass(frozen=True)
class MerkleParts:
    """A Merkle table's fields, one Python value each.

    The shape ``TreeMultiproof`` had before it became its wire body:
    ``nodes`` holds each cover node's slot codes in DFS pre-order,
    ``helpers`` the sibling digests and ``leaves`` the proven
    ``(object_id, object_hash)`` rows in the order the fold consumes
    them.  Tests forge a table by editing its parts
    (:func:`forge_merkle`); the fold sees exactly the bytes the old
    tuple table would have put on the wire.
    """

    height: int
    nodes: tuple[tuple[int, ...], ...]
    helpers: tuple[bytes, ...]
    leaves: tuple[tuple[int, bytes], ...]


def write_merkle_parts(out: io.BytesIO, parts: MerkleParts) -> None:
    """The kind-0 table body, field by field."""
    _write_merkle_nodes(out, parts)
    ReferenceVOCodec._write_varint(out, len(parts.helpers))
    for digest in parts.helpers:
        if len(digest) != 32:
            raise ReproError("multiproof helper is not a 32-byte digest")
        out.write(digest)
    ReferenceVOCodec._write_varint(out, len(parts.leaves))
    for object_id, object_hash in parts.leaves:
        ReferenceVOCodec._write_uint(out, object_id, 8)
        if len(object_hash) != 32:
            raise ReproError("multiproof leaf hash is not 32 bytes")
        out.write(object_hash)


def _write_merkle_nodes(out: io.BytesIO, parts: MerkleParts) -> None:
    """A Merkle table body's height and cover nodes."""
    ReferenceVOCodec._write_uint(out, parts.height, 1)
    ReferenceVOCodec._write_varint(out, len(parts.nodes))
    for codes in parts.nodes:
        ReferenceVOCodec._write_varint(out, len(codes))
        packed = bytearray((len(codes) + 3) // 4)
        for slot, code in enumerate(codes):
            if not 0 <= code <= 3:
                raise ReproError(f"cannot encode slot code {code}")
            packed[slot // 4] |= code << ((slot % 4) * 2)
        out.write(bytes(packed))


def _read_count(data: io.BytesIO) -> int:
    """A table count: a varint in its shortest encoding."""
    start = data.tell()
    value = ReferenceVOCodec._read_varint(data)
    if data.tell() - start > 1 and data.getbuffer()[data.tell() - 1] == 0:
        raise ReproError("multiproof count not in its shortest encoding")
    return value


def read_merkle_parts(data: io.BytesIO) -> MerkleParts:
    """One kind-0 table body, field by field; raises ``ReproError``."""
    codec = ReferenceVOCodec
    height, nodes = _read_merkle_nodes(data)
    helpers = tuple(codec._read_bytes(data, 32) for _ in range(_read_count(data)))
    leaves = tuple(
        (codec._read_uint(data, 8), codec._read_bytes(data, 32))
        for _ in range(_read_count(data))
    )
    return MerkleParts(height, tuple(nodes), helpers, leaves)


def _read_merkle_nodes(data: io.BytesIO) -> tuple[int, list]:
    """A Merkle table body's height and cover nodes' slot codes."""
    codec = ReferenceVOCodec
    height = codec._read_uint(data, 1)
    nodes = []
    for _ in range(_read_count(data)):
        width = _read_count(data)
        if width > 0xFFFF:
            raise ReproError("oversized multiproof node width")
        packed = codec._read_bytes(data, (width + 3) // 4)
        if width % 4 and packed[-1] >> (width % 4 * 2):
            raise ReproError("non-zero padding in multiproof slot codes")
        codes = tuple(
            (packed[slot // 4] >> ((slot % 4) * 2)) & 0x3 for slot in range(width)
        )
        if any(code > 2 for code in codes):
            raise ReproError("invalid multiproof slot code")
        nodes.append(codes)
    return height, nodes


# -- Merkle tables with held rows (kind 4, arity 0) -------------------------------


def held_merkle_body(
    table: TreeMultiproof, base: int, bitmap: bytes, rows
) -> bytes | None:
    """The held-row body of a cold Merkle table for a client that lists
    the IDs ``base - bit`` for each bit set in ``bitmap`` and holds
    ``rows`` (``(row, entry digest)`` by ID): a leaf of a listed ID, and
    a helper that is the entry digest of a listed row, go as their bit;
    ``None`` when nothing is listed."""
    listed = {p for p in range(8 * len(bitmap)) if bitmap[p // 8] >> (p % 8) & 1}
    parts = merkle_parts(table)
    by_digest = {rows[base - bit][1]: bit for bit in listed if base - bit in rows}
    helpers = [by_digest.get(digest, digest) for digest in parts.helpers]
    leaves = [
        base - object_id if base - object_id in listed else object_id.to_bytes(8, "big") + h
        for object_id, h in parts.leaves
    ]
    if all(isinstance(item, bytes) for item in helpers + leaves):
        return None
    out = io.BytesIO()
    _write_merkle_nodes(out, parts)
    return write_held_parts(out.getvalue(), helpers, leaves, 8 * len(bitmap))


def write_held_parts(head: bytes, helpers, leaves, limit: int) -> bytes:
    """A held-row body: ``head`` (height and nodes) and the two lists,
    each item its bytes or, held, its bit (an ``int``, below ``limit``,
    descending within a list)."""
    out = io.BytesIO()
    out.write(head)
    for items in (helpers, leaves):
        ReferenceVOCodec._write_varint(out, len(items))
        flags = bytearray((len(items) + 7) // 8)
        for at, item in enumerate(items):
            if isinstance(item, int):
                flags[at // 8] |= 1 << (at % 8)
        out.write(bytes(flags))
        for item in items:
            if isinstance(item, bytes):
                out.write(item)
        previous = limit
        for item in items:
            if isinstance(item, int):
                ReferenceVOCodec._write_varint(out, previous - 1 - item)
                previous = item
    return out.getvalue()


def read_held_parts(body: bytes, limit: int) -> tuple[bytes, list, list]:
    """A held-row body split as :func:`write_held_parts` writes it."""
    data = io.BytesIO(body)
    _read_merkle_nodes(data)
    head = body[: data.tell()]
    lists = []
    for size in (32, 40):
        count = _read_count(data)
        flags = ReferenceVOCodec._read_bytes(data, (count + 7) // 8)
        marked = [at for at in range(count) if flags[at // 8] >> (at % 8) & 1]
        items = [None] * count
        for at in range(count):
            if at not in marked:
                items[at] = ReferenceVOCodec._read_bytes(data, size)
        bit = limit
        for at in marked:
            bit -= 1 + _read_count(data)
            items[at] = bit
        lists.append(items)
    if data.read(1):
        raise ReproError("bytes after a held-row body")
    return head, lists[0], lists[1]


def read_held_merkle(data: io.BytesIO, rows, floor: int) -> TreeMultiproof:
    """One held-row body, field by field, each bit resolved into
    ``rows``, the listed rows by ID: the bits' IDs ascend from
    ``floor``, each ``skip + 1`` above the one before."""
    codec = ReferenceVOCodec
    height, nodes = _read_merkle_nodes(data)
    lists = []
    for size in (32, 40):
        count = _read_count(data)
        flags = codec._read_bytes(data, (count + 7) // 8)
        if count % 8 and flags[-1] >> (count % 8):
            raise ReproError("non-zero padding in held bits")
        marked = [at for at in range(count) if flags[at // 8] >> (at % 8) & 1]
        items = [None] * count
        for at in range(count):
            if at not in marked:
                items[at] = codec._read_bytes(data, size)
        object_id = floor
        for at in marked:
            object_id += 1 + _read_count(data)
            row = rows.get(object_id)
            if row is None:
                raise ReproError("short row for an ID the summary did not list")
            items[at] = row[1] if size == 32 else row[0]
        lists.append(items)
    helpers, leaves = lists
    return merkle_table(
        MerkleParts(
            height,
            tuple(nodes),
            tuple(helpers),
            tuple((int.from_bytes(row[:8], "big"), row[8:]) for row in leaves),
        )
    )


def merkle_parts(table: TreeMultiproof) -> MerkleParts:
    """A table's body read back into its parts (the whole body, no more)."""
    data = io.BytesIO(table.body)
    parts = read_merkle_parts(data)
    if data.read(1):
        raise ReproError("bytes after the leaf rows of a Merkle table")
    return parts


def merkle_table(parts: MerkleParts) -> TreeMultiproof:
    """The table whose body encodes ``parts``."""
    out = io.BytesIO()
    write_merkle_parts(out, parts)
    return TreeMultiproof(out.getvalue())


def forge_merkle(table: TreeMultiproof, **changes) -> TreeMultiproof:
    """``table`` with some of its parts replaced (``dataclasses.replace`` style)."""
    return merkle_table(dataclasses.replace(merkle_parts(table), **changes))


# -- SP protocol v4 ---------------------------------------------------------------

PROTOCOL_VERSION = 4
#: Most held tables a request may list.
MAX_HELD = 64
#: Most node summaries a request may list, and bytes per bitmap.
MAX_SUMMARIES = 64
MAX_BITMAP = 512
_STATUS_OK = 0
_STATUS_ERROR = 1
ERR_INTERNAL = 3


def _write_bytes(out: io.BytesIO, blob: bytes, width: int = 4) -> None:
    out.write(len(blob).to_bytes(width, "big"))
    out.write(blob)


def _read_exact(data: io.BytesIO, length: int) -> bytes:
    raw = data.read(length)
    if len(raw) != length:
        raise ReproError("truncated protocol message")
    return raw


def _read_bytes(data: io.BytesIO, width: int = 4) -> bytes:
    length = int.from_bytes(_read_exact(data, width), "big")
    return _read_exact(data, length)


def _read_text(data: io.BytesIO, width: int) -> str:
    try:
        return _read_bytes(data, width).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ReproError("text is not UTF-8") from exc


def _expect_end(data: io.BytesIO) -> None:
    if data.read(1):
        raise ReproError("trailing bytes")


def encode_object(object_id: int, keywords, content: bytes) -> bytes:
    """``id(8) || n(2) || (len(1) keyword)* || len(4) || content``."""
    out = io.BytesIO()
    out.write(object_id.to_bytes(8, "big"))
    out.write(len(keywords).to_bytes(2, "big"))
    for keyword in keywords:
        _write_bytes(out, keyword.encode("utf-8"), width=1)
    _write_bytes(out, content)
    return out.getvalue()


def decode_object(raw: bytes) -> tuple[int, tuple[str, ...], bytes]:
    """One object field, read to its last byte."""
    data = io.BytesIO(raw)
    object_id = int.from_bytes(_read_exact(data, 8), "big")
    n_keywords = int.from_bytes(_read_exact(data, 2), "big")
    keywords = tuple(_read_text(data, 1) for _ in range(n_keywords))
    content = _read_bytes(data)
    _expect_end(data)
    return object_id, keywords, content


def encode_request(query_text: str, held=(), nodes=()) -> bytes:
    """``version || len(2) text || n(1) || (varint size || token(32))*n
    || m(1) || (len(1) keyword || varint cnt || varint b || bitmap(b))*m``."""
    out = io.BytesIO()
    out.write(bytes([PROTOCOL_VERSION]))
    _write_bytes(out, query_text.encode("utf-8"), width=2)
    out.write(bytes([len(held)]))
    for size, token in held:
        ReferenceVOCodec._write_varint(out, size)
        out.write(token)
    out.write(bytes([len(nodes)]))
    for keyword, count, bitmap in nodes:
        _write_bytes(out, keyword.encode("utf-8"), width=1)
        ReferenceVOCodec._write_varint(out, count)
        ReferenceVOCodec._write_varint(out, len(bitmap))
        out.write(bitmap)
    return out.getvalue()


def decode_request(payload: bytes) -> tuple:
    """The query text, the held tables' ``(size, token)`` list and the
    node summaries ``(keyword, cnt, bitmap)``."""
    data = io.BytesIO(payload)
    version = _read_exact(data, 1)[0]
    if version != PROTOCOL_VERSION:
        raise ReproError(f"unsupported protocol version {version}")
    text = _read_text(data, 2)
    count = _read_exact(data, 1)[0]
    if count > MAX_HELD:
        raise ReproError("too many held tables")
    held = []
    for _ in range(count):
        size = _read_count(data)
        held.append((size, _read_exact(data, 32)))
    summaries = _read_exact(data, 1)[0]
    if summaries > MAX_SUMMARIES:
        raise ReproError("too many node summaries")
    nodes = []
    for _ in range(summaries):
        keyword = _read_text(data, 1)
        if not keyword:
            raise ReproError("empty keyword in a node summary")
        if nodes and keyword <= nodes[-1][0]:
            raise ReproError("node summaries out of keyword order")
        held_count = _read_count(data)
        if held_count >= 2**64:
            raise ReproError("node summary count beyond 64 bits")
        size = _read_count(data)
        if not 1 <= size <= MAX_BITMAP:
            raise ReproError("node summary bitmap size out of range")
        bitmap = _read_exact(data, size)
        if bitmap[-1] == 0:
            raise ReproError("node summary bitmap ends in a zero byte")
        positions = [p for p in range(8 * size) if bitmap[p // 8] >> (p % 8) & 1]
        if positions[-1] > held_count:
            raise ReproError("node summary position beyond its count")
        nodes.append((keyword, held_count, bitmap))
    _expect_end(data)
    return text, tuple(held), tuple(nodes)


def encode_response(result_ids, objects, vo_bytes: bytes) -> bytes:
    """An OK response; ``objects`` are ``(id, keywords, content)`` triples."""
    out = io.BytesIO()
    out.write(bytes([PROTOCOL_VERSION, _STATUS_OK]))
    out.write(len(result_ids).to_bytes(4, "big"))
    for object_id in result_ids:
        out.write(object_id.to_bytes(8, "big"))
    out.write(len(objects).to_bytes(4, "big"))
    for obj in objects:
        _write_bytes(out, encode_object(*obj))
    _write_bytes(out, vo_bytes)
    return out.getvalue()


def encode_error_response(error: str, error_code: int = 0) -> bytes:
    out = io.BytesIO()
    out.write(bytes([PROTOCOL_VERSION, _STATUS_ERROR, error_code or ERR_INTERNAL]))
    _write_bytes(out, error.encode("utf-8"), width=2)
    return out.getvalue()


def decode_response(payload: bytes) -> dict:
    """``{"error", "error_code"}`` or ``{"result_ids", "objects", "vo_bytes"}``."""
    data = io.BytesIO(payload)
    version = _read_exact(data, 1)[0]
    if version != PROTOCOL_VERSION:
        raise ReproError(f"unsupported protocol version {version}")
    status = _read_exact(data, 1)[0]
    if status == _STATUS_ERROR:
        code = _read_exact(data, 1)[0]
        error = _read_text(data, 2)
        _expect_end(data)
        return {"error": error, "error_code": code}
    if status != _STATUS_OK:
        raise ReproError(f"unknown status byte {status}")
    n_ids = int.from_bytes(_read_exact(data, 4), "big")
    result_ids = [
        int.from_bytes(_read_exact(data, 8), "big") for _ in range(n_ids)
    ]
    n_objects = int.from_bytes(_read_exact(data, 4), "big")
    objects = [decode_object(_read_bytes(data)) for _ in range(n_objects)]
    vo_bytes = _read_bytes(data)
    _expect_end(data)
    return {"result_ids": result_ids, "objects": objects, "vo_bytes": vo_bytes}
