"""Binary wire codec for verification objects.

``VO_sp`` travels from the SP to the client; the paper's VO-size metric
(Figs. 11–13) is the serialised byte count.  This codec provides the
canonical wire format — a compact tagged binary encoding — and is used
by the system facade to report *exact* VO sizes rather than estimates.

Format notes: integers are big-endian; group elements (CVC commitments
and openings) occupy the scheme's fixed ``value_bytes`` width; counts
are LEB128 varints or single bytes.

The frame (v6, marker ``0xF6``)
-------------------------------
One frame for every scheme: the proof tables, then per conjunctive
component the tables the client replays the join over::

    0xF6 || varint n || (u8 kind || table) * n || u8 m || conjunct * m

    table kind 0   a TreeMultiproof (Merkle family):
                   u8 height || varint #nodes || (varint width || 2-bit slot codes) *
                   || varint #helpers || digest(32) * || varint #leaves || (id(8) || h(o)(32)) *
    table kind 1   a ChameleonMultiproof node table:
                   u8 arity || varint #rows || row *
                   row  varint position || u8 flag || [id(8) || h(o)(32)]
                        || c_pos || [slot-1 opening] || link opening
                   (bracketed fields iff flag = 1: an entry row)

    conjunct   u8 k || keyword * k || kind
               kind 0 (a keyword is empty)   || keyword
               kind 1 (cyclic), 2 (semijoin) || (u8 keyword index || varint slot) * k

The ``k`` pairs list the component's keywords in the order the SP
walked them (a permutation of ``0..k-1``); ``slot`` is ``0`` when the
walk read nothing from that tree, else the table's index plus one.  A
one-keyword component is a scan (kind 1, one pair).  The client re-runs
the join over the tables, so nothing the SP could say about its walk is
on the wire.  Child indices and parent pointers of a node table are not
on the wire either: they are BFS arithmetic on the position.

There is one writer and one reader.  Frames of older layouts (v2–v5:
rounds of per-entry proofs, ``LeafRef`` / ``NodeRef`` entries) are read
only by ``tests/reference_codec.py``, which keeps those codecs as a test
oracle; here any other first byte is refused with
:class:`~repro.errors.ReproError`, which the SP protocol maps to
``ERR_BAD_REQUEST``.

The decoder fails closed: whatever the bytes, the only exception that
leaves :meth:`VOCodec.decode` is a :class:`~repro.errors.ReproError`,
and one-byte flags and tags accept exactly the values the encoder
writes.  A node table that is unsorted, repeats a position, lacks an
ancestor or shows a node that hangs nothing is rejected here, before any
verification runs; so are a conjunct whose keyword list is not a
permutation and a slot beyond the tables.

There is one byte reader, :class:`~repro.core.wire.Reader` (shared with
:mod:`repro.sp.protocol`): the received ``bytes`` plus an offset, so a
frame is parsed in one forward pass without copying it into a stream.
Runs of fixed-width fields — a multiproof's helper digests and its
``(id, hash)`` leaf rows — are bounds-checked and sliced as one; a
multiproof node's 2-bit slot codes are looked up four at a time.  A node
table is *not parsed*: its rows are walked for their offsets and kept
as the bytes they arrived as (the SP, symmetrically, frames rows it
sliced out of its flat buffer); group elements become integers when the
client authenticates the table.  Truncation, flag bytes outside
``{0, 1}``, non-zero padding bits, oversized varints and trailing bytes
are all the reader's or this module's explicit checks, none of them an
``assert``.
"""

from __future__ import annotations

import struct

from repro.core.chameleon import ChameleonMultiproof
from repro.core.multiproof import TreeMultiproof
from repro.core.query.vo import ConjunctiveVO, QueryVO, ReplayVO
from repro.core.wire import U8, Reader, put_varint, read_varint
from repro.errors import ReproError

_TABLE_MERKLE = 0
_TABLE_CHAMELEON = 1

#: Kind byte of a conjunct: an empty keyword, or the plan to replay.
_KIND_EMPTY = 0
_KIND_OF_PLAN = {"cyclic": 1, "semijoin": 2}
_PLAN_OF_KIND = {kind: plan for plan, kind in _KIND_OF_PLAN.items()}

#: First byte of the frame.
_MARKER = 0xF6

#: One multiproof leaf row: ``id(8) || hash(32)``.
_LEAF_ROW = struct.Struct(">Q32s")

#: The four 2-bit slot codes a packed byte holds, low bits first.
_SLOT_CODES = tuple(
    tuple((byte >> shift) & 0x3 for shift in (0, 2, 4, 6))
    for byte in range(256)
)

_WHAT = "VO payload"
_TRUNCATED = f"truncated {_WHAT}"


def _put_string(out: bytearray, text: str) -> None:
    encoded = text.encode("utf-8")
    if len(encoded) > 0xFF:
        raise ReproError("keyword too long for wire format")
    out.append(len(encoded))
    out += encoded


class VOCodec:
    """Encoder/decoder bound to one scheme's group-element width."""

    def __init__(self, value_bytes: int = 128) -> None:
        if value_bytes <= 0:
            raise ReproError("value_bytes must be positive")
        self.value_bytes = value_bytes

    # -- tables --------------------------------------------------------------------

    @staticmethod
    def _write_multiproof(out: bytearray, mp: TreeMultiproof) -> None:
        out.append(mp.height)
        put_varint(out, len(mp.nodes))
        for codes in mp.nodes:
            put_varint(out, len(codes))
            packed = bytearray((len(codes) + 3) // 4)
            for slot, code in enumerate(codes):
                if not 0 <= code <= 3:
                    raise ReproError(f"cannot encode slot code {code}")
                packed[slot // 4] |= code << ((slot % 4) * 2)
            out += packed
        put_varint(out, len(mp.helpers))
        for digest in mp.helpers:
            if len(digest) != 32:
                raise ReproError("multiproof helper is not a 32-byte digest")
        out += b"".join(mp.helpers)
        put_varint(out, len(mp.leaves))
        for object_id, object_hash in mp.leaves:
            if len(object_hash) != 32:
                raise ReproError("multiproof leaf hash is not 32 bytes")
            out += _LEAF_ROW.pack(object_id, object_hash)

    @staticmethod
    def _read_multiproof(r: Reader) -> TreeMultiproof:
        height = r.u8()
        count = r.varint()
        buf = r.buf
        pos = r.pos
        nodes = []
        for _ in range(count):
            width, pos = read_varint(buf, pos)
            if width > 0xFFFF:
                raise ReproError("oversized multiproof node width")
            end = pos + (width + 3) // 4
            if end > len(buf):
                raise ReproError(_TRUNCATED)
            if width % 4 and buf[end - 1] >> (width % 4 * 2):
                raise ReproError("non-zero padding in multiproof slot codes")
            codes = [
                code for byte in buf[pos:end] for code in _SLOT_CODES[byte]
            ]
            if 3 in codes:
                raise ReproError("invalid multiproof slot code")
            nodes.append(tuple(codes[:width]))
            pos = end
        r.pos = pos
        helpers = r.chunks(r.varint(), 32)
        leaves = tuple(r.rows(_LEAF_ROW, r.varint()))
        return TreeMultiproof(
            height=height,
            nodes=tuple(nodes),
            helpers=helpers,
            leaves=leaves,
        )

    def _write_node_table(
        self, out: bytearray, table: ChameleonMultiproof
    ) -> None:
        if table.value_bytes != self.value_bytes:
            raise ReproError(
                f"node table of {table.value_bytes}-byte elements under a "
                f"{self.value_bytes}-byte codec"
            )
        out.append(table.arity)
        put_varint(out, table.count)
        out += table.body

    def _read_node_table(self, r: Reader) -> ChameleonMultiproof:
        arity = r.u8()
        count = r.varint()
        table, r.pos = ChameleonMultiproof.from_wire(
            r.buf, r.pos, count, arity, self.value_bytes
        )
        return table

    # -- conjuncts -----------------------------------------------------------------

    @staticmethod
    def _write_conjunct(out: bytearray, vo: ConjunctiveVO) -> None:
        keywords = vo.keywords
        out.append(len(keywords))
        for keyword in keywords:
            _put_string(out, keyword)
        base = vo.base
        if vo.empty_keyword is not None and base is None:
            out.append(_KIND_EMPTY)
            _put_string(out, vo.empty_keyword)
            return
        if (
            not isinstance(base, ReplayVO)
            or vo.empty_keyword is not None
            or base.plan not in _KIND_OF_PLAN
            or sorted(base.trees) != sorted(keywords)
            or len(base.runs) != len(keywords)
        ):
            raise ReproError(
                "a conjunct is an empty-keyword claim or a replayed join "
                "over exactly its keywords"
            )
        list(base.tables())  # a run still waiting for its proof is refused
        out.append(_KIND_OF_PLAN[base.plan])
        for tree, run in zip(base.trees, base.runs):
            out.append(keywords.index(tree))
            put_varint(out, 0 if run is None else run + 1)

    @staticmethod
    def _read_conjunct(r: Reader, tables: int) -> ConjunctiveVO:
        keywords = tuple(r.text(U8) for _ in range(r.u8()))
        kind = r.u8()
        if kind == _KIND_EMPTY:
            return ConjunctiveVO(keywords=keywords, empty_keyword=r.text(U8))
        plan = _PLAN_OF_KIND.get(kind)
        if plan is None:
            raise ReproError(f"unknown conjunct kind {kind}")
        order = []
        runs: list[int | None] = []
        for _ in keywords:
            order.append(r.u8())
            slot = r.varint()
            if slot > tables:
                raise ReproError(f"conjunct names table {slot - 1} of {tables}")
            runs.append(slot - 1 if slot else None)
        if sorted(order) != list(range(len(keywords))):
            raise ReproError("conjunct's tree order is not a permutation")
        return ConjunctiveVO(
            keywords=keywords,
            base=ReplayVO(
                plan=plan,
                trees=tuple(keywords[index] for index in order),
                runs=tuple(runs),
            ),
        )

    # -- public API ----------------------------------------------------------------

    def encode(self, vo: QueryVO) -> bytes:
        """Serialise a full ``VO_sp`` to its wire form.

        A conjunct may name a table the VO does not hold — e.g. a
        per-conjunct slice of a finished VO: such bytes compare
        deterministically, but only the rejoined VO decodes.
        """
        out = bytearray((_MARKER,))
        put_varint(out, len(vo.multiproofs))
        for table in vo.multiproofs:
            if isinstance(table, ChameleonMultiproof):
                out.append(_TABLE_CHAMELEON)
                self._write_node_table(out, table)
            elif isinstance(table, TreeMultiproof):
                out.append(_TABLE_MERKLE)
                self._write_multiproof(out, table)
            else:
                raise ReproError(f"cannot encode table {type(table)!r}")
        if len(vo.conjuncts) > 0xFF:
            raise ReproError("too many conjuncts for the wire format")
        out.append(len(vo.conjuncts))
        for conjunct in vo.conjuncts:
            self._write_conjunct(out, conjunct)
        return bytes(out)

    def _read_table(self, r: Reader) -> TreeMultiproof | ChameleonMultiproof:
        kind = r.u8()
        if kind == _TABLE_MERKLE:
            return self._read_multiproof(r)
        if kind == _TABLE_CHAMELEON:
            return self._read_node_table(r)
        raise ReproError(f"unknown table kind {kind}")

    def decode(self, payload: bytes) -> QueryVO:
        """Parse a wire-form ``VO_sp``; raises on malformed input.

        Only :class:`~repro.errors.ReproError` escapes, whatever the
        bytes.
        """
        r = Reader(payload, _WHAT)
        try:
            marker = r.u8()
            if marker != _MARKER:
                raise ReproError(f"unsupported VO frame marker {marker:#x}")
            tables = tuple([self._read_table(r) for _ in range(r.varint())])
            conjuncts = tuple(
                [self._read_conjunct(r, len(tables)) for _ in range(r.u8())]
            )
        except (IndexError, struct.error):
            # The inner loops index the buffer and unpack at an offset
            # without asking first: running off the end is their
            # truncation check.
            raise ReproError(_TRUNCATED) from None
        r.finish()
        return QueryVO(conjuncts=conjuncts, multiproofs=tables)
