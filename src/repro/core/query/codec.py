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

    table kind 0   a TreeMultiproof (Merkle family), its body as it holds it:
                   u8 height || varint #nodes || (varint width || 2-bit slot codes) *
                   || varint #helpers || digest(32) * || varint #leaves || (id(8) || h(o)(32)) *
    table kind 2   a ChameleonMultiproof node table:
                   u8 arity || varint #rows || u8 flags || Lambda_0
                   || shipped * || row *
                   row  varint position || u8 flags || id(8) || h(o)(32)
                        || c_pos || Lambda_pos || shipped *
                   (flag bit 0: a row the join read; bit j: child j's
                   commitment is shipped, in child order, because the
                   child is not a row.  Lambda opens the node's whole
                   vector.  Kind 1 is refused.)
    table kind 3   a held table: varint index into the tables the
                   client's request listed (protocol v3).  It stands for
                   that table's bytes; the client verifies it exactly as
                   if they had been sent (DESIGN.md §6.3).
    table kind 4   a table with held nodes or rows (protocol v4): varint
                   summary index || u8 arity, then for a node table
                   (arity 1-7) || varint #rows || root || row *
                   root  u8 flags || (Lambda_0 || shipped *)
                   row   varint (position << 1 | short) || u8 flags
                         || (id(8) || h(o)(32) || c_pos || Lambda_pos
                         || shipped *)
                   (root flag bit 0 — never a read root — or a row's
                   short bit: the node is its flags alone, a node the
                   summary listed.  The client rebuilds its fields from
                   the statement its session holds for it.)
                   or for a Merkle table (arity 0):
                   || u8 height || varint #nodes || nodes as in kind 0
                   || list(digest(32)) || list(id(8) || h(o)(32))
                   list(item)  varint n || held bits(ceil(n / 8))
                               || item * (n - k) || varint skip * k
                   (the k items whose held bit is set go as IDs the
                   summary lists, each skip + 1 above the one before,
                   the first above its integer less 8 per bitmap byte:
                   a leaf is its row, a helper its entry digest.)
                   Either way the client's table is the kind-2 or kind-0
                   body byte for byte, verified as if it had been sent:
                   DESIGN.md §6.3.

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

There is one writer and one reader, and nothing reads a frame of an
older layout (v2–v5: rounds of per-entry proofs, ``LeafRef`` /
``NodeRef`` entries): any other first byte is refused with
:class:`~repro.errors.ReproError`, which the SP protocol maps to
``ERR_BAD_REQUEST``.

The decoder fails closed: whatever the bytes, the only exception that
leaves :meth:`VOCodec.decode` is a :class:`~repro.errors.ReproError`,
and one-byte flags and tags accept exactly the values the encoder
writes.  A node table that is unsorted, repeats a position, lacks an
ancestor, shows a node that hangs nothing, sets a flag bit beyond its
arity or both ships a child and shows its row is rejected here, before
any verification runs (which children it must show needs ``cnt``, and is
the verifier's check); so are a conjunct whose keyword list is not a
permutation and a slot beyond the tables.

There is one byte reader, :class:`~repro.core.wire.Reader` (shared with
:mod:`repro.sp.protocol`): the received ``bytes`` plus an offset, so a
frame is parsed in one forward pass without copying it into a stream.
Neither table is *parsed*: each is framed and kept as the bytes it
arrived as, and the writer copies the bytes the table holds.  A Merkle
table is its kind-0 body (:meth:`TreeMultiproof.from_wire
<repro.core.multiproof.TreeMultiproof.from_wire>` walks its node widths
and checks its slot codes; the client folds the body in place), a node
table its rows (:meth:`ChameleonMultiproof.from_wire
<repro.core.chameleon.ChameleonMultiproof.from_wire>` walks them for
their offsets; group elements become integers when the client
authenticates the table).  The SP, symmetrically, writes both straight
from the trees' flat buffers.  Truncation, flag bytes outside their
bits, non-zero padding bits, slot code 3, a varint oversized or longer
than its shortest encoding (wherever it stands) and trailing bytes are
all explicit checks of the reader, the tables' framers or this module,
none of them an ``assert``.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence

from repro.core.chameleon import ChameleonMultiproof, expand_rows
from repro.core.multiproof import TreeMultiproof, expand_table
from repro.core.query.vo import ConjunctiveVO, HeldNodeTable, QueryVO, ReplayVO, TableReference
from repro.core.wire import U8, Reader, put_varint
from repro.errors import ReproError

_TABLE_MERKLE = 0
#: Kind 1 was the node table of per-slot openings; no reader is left.
_TABLE_CHAMELEON = 2
#: A reference to a table the client's request listed as held.
_TABLE_HELD = 3
#: A node table whose held nodes are short rows.
_TABLE_NODES = 4

Table = TreeMultiproof | ChameleonMultiproof

#: Kind byte of a conjunct: an empty keyword, or the plan to replay.
_KIND_EMPTY = 0
_KIND_OF_PLAN = {"cyclic": 1, "semijoin": 2}
_PLAN_OF_KIND = {kind: plan for plan, kind in _KIND_OF_PLAN.items()}

#: First byte of the frame.
_MARKER = 0xF6

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

    def _write_node_table(
        self, out: bytearray, table: ChameleonMultiproof | HeldNodeTable
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

    def _read_held_nodes(
        self, r: Reader, nodes: Sequence[tuple[dict, dict | int]]
    ) -> ChameleonMultiproof | TreeMultiproof:
        at = r.varint()
        if at >= len(nodes):
            raise ReproError(
                f"short rows under node summary {at} of {len(nodes)} listed"
            )
        held, memo = nodes[at]
        arity = r.u8()
        # A row summary comes with its floor, a node summary with a memo.
        if isinstance(memo, dict) == (not arity):
            raise ReproError(f"table of arity {arity} under summary {at} of the other family")
        if not arity:
            table, r.pos = expand_table(r.buf, r.pos, held, memo)
            return table
        count = r.varint()
        body, r.pos = expand_rows(
            r.buf, r.pos, count, arity, self.value_bytes, *nodes[at]
        )
        table, end = ChameleonMultiproof.from_wire(
            body, 0, count, arity, self.value_bytes
        )
        if end != len(body):
            raise ReproError("node table body outruns its rows")
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

        Each table goes as the kind it is: a Merkle or a node table cold
        (kinds 0 and 2), a :class:`~repro.core.query.vo.TableReference`
        as kind 3, a :class:`~repro.core.query.vo.HeldNodeTable` as
        kind 4.  Which a table is was decided when the SP finished the
        VO for the asking client
        (:func:`~repro.core.multiproof.compress_query_vo`); a VO
        finished for a client that holds nothing is the cold frame,
        ``vo.byte_size()`` bytes, as is every VO ``decode`` returns.

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
                out += table.body
            elif isinstance(table, TableReference):
                out.append(_TABLE_HELD)
                put_varint(out, table.at)
            elif isinstance(table, HeldNodeTable):
                out.append(_TABLE_NODES)
                put_varint(out, table.summary)
                if table.arity:
                    self._write_node_table(out, table)
                else:
                    out.append(0)
                    out += table.body
            else:
                raise ReproError(f"cannot encode table {type(table)!r}")
        if len(vo.conjuncts) > 0xFF:
            raise ReproError("too many conjuncts for the wire format")
        out.append(len(vo.conjuncts))
        for conjunct in vo.conjuncts:
            self._write_conjunct(out, conjunct)
        return bytes(out)

    def _read_table(
        self,
        r: Reader,
        held: Sequence[Table],
        nodes: Sequence[tuple[dict[int, bytes], dict[int, bytes]]],
    ) -> Table:
        kind = r.u8()
        if kind == _TABLE_MERKLE:
            table, r.pos = TreeMultiproof.from_wire(r.buf, r.pos)
            return table
        if kind == _TABLE_CHAMELEON:
            return self._read_node_table(r)
        if kind == _TABLE_HELD:
            at = r.varint()
            if at >= len(held):
                raise ReproError(
                    f"reference to held table {at} of {len(held)} listed"
                )
            return held[at]
        if kind == _TABLE_NODES:
            return self._read_held_nodes(r, nodes)
        raise ReproError(f"unknown table kind {kind}")

    def decode(
        self,
        payload: bytes,
        held: Sequence[Table] = (),
        nodes: Sequence[tuple[dict[int, bytes], dict[int, bytes]]] = (),
    ) -> QueryVO:
        """Parse a wire-form ``VO_sp``; raises on malformed input.

        ``held`` are the tables the request listed, in its order: a
        kind-3 reference resolves to one of them, the very object.
        ``nodes`` are the request's summaries, in its order, each as the
        statement bytes of the positions it listed and a memo of the rows
        rebuilt from them (a Merkle one: its rows by ID and its floor):
        a kind-4 table is rebuilt from the summary it names
        (:func:`~repro.core.chameleon.expand_rows`,
        :func:`~repro.core.multiproof.expand_table`), and a position or
        ID the summary lacks is refused.  Only :class:`~repro.errors.ReproError`
        escapes, whatever the bytes.
        """
        r = Reader(payload, _WHAT)
        try:
            marker = r.u8()
            if marker != _MARKER:
                raise ReproError(f"unsupported VO frame marker {marker:#x}")
            tables = tuple(
                [self._read_table(r, held, nodes) for _ in range(r.varint())]
            )
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
