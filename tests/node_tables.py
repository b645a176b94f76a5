"""Forger's toolkit for Chameleon node tables.

A :class:`~repro.core.chameleon.ChameleonMultiproof` keeps its root and
rows as wire bytes; an attack wants to change one field of one node.
:func:`rows_of` parses a table into :class:`Row` objects (the one place
under ``tests/`` that knows the row layout; :func:`root_of` gives the
root as a row at position 0), :func:`table_of` writes rows back —
*without* validating them, so malformed tables can be built on purpose
— and :func:`forge` does both around a per-position edit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.chameleon import ChameleonMultiproof
from repro.core.wire import put_varint
from repro.crypto import vc


@dataclass(frozen=True)
class Row:
    """One parsed node.

    ``shipped`` maps a child index ``j`` to the commitment the row ships
    for it.  The root is a row at position 0 with no entry fields and no
    commitment (``c_0`` comes from the chain).
    """

    position: int
    commitment: int | None
    opening: int
    object_id: int | None = None
    object_hash: bytes | None = None
    read: bool = False
    shipped: dict = dataclasses.field(default_factory=dict)

    @property
    def is_entry(self) -> bool:
        return self.read


def _parse(table: ChameleonMultiproof) -> list[Row]:
    body, width = table.body, table.value_bytes

    def element(offset):
        return int.from_bytes(body[offset : offset + width], "big")

    parsed = []
    for position, offset, flags in table.rows():
        if position:
            fields = dict(
                object_id=int.from_bytes(body[offset : offset + 8], "big"),
                object_hash=body[offset + 8 : offset + 40],
                commitment=element(offset + 40),
                opening=element(offset + 40 + width),
            )
            end = offset + 40 + 2 * width
        else:
            fields = dict(commitment=None, opening=element(offset))
            end = offset + width
        shipped = {}
        for j in range(1, table.arity + 1):
            if flags >> j & 1:
                shipped[j] = element(end)
                end += width
        parsed.append(
            Row(position, read=bool(flags & 1), shipped=shipped, **fields)
        )
    return parsed


def rows_of(table: ChameleonMultiproof) -> list[Row]:
    """The table's rows below the root, parsed (the table must be well formed)."""
    return _parse(table)[1:]


def root_of(table: ChameleonMultiproof) -> Row:
    """The table's root, as a row at position 0."""
    return _parse(table)[0]


def table_of(rows, like: ChameleonMultiproof) -> ChameleonMultiproof:
    """A table of ``rows`` in the order given, with ``like``'s parameters.

    The root is ``like``'s unless ``rows`` holds a row at position 0.
    """
    width = like.value_bytes
    rows = list(rows)
    root = next((row for row in rows if row.position == 0), None)
    below = [row for row in rows if row.position != 0]
    body = bytearray()
    for row in [root or root_of(like), *below]:
        flags = int(row.read)
        for j in row.shipped:
            flags |= 1 << j
        if row.position:
            put_varint(body, row.position)
        body.append(flags)
        if row.position:
            body += row.object_id.to_bytes(8, "big") + row.object_hash
            body += row.commitment.to_bytes(width, "big")
        body += row.opening.to_bytes(width, "big")
        for j in sorted(row.shipped):
            body += row.shipped[j].to_bytes(width, "big")
    return ChameleonMultiproof(like.arity, width, len(below), bytes(body))


def forge(table: ChameleonMultiproof, edits: dict) -> ChameleonMultiproof:
    """``table`` with ``edits[position](row)`` applied; ``None`` drops the row.

    Position 0 edits the root (which cannot be dropped).
    """
    rows = []
    for row in _parse(table):
        row = edits.get(row.position, lambda r: r)(row)
        if row is not None:
            rows.append(row)
    return table_of(rows, table)


def with_table(answer, index: int, table) -> None:
    """Swap one of the answer's tables in place."""
    vo = answer.vo
    answer.vo = dataclasses.replace(
        vo, multiproofs=vo.multiproofs[:index] + (table,) + vo.multiproofs[index + 1 :]
    )


def change(**fields):
    """An edit that replaces fields of a row."""
    return lambda row: dataclasses.replace(row, **fields)


def demote(row: Row) -> Row:
    """A read row as an unread one (flag bit 0 cleared)."""
    return dataclasses.replace(row, read=False)


def plain_check(pp, table: ChameleonMultiproof):
    """A ``StatementCheck`` that verifies each node's opening on the spot."""
    return lambda _position, node, children: vc.verify_vector(
        pp, *table.statement(node, children)
    )
