"""Forger's toolkit for Chameleon node tables.

A :class:`~repro.core.chameleon.ChameleonMultiproof` keeps its rows as
wire bytes; an attack wants to change one field of one row.
:func:`rows_of` parses a table into :class:`Row` objects (the one place
under ``tests/`` that knows the row layout), :func:`table_of` writes
rows back — *without* validating them, so malformed tables can be built
on purpose — and :func:`forge` does both around a per-position edit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.chameleon import ChameleonMultiproof
from repro.core.wire import put_varint
from repro.crypto import vc


@dataclass(frozen=True)
class Row:
    """One parsed row; the last three fields are ``None`` on a node row."""

    position: int
    commitment: int
    link_proof: int
    object_id: int | None = None
    object_hash: bytes | None = None
    slot1_proof: int | None = None

    @property
    def is_entry(self) -> bool:
        return self.object_id is not None


def rows_of(table: ChameleonMultiproof) -> list[Row]:
    """The table's rows, parsed (the table must be well formed)."""
    body, width = table.body, table.value_bytes

    def element(offset):
        return int.from_bytes(body[offset : offset + width], "big")

    rows = []
    for position, offset, flag in table.rows():
        if flag:
            rows.append(
                Row(
                    position,
                    element(offset + 40),
                    element(offset + 40 + 2 * width),
                    int.from_bytes(body[offset : offset + 8], "big"),
                    body[offset + 8 : offset + 40],
                    element(offset + 40 + width),
                )
            )
        else:
            rows.append(Row(position, element(offset), element(offset + width)))
    return rows


def table_of(rows, like: ChameleonMultiproof) -> ChameleonMultiproof:
    """A table of ``rows`` in the order given, with ``like``'s parameters."""
    width = like.value_bytes
    body = bytearray()
    for row in rows:
        put_varint(body, row.position)
        body.append(row.is_entry)
        if row.is_entry:
            body += row.object_id.to_bytes(8, "big") + row.object_hash
        body += row.commitment.to_bytes(width, "big")
        if row.is_entry:
            body += row.slot1_proof.to_bytes(width, "big")
        body += row.link_proof.to_bytes(width, "big")
    return ChameleonMultiproof(like.arity, width, len(rows), bytes(body))


def forge(table: ChameleonMultiproof, edits: dict) -> ChameleonMultiproof:
    """``table`` with ``edits[position](row)`` applied; ``None`` drops the row."""
    rows = []
    for row in rows_of(table):
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
    """An entry row as a node row (flag flipped off, entry fields gone)."""
    return Row(row.position, row.commitment, row.link_proof)


def plain_check(pp):
    """An ``OpeningCheck`` that verifies each opening on the spot."""
    return lambda _position, *opening: vc.verify(pp, *opening)
