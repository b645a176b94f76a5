"""A varint has one encoding, wherever it stands in a VO frame.

``0x85 0x00`` decodes to 5 just like ``0x05``; a reader that accepted it
would give one VO several wire forms (and the client's table tokens
several cache entries).  Each test pads one varint of an honest frame —
the frame's table count, a Merkle table's counts and node widths, a node
table's row count and row positions, a conjunct's slot — and the decoder
must refuse it with a :class:`~repro.errors.ReproError`.  The checks are
``pytest.raises``, so they hold under ``python -O`` too.
"""

from __future__ import annotations

import pytest

from repro.core.chameleon import ChameleonMultiproof
from repro.core.multiproof import TreeMultiproof, _frame
from repro.core.query.codec import VOCodec
from repro.core.query.parser import KeywordQuery
from repro.core.wire import put_varint, read_varint
from repro.errors import ReproError, VerificationError

from tests.sp.test_sharding import build

#: Every frame below holds one table per keyword, the first at offset 2.
TEXT = "alpha AND beta"


def frame_of(scheme):
    system, _ = build(scheme, shards=1)
    codec = VOCodec(value_bytes=system.value_bytes)
    vo = system.process_query(KeywordQuery.parse(TEXT)).vo
    frame = codec.encode(vo)
    system.close()
    if codec.encode(codec.decode(frame)) != frame:
        raise AssertionError("honest frame does not round-trip")
    return codec, vo, frame


def pad(frame: bytes, at: int) -> bytes:
    """``frame`` with the one-byte varint at ``at`` written in two bytes."""
    value = frame[at]
    if value >= 0x80:
        raise AssertionError(f"byte {at} is not a one-byte varint")
    return frame[:at] + bytes((value | 0x80, 0)) + frame[at + 1 :]


def refused(codec, frame):
    with pytest.raises(ReproError, match="shortest"):
        codec.decode(frame)


class TestReadVarint:
    @pytest.mark.parametrize("value", [0, 1, 0x7F, 0x80, 0x3FFF, 1 << 40, (1 << 64) - 1])
    def test_shortest_encodings_round_trip(self, value):
        out = bytearray()
        put_varint(out, value)
        if read_varint(bytes(out), 0) != (value, len(out)):
            raise AssertionError(f"{value} does not round-trip")

    @pytest.mark.parametrize(
        "encoded",
        [b"\x80\x00", b"\x85\x00", b"\xff\x80\x00", b"\x80\x80\x80\x00"],
    )
    def test_padded_encodings_refused(self, encoded):
        with pytest.raises(VerificationError, match="shortest"):
            read_varint(encoded, 0)

    def test_oversized_refused(self):
        with pytest.raises(VerificationError, match="oversized"):
            read_varint(b"\xff" * 10 + b"\x01", 0)


class TestFramePositions:
    def test_table_count(self):
        codec, _, frame = frame_of("smi")
        refused(codec, pad(frame, 1))  # behind the 0xF6 marker

    def test_conjunct_slot(self):
        # The frame ends with the conjunct's (keyword index, slot) pairs.
        codec, _, frame = frame_of("smi")
        refused(codec, pad(frame, len(frame) - 1))
        refused(codec, pad(frame, len(frame) - 3))


class TestMerkleTablePositions:
    """Body: u8 height || varint #nodes || (varint width || codes) * ||
    varint #helpers || digests || varint #leaves || rows."""

    def body_at(self):
        codec, vo, frame = frame_of("smi")
        table = vo.multiproofs[0]
        if not isinstance(table, TreeMultiproof) or frame[2] != 0:
            raise AssertionError("expected a Merkle table first")
        return codec, frame, 3, table.body

    def test_node_count(self):
        codec, frame, start, _ = self.body_at()
        refused(codec, pad(frame, start + 1))

    def test_node_width(self):
        codec, frame, start, _ = self.body_at()
        refused(codec, pad(frame, start + 2))

    def test_helper_and_leaf_counts(self):
        codec, frame, start, body = self.body_at()
        (_, _, helpers_at, _, leaves_at, _), _ = _frame(body, 0)
        refused(codec, pad(frame, start + helpers_at - 1))
        refused(codec, pad(frame, start + leaves_at - 1))

    def test_table_alone(self):
        _, _, _, body = self.body_at()
        padded = pad(body, 1)
        with pytest.raises(VerificationError, match="shortest"):
            TreeMultiproof.from_wire(padded, 0)
        with pytest.raises(VerificationError, match="shortest"):
            TreeMultiproof(padded).fold()


class TestNodeTablePositions:
    """A node table: u8 arity || varint #rows || root || rows, each row
    starting with its varint position and its flag byte."""

    def table_at(self, scheme):
        codec, vo, frame = frame_of(scheme)
        table = vo.multiproofs[0]
        if not isinstance(table, ChameleonMultiproof) or frame[2] != 2:
            raise AssertionError("expected a node table first")
        return codec, frame, table

    @pytest.mark.parametrize("scheme", ["ci", "ci*"])
    def test_row_count(self, scheme):
        codec, frame, _ = self.table_at(scheme)
        refused(codec, pad(frame, 4))  # marker, count, kind, arity

    @pytest.mark.parametrize("scheme", ["ci", "ci*"])
    def test_row_positions(self, scheme):
        codec, frame, table = self.table_at(scheme)
        rows = [(position, offset) for position, offset, _ in table.rows() if position]
        if not rows:
            raise AssertionError("expected a table with rows")
        for _, offset in rows:
            # The body starts at frame offset 5; a row's fields start
            # behind its one-byte position and its flag byte.
            refused(codec, pad(frame, 5 + offset - 2))
