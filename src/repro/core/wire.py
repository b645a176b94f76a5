"""The one reader of received bytes: a bounds-checked offset cursor.

Everything that crosses the SP boundary — a protocol message
(:mod:`repro.sp.protocol`) and the ``VO_sp`` inside it
(:mod:`repro.core.query.codec`) — is parsed through :class:`Reader`:
the received ``bytes``, an integer offset, precompiled :mod:`struct`
layouts.  Nothing is copied until a field is sliced out, and a run of
fixed-width fields is bounds-checked and sliced as one.

Strictness lives here so every format gets it: a read past the end, a
flag byte other than 0 or 1, text that is not UTF-8 and bytes left over
after the message all raise :class:`~repro.errors.ReproError` — never
an ``assert``, never an ``IndexError`` or ``UnicodeDecodeError`` of the
interpreter's own.  A varint, always a count or position of a VO, has
one encoding: :func:`read_varint` refuses any other.

A decoder's inner loop may keep ``buf`` and ``pos`` in locals and index
the buffer itself (a method call per byte costs more than the byte).
It then owes the same checks; running off the end surfaces there as
``IndexError`` or ``struct.error``, which the decoder's entry point
turns into the same truncation error.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator

from repro.errors import ReproError, VerificationError

U8 = struct.Struct("B")
U16 = struct.Struct(">H")
U32 = struct.Struct(">I")


def put_varint(out: bytearray, value: int) -> None:
    """Append the LEB128 encoding of a non-negative integer."""
    if value < 0:
        raise ReproError("varint values must be non-negative")
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_varint(buf: bytes, pos: int) -> tuple[int, int]:
    """The LEB128 varint at ``pos`` and the next offset.

    :class:`~repro.errors.VerificationError` for more than ten bytes or
    more than the shortest encoding.  Runs off the end with an
    ``IndexError``, which the caller maps to its truncation error.
    """
    byte = buf[pos]
    pos += 1
    if byte < 0x80:
        return byte, pos
    value = byte & 0x7F
    for shift in range(7, 70, 7):
        byte = buf[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            if not byte:
                raise VerificationError("varint not in its shortest encoding")
            return value, pos
    raise VerificationError("oversized varint")


class Reader:
    """A cursor over ``buf``; ``what`` names the format in error texts."""

    __slots__ = ("buf", "pos", "what")

    def __init__(self, buf: bytes, what: str) -> None:
        self.buf = buf
        self.pos = 0
        self.what = what

    def u8(self) -> int:
        """One byte."""
        pos = self.pos
        if pos >= len(self.buf):
            raise ReproError(f"truncated {self.what}")
        self.pos = pos + 1
        return self.buf[pos]

    def flag(self) -> bool:
        """A one-byte flag; encoders write 0 or 1 and nothing else."""
        value = self.u8()
        if value > 1:
            raise ReproError(f"invalid flag byte {value} in {self.what}")
        return value == 1

    def take(self, length: int) -> bytes:
        """The next ``length`` bytes."""
        pos = self.pos
        end = pos + length
        if end > len(self.buf):
            raise ReproError(f"truncated {self.what}")
        self.pos = end
        return self.buf[pos:end]

    def uint(self, width: int) -> int:
        """A big-endian unsigned integer of ``width`` bytes."""
        return int.from_bytes(self.take(width), "big")

    def varint(self) -> int:
        """A LEB128 varint of at most ten bytes."""
        try:
            value, self.pos = read_varint(self.buf, self.pos)
        except IndexError:
            raise ReproError(f"truncated {self.what}") from None
        return value

    def blob(self, prefix: struct.Struct) -> bytes:
        """A byte string behind a length prefix of ``prefix``'s layout."""
        (length,) = prefix.unpack(self.take(prefix.size))
        return self.take(length)

    def blobs(self, prefix: struct.Struct, count: int) -> list[bytes]:
        """``count`` length-prefixed byte strings, framed by offset."""
        buf = self.buf
        pos = self.pos
        size = len(buf)
        unpack = prefix.unpack_from
        width = prefix.size
        out = []
        for _ in range(count):
            start = pos + width
            pos = start + (unpack(buf, pos)[0] if start <= size else 0)
            if pos > size:
                raise ReproError(f"truncated {self.what}")
            out.append(buf[start:pos])
        self.pos = pos
        return out

    def text(self, prefix: struct.Struct) -> str:
        """UTF-8 text behind a length prefix of ``prefix``'s layout."""
        try:
            return str(self.blob(prefix), "utf-8")
        except UnicodeDecodeError:
            raise ReproError(f"text in {self.what} is not UTF-8") from None

    def chunks(self, count: int, size: int) -> tuple[bytes, ...]:
        """``count`` fields of ``size`` bytes each, checked as one run."""
        run = self.take(count * size)
        return tuple([run[at : at + size] for at in range(0, len(run), size)])

    def rows(self, layout: struct.Struct, count: int) -> Iterator[tuple]:
        """``count`` fixed-layout rows, checked and unpacked as one run."""
        return layout.iter_unpack(self.take(count * layout.size))

    def finish(self) -> None:
        """The message ends here; anything after it is refused."""
        if self.pos != len(self.buf):
            raise ReproError(f"trailing bytes in {self.what}")
