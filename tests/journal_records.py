"""A shard journal's bytes, written and read by hand for tests.

A disk shard's journal (``shard-NNN.journal``) is a header record —
``b"RPJL"``, ``u16`` version, ``u32`` epoch, then the CRC-32 of those
ten bytes — followed by one record per journaled batch: ``u32`` body
length, CRC-32 of the body, the body.  A body is the batch's ops, each
a ``u8`` tag and its values:

* ``object`` (1): ``u32`` length, the object's canonical encoding;
* ``entry`` (2): keyword, ``u64`` ID, 32-byte ``h(o)``;
* ``register`` (3): keyword, ``c_0`` at the group-element width;
* ``apply`` (4): keyword, ``u64`` position, ``u64`` ID, ``h(o)``, the
  commitment, opening and parent opening at the element width, ``u64``
  parent position, ``u8`` child index.

A keyword is a ``u8`` length and its UTF-8 bytes.  This module builds
and splits that layout independently of :mod:`repro.sp.engine`, so a
test can write any record — honest, re-sealed after an edit, or of an
op no build writes — and read back which records a journal holds.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

from repro.core.objects import DataObject

START = struct.Struct(">4sHI")  # magic, version, epoch
FRAME = struct.Struct(">II")  # body length, CRC-32 of the body
U32 = struct.Struct(">I")
U64 = struct.Struct(">Q")
TAGS = {"object": 1, "entry": 2, "register": 3, "apply": 4}
KINDS = {tag: kind for kind, tag in TAGS.items()}


def header(epoch: int, magic: bytes = b"RPJL", version: int = 1) -> bytes:
    """A journal's header record."""
    start = START.pack(magic, version, epoch)
    return start + U32.pack(zlib.crc32(start))


def seal(body: bytes) -> bytes:
    """One journal record holding ``body``."""
    return FRAME.pack(len(body), zlib.crc32(body)) + body


def keyword(text: str) -> bytes:
    blob = text.encode()
    return bytes([len(blob)]) + blob


def object_op(wire: bytes) -> bytes:
    """The op storing an object encoding, canonical or not."""
    return bytes([TAGS["object"]]) + U32.pack(len(wire)) + wire


def entry_op(text: str, object_id: int, object_hash: bytes) -> bytes:
    return bytes([TAGS["entry"]]) + keyword(text) + U64.pack(object_id) + object_hash


def split(data: bytes) -> tuple[int, list[bytes]]:
    """A well-formed journal's epoch and record bodies."""
    magic, version, epoch = START.unpack_from(data)
    if data[: START.size + 4] != header(epoch, magic, version):
        raise AssertionError("journal header does not check")
    pos, bodies = START.size + 4, []
    while pos < len(data):
        length, checksum = FRAME.unpack_from(data, pos)
        body = data[pos + FRAME.size : pos + FRAME.size + length]
        if len(body) != length or zlib.crc32(body) != checksum:
            raise AssertionError(f"journal record at {pos} does not check")
        bodies.append(body)
        pos += FRAME.size + length
    return epoch, bodies


def ops(body: bytes, value_bytes: int | None = None) -> list[tuple]:
    """The ops of one record body: ``(kind, object)`` or ``(kind,
    keyword, raw fields)``."""
    out, pos = [], 0
    while pos < len(body):
        kind = KINDS[body[pos]]
        pos += 1
        if kind == "object":
            (length,) = U32.unpack_from(body, pos)
            out.append((kind, DataObject.from_wire(body[pos + 4 : pos + 4 + length])))
            pos += 4 + length
            continue
        end = pos + 1 + body[pos]
        text = body[pos + 1 : end].decode()
        width = {"entry": 40, "register": value_bytes}.get(kind) or 57 + 3 * value_bytes
        out.append((kind, text, body[end : end + width]))
        pos = end + width
    return out


def records(path: Path, value_bytes: int | None = None) -> list[tuple]:
    """The journal at ``path`` as records: ``("epoch", n)``, then every
    op of every batch in order."""
    epoch, bodies = split(path.read_bytes())
    return [("epoch", epoch)] + [op for body in bodies for op in ops(body, value_bytes)]
