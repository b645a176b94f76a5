"""SP query service over a bytes-only boundary.

In deployment the client and the storage provider are separate
processes; everything they exchange is serialised.  This module
provides that boundary without committing to a transport: a
:class:`StorageProviderServer` turns request bytes into response bytes,
and a :class:`RemoteClient` drives any ``bytes -> bytes`` callable (an
in-process handle, an HTTP POST, a socket) and verifies the results
*locally* against the chain — the SP stays untrusted end to end.

Protocol v4, big-endian::

    request   version(1) || len(2) || query text
                         || n(1) || (varint table size || token(32))*n
                         || m(1) || summary*m
    summary   len(1) || keyword || varint cnt || varint b || bitmap(b)
    response  version(1) || 0 || n(4) || id(8)*n
                         || m(4) || (len(4) || object)*m || len(4) || VO
              version(1) || 1 || error code(1) || len(2) || error text

A request lists, per keyword of the query, the tables the client's
session holds verified (:meth:`~repro.core.proofcache.VerificationCache.held`):
each table's encoded size and its ``cache_token()``, at most
:data:`~repro.core.proofcache.HELD_TABLES` of them.  The SP writes a
table of its answer that matches an entry as a one-byte kind-3
reference to it.

It then lists, per keyword of the query that the session holds nodes
of (:meth:`~repro.core.proofcache.VerificationCache.held_nodes`), a
node summary: the keyword, the ``cnt`` they were proven under and their
positions as a bitmap — bit ``p % 8`` of byte ``p // 8`` for position
``p``.  The bounds: at most
:data:`~repro.core.proofcache.HELD_NODE_KEYWORDS` summaries, in strictly
ascending keyword order; ``cnt < 2^64``; a bitmap of 1 to
:data:`~repro.core.proofcache.HELD_NODE_BYTES` bytes whose last byte is
not zero and whose highest position is at most ``cnt``.  The SP writes
a node table whose keyword is listed under the ``cnt`` it was proven at
as table kind 4, each listed node a short row.  Both lists are matched
once, as the SP finishes the VO
(:func:`~repro.core.multiproof.compress_query_vo`); the SP keeps no
state of its own, and a request that lists nothing is answered with the
cold VO.

An object travels as its canonical encoding
(:meth:`~repro.core.objects.DataObject.encoded`), which the SP built
once when it stored the object: a response is a ``join`` of length
prefixes and those byte strings, and the client hashes and parses the
slices it received.  The VO is the codec's frame, untouched.

Both decoders go through :class:`~repro.core.wire.Reader` and fail
closed: a status byte other than 0 or 1, text that is not UTF-8, a
length that overruns the message, a varint longer than its shortest
encoding, a list over its bound, bytes left over after the message or
inside an object's field all raise :class:`~repro.errors.ReproError` —
which the server answers with ``ERR_BAD_REQUEST``.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro import obs
from repro.core.objects import DataObject
from repro.core.proofcache import (
    HELD_NODE_BYTES,
    HELD_NODE_KEYWORDS,
    HELD_TABLES,
)
from repro.core.query.codec import VOCodec
from repro.core.query.parser import KeywordQuery
from repro.core.query.verify import ProofSystem, verify_query
from repro.core.query.vo import QueryAnswer, QueryVO
from repro.core.wire import U8, U16, U32, Reader, put_varint, read_varint

if TYPE_CHECKING:
    from repro.core.system import HybridStorageSystem
from repro.errors import (
    DatasetError,
    QueryError,
    QueryLimitError,
    ReproError,
    VerificationError,
)

#: Protocol version byte, bumped on breaking format changes.
#: v2: error responses carry a machine-readable error-code byte.
#: v3: a request lists the tables the client holds.
#: v4: ... and the nodes it holds, per keyword.
PROTOCOL_VERSION = 4

_STATUS_OK = 0
_STATUS_ERROR = 1

#: Width of a table's ``cache_token()``.
TOKEN_BYTES = 32

# -- machine-readable error codes (one byte on the wire) ---------------------

#: No error (never serialised; the OK status byte covers it).
ERR_NONE = 0
#: The request bytes could not be decoded (truncated, bad version...)
#: or ask for more than the parser admits (keyword length, nesting,
#: conjunctions in DNF).
ERR_BAD_REQUEST = 1
#: The query expression was malformed or uses an unsupported shape.
ERR_QUERY = 2
#: The SP failed internally while answering a well-formed query.
ERR_INTERNAL = 3

ERROR_CODE_NAMES = {
    ERR_NONE: "none",
    ERR_BAD_REQUEST: "bad-request",
    ERR_QUERY: "query",
    ERR_INTERNAL: "internal",
}


def _message(payload: bytes) -> Reader:
    """A reader positioned after a checked version byte."""
    reader = Reader(payload, "protocol message")
    version = reader.u8()
    if version != PROTOCOL_VERSION:
        raise ReproError(f"unsupported protocol version {version}")
    return reader


def _short_text(text: str) -> bytes:
    """``len(2) || UTF-8`` (query and error texts)."""
    blob = text.encode("utf-8")
    if len(blob) > 0xFFFF:
        raise ReproError("text too long for the protocol's 2-byte length")
    return U16.pack(len(blob)) + blob


#: One node summary: ``(keyword, cnt, bitmap)``.
NodeSummary = tuple[str, int, bytes]


def _check_summaries(nodes: tuple[NodeSummary, ...]) -> None:
    """Refuse summaries beyond the bounds or out of their one form."""
    if len(nodes) > HELD_NODE_KEYWORDS:
        raise ReproError(
            f"request lists {len(nodes)} node summaries, at most "
            f"{HELD_NODE_KEYWORDS}"
        )
    previous = ""
    for keyword, count, bitmap in nodes:
        if keyword <= previous:
            raise ReproError(
                "node summaries are not in ascending keyword order, or one "
                "names no keyword"
            )
        previous = keyword
        if not 0 <= count < 1 << 64:
            raise ReproError(f"node summary count {count} out of range")
        if not 0 < len(bitmap) <= HELD_NODE_BYTES or not bitmap[-1]:
            raise ReproError(
                f"node summary of {keyword!r} is not a bitmap of 1 to "
                f"{HELD_NODE_BYTES} bytes ending in a position"
            )
        if 8 * len(bitmap) - 8 + bitmap[-1].bit_length() - 1 > count:
            raise ReproError("node summary lists a position beyond its count")


@dataclass(frozen=True)
class QueryRequest:
    """A keyword-search request and what its sender holds.

    ``held`` is ``(byte_size, cache_token)`` per held table, at most
    :data:`~repro.core.proofcache.HELD_TABLES`; ``nodes`` one
    ``(keyword, cnt, bitmap)`` summary per keyword the sender holds
    nodes of (see the module docstring for their bounds).
    """

    query_text: str
    held: tuple[tuple[int, bytes], ...] = ()
    nodes: tuple[NodeSummary, ...] = ()

    def encode(self) -> bytes:
        """Serialise to the canonical wire form."""
        if len(self.held) > HELD_TABLES:
            raise ReproError(f"a request lists at most {HELD_TABLES} tables")
        _check_summaries(self.nodes)
        out = bytearray((PROTOCOL_VERSION,))
        out += _short_text(self.query_text)
        out.append(len(self.held))
        for size, token in self.held:
            if len(token) != TOKEN_BYTES:
                raise ReproError("a table token is 32 bytes")
            put_varint(out, size)
            out += token
        out.append(len(self.nodes))
        for keyword, count, bitmap in self.nodes:
            name = keyword.encode("utf-8")
            if len(name) > 0xFF:
                raise ReproError("a summary's keyword is at most 255 bytes")
            out.append(len(name))
            out += name
            put_varint(out, count)
            put_varint(out, len(bitmap))
            out += bitmap
        return bytes(out)

    @classmethod
    def decode(cls, payload: bytes) -> "QueryRequest":
        """Parse from the canonical wire form."""
        reader = _message(payload)
        text = reader.text(U16)
        count = reader.u8()
        if count > HELD_TABLES:
            raise ReproError(
                f"request lists {count} held tables, at most {HELD_TABLES}"
            )
        buf = reader.buf
        pos = reader.pos
        held = []
        try:
            for _ in range(count):
                size, pos = read_varint(buf, pos)
                end = pos + TOKEN_BYTES
                if end > len(buf):
                    raise IndexError
                held.append((size, buf[pos:end]))
                pos = end
        except IndexError:
            raise ReproError(f"truncated {reader.what}") from None
        reader.pos = pos
        nodes = []
        summaries = reader.u8()
        if summaries > HELD_NODE_KEYWORDS:
            raise ReproError(
                f"request lists {summaries} node summaries, at most "
                f"{HELD_NODE_KEYWORDS}"
            )
        for _ in range(summaries):
            keyword = reader.text(U8)
            held_count = reader.varint()
            size = reader.varint()
            if size > HELD_NODE_BYTES:
                raise ReproError(
                    f"node summary bitmap of {size} bytes, at most "
                    f"{HELD_NODE_BYTES}"
                )
            nodes.append((keyword, held_count, reader.take(size)))
        nodes = tuple(nodes)
        _check_summaries(nodes)
        reader.finish()
        return cls(query_text=text, held=tuple(held), nodes=nodes)


@dataclass
class QueryResponse:
    """The SP's serialisable answer."""

    result_ids: list[int]
    objects: list[DataObject]
    vo_bytes: bytes
    error: str | None = None
    error_code: int = ERR_NONE

    def encode(self) -> bytes:
        """Serialise to the canonical wire form."""
        if self.error is not None:
            code = self.error_code if self.error_code else ERR_INTERNAL
            return bytes((PROTOCOL_VERSION, _STATUS_ERROR, code)) + _short_text(
                self.error
            )
        ids = self.result_ids
        parts = [
            bytes((PROTOCOL_VERSION, _STATUS_OK)),
            struct.pack(f">I{len(ids)}QI", len(ids), *ids, len(self.objects)),
        ]
        for obj in self.objects:
            wire = obj.encoded()
            parts.append(U32.pack(len(wire)))
            parts.append(wire)
        parts.append(U32.pack(len(self.vo_bytes)))
        parts.append(self.vo_bytes)
        return b"".join(parts)

    @classmethod
    def decode(cls, payload: bytes) -> "QueryResponse":
        """Parse from the canonical wire form."""
        reader = _message(payload)
        if reader.flag():
            code = reader.u8()
            error = reader.text(U16)
            reader.finish()
            return cls(
                result_ids=[],
                objects=[],
                vo_bytes=b"",
                error=error,
                error_code=code,
            )
        n_ids = reader.uint(4)
        result_ids = list(struct.unpack(f">{n_ids}Q", reader.take(8 * n_ids)))
        from_wire = DataObject.from_wire
        objects = [from_wire(wire) for wire in reader.blobs(U32, reader.uint(4))]
        vo_bytes = reader.blob(U32)
        reader.finish()
        return cls(result_ids=result_ids, objects=objects, vo_bytes=vo_bytes)


class StorageProviderServer:
    """Handles serialised query requests against a loaded system's SP.

    Only the SP-side state is touched: the server never consults the
    chain, mirroring the trust boundary of Fig. 1.
    """

    def __init__(self, system: HybridStorageSystem) -> None:
        self._system = system
        self._codec = VOCodec(value_bytes=system.value_bytes)

    def handle(self, request_bytes: bytes) -> bytes:
        """Process one serialised request into a response."""
        with obs.span("sp.request", bytes_in=len(request_bytes)) as req_span:
            obs.inc("sp.requests")
            obs.inc("sp.request_bytes", len(request_bytes))
            response = self._answer(request_bytes)
            if response.error is not None:
                obs.inc("sp.errors")
                req_span.set(
                    error=ERROR_CODE_NAMES.get(
                        response.error_code, response.error_code
                    )
                )
            payload = response.encode()
            obs.inc("sp.response_bytes", len(payload))
            req_span.set(bytes_out=len(payload))
        return payload

    def _answer(self, request_bytes: bytes) -> QueryResponse:
        def error(code: int, exc: Exception) -> QueryResponse:
            return QueryResponse(
                result_ids=[],
                objects=[],
                vo_bytes=b"",
                error=str(exc),
                error_code=code,
            )

        try:
            request = QueryRequest.decode(request_bytes)
        except ReproError as exc:
            return error(ERR_BAD_REQUEST, exc)
        try:
            query = KeywordQuery.parse(request.query_text)
        except (QueryLimitError, DatasetError) as exc:
            # A keyword beyond the 255-byte wire limit, nesting or a DNF
            # beyond the parser's bounds: the request is refused for its
            # size, not for the query's structure.
            return error(ERR_BAD_REQUEST, exc)
        except QueryError as exc:
            return error(ERR_QUERY, exc)
        try:
            answer = self._system.process_query(query, request.held, request.nodes)
            return QueryResponse(
                result_ids=answer.result_ids,
                objects=[answer.objects[oid] for oid in answer.result_ids],
                vo_bytes=self._codec.encode(answer.vo),
            )
        except QueryError as exc:
            return error(ERR_QUERY, exc)
        except ReproError as exc:
            return error(ERR_INTERNAL, exc)


@dataclass
class QueryResult:
    """A verified answer: the results and what obtaining them cost."""

    query: KeywordQuery
    result_ids: list[int]
    objects: dict[int, DataObject]
    #: Length of the ``VO_sp`` bytes received: a held table costs its
    #: reference (see :attr:`vo_cold_bytes`).
    vo_sp_bytes: int
    vo_chain_bytes: int
    #: The transport round trip.
    sp_seconds: float
    #: ``verify_query`` alone.
    verify_seconds: float
    _vo: QueryVO = field(repr=False)

    @property
    def vo_proof_bytes(self) -> int:
        """Proof-only share of ``vo_sp_bytes``: the tables without their
        ``id + hash`` rows (counted on demand; a node table's rows are
        parsed to count them)."""
        return self._vo.proof_byte_size()

    @property
    def vo_cold_bytes(self) -> int:
        """``VO_sp`` as a client holding nothing receives it — every
        table in full — counted from the resolved VO.  The paper's VO
        size (Figs. 11–13) is this plus ``vo_chain_bytes``."""
        return self._vo.byte_size()

    @property
    def vo_total_bytes(self) -> int:
        """Total VO size: ``VO_sp`` plus ``VO_chain`` bytes."""
        return self.vo_sp_bytes + self.vo_chain_bytes


@dataclass
class Fetched:
    """An SP response not yet verified, and the chain read to check it."""

    query: KeywordQuery
    response: QueryResponse
    proof_system: ProofSystem
    sp_seconds: float
    #: The tables the request listed, in its order: what a reference
    #: in the VO resolves to.
    held: tuple = ()
    #: Per node summary the request listed, in its order, the statement
    #: bytes of its positions — what a short row is rebuilt from — and
    #: the memo of rows rebuilt from them.
    nodes: tuple = ()


class RemoteClient:
    """Queries an untrusted SP over bytes and verifies locally.

    ``transport`` is any ``bytes -> bytes`` callable reaching the SP;
    ``system`` supplies the *chain-side* reads only (``VO_chain`` and
    the proof system) — in a real deployment this is the client's own
    light-client view of the blockchain — and is held still
    (``system.reading()``) from each request until its chain read.
    ``system.query`` is this client over the in-process
    :class:`StorageProviderServer`.
    """

    def __init__(
        self, transport: Callable[[bytes], bytes], system: HybridStorageSystem
    ) -> None:
        self._transport = transport
        self._system = system
        self._codec = VOCodec(value_bytes=system.value_bytes)

    def query(self, text: str) -> QueryResult:
        """Run a query; returns verified results."""
        with obs.span("query", scheme=self._system.scheme.value) as root_span:
            result = self.verify(self.fetch(text))
            root_span.set(
                keywords=len(result.query.all_keywords()),
                results=len(result.result_ids),
                vo_bytes=result.vo_total_bytes,
            )
        obs.inc("query.count")
        obs.observe("query.sp_seconds", result.sp_seconds,
                    buckets=obs.TIME_BUCKETS_S)
        obs.observe("query.verify_seconds", result.verify_seconds,
                    buckets=obs.TIME_BUCKETS_S)
        obs.observe("vo.bytes", result.vo_total_bytes,
                    buckets=obs.SIZE_BUCKETS_BYTES)
        return result

    def fetch(self, text: str) -> Fetched:
        """Parse, ask the SP, and read ``VO_chain`` for its answer.

        The system holds still from the request until the chain read
        returns, so the answer and the digests describe one state.
        """
        tp = time.perf_counter()
        with obs.span("query.parse"):
            query = KeywordQuery.parse(text)
        obs.observe("query.parse_seconds", time.perf_counter() - tp,
                    buckets=obs.TIME_BUCKETS_S)
        cache = self._system.verify_cache
        keywords = sorted(query.all_keywords())
        held = tuple(cache.held(keywords))
        nodes = tuple(cache.held_nodes(keywords))
        request = QueryRequest(
            query_text=text,
            held=tuple((table.byte_size(), table.cache_token()) for table in held),
            nodes=tuple(summary[:3] for summary in nodes),
        )
        with self._system.reading():
            t0 = time.perf_counter()
            with obs.span("query.request"):
                raw = self._transport(request.encode())
            sp_seconds = time.perf_counter() - t0
            response = QueryResponse.decode(raw)
            if response.error is not None:
                code = ERROR_CODE_NAMES.get(
                    response.error_code, str(response.error_code)
                )
                raise QueryError(
                    f"SP returned an error ({code}): {response.error}"
                )
            # One object per result ID, in the IDs' order: an object the
            # SP slipped in beside them would be checked against nothing
            # (verification walks the verified IDs, not the list).
            if [obj.object_id for obj in response.objects] != response.result_ids:
                raise VerificationError(
                    "response objects are not exactly one per result ID, "
                    "in ID order"
                )
            tc = time.perf_counter()
            with obs.span("query.chain", keywords=len(query.all_keywords())):
                proof_system = self._system.chain_proof_system(
                    query.all_keywords()
                )
            obs.observe("query.chain_seconds", time.perf_counter() - tc,
                        buckets=obs.TIME_BUCKETS_S)
        return Fetched(
            query,
            response,
            proof_system,
            sp_seconds,
            held,
            tuple(summary[3:] for summary in nodes),
        )

    def verify(self, fetched: Fetched) -> QueryResult:
        """Decode ``VO_sp`` and check the answer against the chain read."""
        response = fetched.response
        with obs.span("query.vo_decode", bytes=len(response.vo_bytes)):
            vo = self._codec.decode(response.vo_bytes, fetched.held, fetched.nodes)
        answer = QueryAnswer(
            result_ids=response.result_ids,
            objects={obj.object_id: obj for obj in response.objects},
            vo=vo,
        )
        t0 = time.perf_counter()
        with obs.span("query.verify"):
            verified = verify_query(fetched.query, answer, fetched.proof_system)
        verify_seconds = time.perf_counter() - t0
        return QueryResult(
            query=fetched.query,
            result_ids=sorted(verified.ids),
            objects=answer.objects,
            vo_sp_bytes=len(response.vo_bytes),
            vo_chain_bytes=fetched.proof_system.chain_digest_bytes(),
            sp_seconds=fetched.sp_seconds,
            verify_seconds=verify_seconds,
            _vo=vo,
        )
