"""SP query service over a bytes-only boundary.

In deployment the client and the storage provider are separate
processes; everything they exchange is serialised.  This module
provides that boundary without committing to a transport: a
:class:`StorageProviderServer` turns request bytes into response bytes,
and a :class:`RemoteClient` drives any ``bytes -> bytes`` callable (an
in-process handle, an HTTP POST, a socket) and verifies the results
*locally* against the chain — the SP stays untrusted end to end.

Protocol v2, big-endian::

    request   version(1) || len(2) || query text
    response  version(1) || 0 || n(4) || id(8)*n
                         || m(4) || (len(4) || object)*m || len(4) || VO
              version(1) || 1 || error code(1) || len(2) || error text

An object travels as its canonical encoding
(:meth:`~repro.core.objects.DataObject.encoded`), which the SP built
once when it stored the object: a response is a ``join`` of length
prefixes and those byte strings, and the client hashes and parses the
slices it received.  The VO is the codec's frame, untouched.

Both decoders go through :class:`~repro.core.wire.Reader` and fail
closed: a status byte other than 0 or 1, text that is not UTF-8, a
length that overruns the message, bytes left over after the message or
inside an object's field all raise :class:`~repro.errors.ReproError` —
which the server answers with ``ERR_BAD_REQUEST``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro import obs
from repro.core.objects import DataObject
from repro.core.query.codec import VOCodec
from repro.core.query.parser import KeywordQuery
from repro.core.query.verify import verify_query
from repro.core.query.vo import QueryAnswer
from repro.core.wire import U16, U32, Reader

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
PROTOCOL_VERSION = 2

_STATUS_OK = 0
_STATUS_ERROR = 1

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


@dataclass(frozen=True)
class QueryRequest:
    """A keyword-search request."""

    query_text: str

    def encode(self) -> bytes:
        """Serialise to the canonical wire form."""
        return bytes((PROTOCOL_VERSION,)) + _short_text(self.query_text)

    @classmethod
    def decode(cls, payload: bytes) -> "QueryRequest":
        """Parse from the canonical wire form."""
        reader = _message(payload)
        text = reader.text(U16)
        reader.finish()
        return cls(query_text=text)


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
        objects = [
            DataObject.from_wire(reader.blob(U32))
            for _ in range(reader.uint(4))
        ]
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
            answer = self._system.process_query(query)
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
class RemoteQueryResult:
    """A verified answer obtained over the wire."""

    result_ids: list[int]
    objects: dict[int, DataObject]
    vo_sp_bytes: int
    vo_chain_bytes: int


class RemoteClient:
    """Queries an untrusted SP over bytes and verifies locally.

    ``transport`` is any ``bytes -> bytes`` callable reaching the SP;
    ``system`` supplies the *chain-side* reads only (``VO_chain`` and
    the proof system) — in a real deployment this is the client's own
    light-client view of the blockchain.
    """

    def __init__(
        self, transport: Callable[[bytes], bytes], system: HybridStorageSystem
    ) -> None:
        self._transport = transport
        self._system = system
        self._codec = VOCodec(value_bytes=system.value_bytes)

    def query(self, text: str) -> RemoteQueryResult:
        """Run a query; returns verified results."""
        with obs.span("client.query") as root_span:
            with obs.span("client.parse"):
                query = KeywordQuery.parse(text)
            with obs.span("client.request"):
                raw = self._transport(QueryRequest(query_text=text).encode())
            response = QueryResponse.decode(raw)
            if response.error is not None:
                code = ERROR_CODE_NAMES.get(
                    response.error_code, str(response.error_code)
                )
                raise QueryError(
                    f"SP returned an error ({code}): {response.error}"
                )
            with obs.span("client.vo_decode", bytes=len(response.vo_bytes)):
                vo = self._codec.decode(response.vo_bytes)
            # One object per result ID, in the IDs' order: an object the
            # SP slipped in beside them would be checked against nothing
            # below (verification walks the verified IDs, not the list).
            if [obj.object_id for obj in response.objects] != response.result_ids:
                raise VerificationError(
                    "response objects are not exactly one per result ID, "
                    "in ID order"
                )
            answer = QueryAnswer(
                result_ids=response.result_ids,
                objects={obj.object_id: obj for obj in response.objects},
                vo=vo,
            )
            with obs.span("client.chain"):
                proof_system = self._system.chain_proof_system(
                    query.all_keywords()
                )
            with obs.span("client.verify"):
                verified = verify_query(query, answer, proof_system)
            root_span.set(results=len(verified.ids))
        return RemoteQueryResult(
            result_ids=sorted(verified.ids),
            objects=answer.objects,
            vo_sp_bytes=len(response.vo_bytes),
            vo_chain_bytes=proof_system.chain_digest_bytes(),
        )
