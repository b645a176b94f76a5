"""Attacks on held-node short rows (protocol v4, table kind 4).

A client's request lists, per keyword, the nodes its session has proven:
the ``cnt`` they were proven under and a bitmap of their positions.  The
SP may then send a listed node as a short row — its position and flags —
and the client rebuilds the row's bytes from the statement it holds,
then verifies the rebuilt table as if it had been sent.  Each attack
below is an SP that shortens a row it must not — a node the client never
proved, one it did not list, one proven under an older ``cnt``, one
under another keyword — and each must be refused, by the decoder or by
verification.  A request whose summaries are malformed is refused by the
SP with ``ERR_BAD_REQUEST``.  The checks raise on their own, so they
hold under ``python -O`` too.
"""

from __future__ import annotations

import pytest

from repro import DataObject, HybridStorageSystem, KeywordQuery
from repro.core import proofcache
from repro.core.proofcache import HELD_NODE_BYTES, HELD_NODE_KEYWORDS
from repro.core.query.codec import VOCodec
from repro.errors import ReproError, VerificationError
from repro.sp.protocol import (
    ERR_BAD_REQUEST,
    QueryRequest,
    QueryResponse,
    RemoteClient,
    StorageProviderServer,
)
from tests.attacks.test_chameleon_attacks import _fill

SCAN = "covid-19"
OTHER = "symptom"
BOTH = "covid-19 OR symptom"
#: Proves some of covid-19's nodes, not all.
SELECTIVE = "covid-19 AND vaccine"


def require(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(what)


def bitmap(positions) -> bytes:
    mask = sum(1 << position for position in positions)
    return mask.to_bytes((mask.bit_length() + 7) // 8, "little")


@pytest.fixture(params=["ci", "ci*"])
def system(request):
    system = HybridStorageSystem(scheme=request.param, seed=5, cvc_modulus_bits=512)
    _fill(system)
    yield system
    system.close()


class LyingSP:
    """A transport that answers honestly, but against summaries of its
    own: ``forge(request)`` returns the ``(keyword, cnt, bitmap)`` list
    to finish the VO against, in place of the request's.  No table goes
    as a whole-table reference.  ``frames`` keeps what was
    sent; a frame's third byte is its first table's kind.
    """

    def __init__(self, system, forge):
        self.system = system
        self.codec = VOCodec(value_bytes=system.value_bytes)
        self.forge = forge
        self.frames: list[bytes] = []

    def __call__(self, raw: bytes) -> bytes:
        request = QueryRequest.decode(raw)
        answer = self.system.process_query(
            KeywordQuery.parse(request.query_text), (), self.forge(request)
        )
        vo_bytes = self.codec.encode(answer.vo)
        self.frames.append(vo_bytes)
        return QueryResponse(
            result_ids=answer.result_ids,
            objects=[answer.objects[oid] for oid in answer.result_ids],
            vo_bytes=vo_bytes,
        ).encode()


def summary_of(system, keyword):
    """The session's listing for ``keyword``: ``(keyword, cnt, bitmap,
    statements, rebuilt)``."""
    (listing,) = system.verify_cache.held_nodes([keyword])
    return listing


def test_short_row_for_a_node_never_proven_is_refused(system):
    system.query(SELECTIVE)
    _, count, _, statements, _ = summary_of(system, SCAN)
    require(0 < len(statements) < count + 1, "the session proved some nodes")

    def every_node(request):
        return [(SCAN, count, bitmap(range(count + 1)))]

    sp = LyingSP(system, every_node)
    with pytest.raises(ReproError, match="does not hold"):
        RemoteClient(sp, system).query(SCAN)
    require(sp.frames[0][2] == 4, "the scan went with short rows")
    require(
        system.query(SCAN).result_ids == [1, 2, 4, 5, 7, 8, 10, 12],
        "the honest answer still verifies",
    )


def test_short_row_for_a_node_not_listed_is_refused(system, monkeypatch):
    system.query(SCAN)
    # Lists positions 0-7 only: node 8 is proven but not listed.
    monkeypatch.setattr(proofcache, "HELD_NODE_BYTES", 1)
    _, count, listed, statements, _ = summary_of(system, SCAN)
    require(count == 8 and listed == b"\xff", "node 8 is left out")
    require(8 not in statements, "the listing holds only what it lists")

    def with_node_8(request):
        require(request.nodes == ((SCAN, 8, b"\xff"),), "the honest listing")
        return [(SCAN, 8, bitmap(range(9)))]

    sp = LyingSP(system, with_node_8)
    with pytest.raises(ReproError, match="node 8, which the session does not hold"):
        RemoteClient(sp, system).query(SCAN)
    require(
        system.query(SCAN).result_ids == [1, 2, 4, 5, 7, 8, 10, 12],
        "the honest answer still verifies",
    )


def test_stale_summary_is_refused(system):
    system.query(SCAN)
    system.add_object(DataObject(13, (SCAN,), b"c13"))

    def as_if_current(request):
        # The session listed its nodes under cnt 8; the tree holds 9.
        ((keyword, count, held),) = request.nodes
        require(count == 8, "the summary is the session's")
        return [(keyword, 9, held)]

    sp = LyingSP(system, as_if_current)
    with pytest.raises(ReproError):
        RemoteClient(sp, system).query(SCAN)
    require(sp.frames[0][2] == 4, "the stale nodes went as short rows")
    honest = StorageProviderServer(system)
    frames = []

    def transport(raw: bytes) -> bytes:
        response = honest.handle(raw)
        frames.append(QueryResponse.decode(response).vo_bytes)
        return response

    result = RemoteClient(transport, system).query(SCAN)
    require(frames[0][2] == 2, "an honest SP does not use a stale summary")
    require(
        result.result_ids == [1, 2, 4, 5, 7, 8, 10, 12, 13],
        "the grown tree's honest answer still verifies",
    )


def test_short_rows_under_another_keywords_summary_are_refused(system):
    system.query(SCAN)
    system.query(OTHER)
    scan_count = summary_of(system, SCAN)[1]
    other_count = summary_of(system, OTHER)[1]
    shared = bitmap(range(other_count + 1))

    def swapped(request):
        # The client listed covid-19 then symptom: each keyword's table
        # names the other's summary, and rebuilds from its nodes.
        require([s[0] for s in request.nodes] == [SCAN, OTHER], "both listed")
        return [(OTHER, other_count, shared), (SCAN, scan_count, shared)]

    sp = LyingSP(system, swapped)
    with pytest.raises(VerificationError):
        RemoteClient(sp, system).query(BOTH)
    require(sp.frames[0][2] == 4, "the tables went with short rows")
    # The frame decodes: it is verification that refuses the rebuilt rows.
    listings = system.verify_cache.held_nodes([SCAN, OTHER])
    codec = VOCodec(value_bytes=system.value_bytes)
    forged = codec.decode(sp.frames[0], (), [listing[3:] for listing in listings])
    cold = system.process_query(KeywordQuery.parse(BOTH)).vo
    require(forged.multiproofs != cold.multiproofs, "other nodes were rebuilt")
    require(
        system.query(BOTH).result_ids == [1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12],
        "the honest answer still verifies",
    )


def test_short_rows_without_a_summary_are_refused(system):
    system.query(SCAN)
    _, count, held, _, _ = summary_of(system, SCAN)
    system.verify_cache.clear()
    require(not system.verify_cache.held_nodes([SCAN]), "a fresh session holds nothing")

    sp = LyingSP(system, lambda request: [(SCAN, count, held)])
    with pytest.raises(ReproError, match="node summary 0 of 0"):
        RemoteClient(sp, system).query(SCAN)
    require(sp.frames[0][2] == 4, "the frame holds short rows")


def test_a_summary_under_a_merkle_root_gets_the_cold_vo():
    """An SMI tree's root digest is public, so a client can list a
    summary whose integer is the digest's last eight bytes — the part a
    node table's root ``c_0 || cnt`` ends in.  For a Merkle keyword the
    integer is the ID of bit 0, and no row of the tree has that ID: the
    request is answered, with the cold VO (held rows: test_held_rows.py)."""
    system = HybridStorageSystem(scheme="smi", seed=5)
    _fill(system)
    server = StorageProviderServer(system)

    def ask(text, nodes=()):
        return QueryResponse.decode(server.handle(QueryRequest(text, nodes=nodes).encode()))

    for text, keywords in ((SCAN, (SCAN,)), (BOTH, (SCAN, OTHER))):
        nodes = tuple(
            (kw, int.from_bytes(system._sp_view(kw).tree.root_hash[-8:], "big"), b"\x01")
            for kw in keywords
        )
        response = ask(text, nodes)
        require(response.error is None, f"{text!r} is answered: {response.error}")
        require(response.vo_bytes == ask(text).vo_bytes, "with the cold VO")
    system.close()


def refused(server, payload: bytes) -> bool:
    response = QueryResponse.decode(server.handle(payload))
    return response.error is not None and response.error_code == ERR_BAD_REQUEST


def test_malformed_summaries_are_bad_requests(system):
    server = StorageProviderServer(system)
    honest = QueryRequest(query_text=SCAN, nodes=((SCAN, 8, b"\x07"),)).encode()
    require(QueryRequest.decode(honest).nodes == ((SCAN, 8, b"\x07"),), "round trip")
    require(not refused(server, honest), "an honest summary is answered")
    # Up to the summaries' count: version, text, an empty table list.
    head = honest[: 1 + 2 + len(SCAN) + 1]
    name = bytes((len(SCAN),)) + SCAN.encode()

    def summaries(*entries: bytes) -> bytes:
        return head + bytes((len(entries),)) + b"".join(entries)

    require(summaries(name + b"\x08\x01\x07") == honest, "the layout")
    oversized = bytes(HELD_NODE_BYTES) + b"\x01"
    mutants = {
        "truncated bitmap": honest[:-1],
        "truncated summary": summaries(name + b"\x08"),
        "count beyond the summaries": head + b"\x02" + name + b"\x08\x01\x07",
        "padded count": summaries(name + b"\x88\x00\x01\x07"),
        "padded bitmap size": summaries(name + b"\x08\x81\x00\x07"),
        "empty bitmap": summaries(name + b"\x08\x00"),
        "bitmap ending in a zero byte": summaries(name + b"\x08\x02\x07\x00"),
        "bitmap over the bound": summaries(
            name + b"\x08" + bytes((0x81, 0x04)) + oversized
        ),
        "position beyond the count": summaries(name + b"\x01\x01\x07"),
        "count of 2^64": summaries(name + b"\x80" * 9 + b"\x02\x01\x07"),
        "empty keyword": summaries(b"\x00\x08\x01\x07"),
        "keywords out of order": summaries(
            b"\x01z\x08\x01\x07", b"\x01a\x08\x01\x07"
        ),
        "keyword listed twice": summaries(name + b"\x08\x01\x07", name + b"\x08\x01\x07"),
        "more summaries than the bound": head
        + bytes((HELD_NODE_KEYWORDS + 1,))
        + b"".join(
            bytes((2,)) + b"k%c" % (0x41 + i) + b"\x08\x01\x07"
            for i in range(HELD_NODE_KEYWORDS + 1)
        ),
        "trailing bytes": honest + b"\x00",
    }
    for label, payload in mutants.items():
        require(refused(server, payload), f"{label} is refused")
        with pytest.raises(ReproError):
            QueryRequest.decode(payload)
    for nodes in (
        ((SCAN, 8, b""),),
        ((SCAN, 2, b"\x07\x01"),),
        ((SCAN, 8, b"\x07"), (SCAN, 8, b"\x07")),
        ((SCAN, 2**64, b"\x07"),),
    ):
        with pytest.raises(ReproError):
            QueryRequest(query_text=SCAN, nodes=nodes).encode()
