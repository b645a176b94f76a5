"""Attacks on held-table references (protocol v3, table kind 3).

A client's request lists the tables its session holds verified; the SP
may send a one-byte reference to one of them instead of its bytes.  A
reference only ever stands for bytes the client already has, which it
then verifies under the *current* chain read exactly as if they had been
sent.  Each attack below is an SP that points a reference somewhere it
must not — beyond the list, at another keyword's table, at a table the
tree has outgrown, at a list the client never sent — and each must be
refused.  A request whose list is malformed is refused by the SP with
``ERR_BAD_REQUEST``.  The checks raise on their own, so they hold under
``python -O`` too.
"""

from __future__ import annotations

import pytest

from repro import DataObject, HybridStorageSystem, KeywordQuery
from repro.core.proofcache import HELD_TABLES
from repro.core.query.codec import VOCodec
from repro.core.query.vo import QueryVO, TableReference
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

SCHEMES = {"smi": {}, "ci": {"cvc_modulus_bits": 512}}


def require(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(what)


@pytest.fixture(params=sorted(SCHEMES))
def system(request):
    system = HybridStorageSystem(scheme=request.param, seed=5, **SCHEMES[request.param])
    _fill(system)
    yield system
    system.close()


def as_sent(tables, held):
    """``tables`` as an SP sends them to a client that lists ``held``:
    each table listed goes as a reference to its first listing."""
    listed = {}
    for at, entry in enumerate(held):
        listed.setdefault(entry, at)
    return tuple(
        TableReference(listed[entry])
        if (entry := (table.byte_size(), table.cache_token())) in listed
        else table
        for table in tables
    )


class LyingSP:
    """A transport that answers honestly, then rewrites the VO.

    ``rewrite(vo)`` returns the tables to send in place of the honest
    ones; a table the request lists goes as a reference
    (:func:`as_sent`).  ``frame(vo, request)`` writes the VO bytes
    itself from the cold VO.  ``frames`` keeps what was sent; a frame's
    third byte is its first table's kind.
    """

    def __init__(self, system, rewrite=None, frame=None):
        self.system = system
        self.codec = VOCodec(value_bytes=system.value_bytes)
        self.rewrite = rewrite
        self.frame = frame
        self.frames: list[bytes] = []

    def __call__(self, raw: bytes) -> bytes:
        request = QueryRequest.decode(raw)
        answer = self.system.process_query(KeywordQuery.parse(request.query_text))
        vo = answer.vo
        if self.rewrite is not None:
            vo = QueryVO(conjuncts=vo.conjuncts, multiproofs=self.rewrite(vo))
        vo_bytes = self.codec.encode(
            QueryVO(vo.conjuncts, as_sent(vo.multiproofs, request.held))
        )
        if self.frame is not None:
            vo_bytes = self.frame(vo, request)
        self.frames.append(vo_bytes)
        return QueryResponse(
            result_ids=answer.result_ids,
            objects=[answer.objects[oid] for oid in answer.result_ids],
            vo_bytes=vo_bytes,
        ).encode()


def scan_table(system, keyword):
    """The honest (full-list) table of a one-keyword query."""
    return system.process_query(KeywordQuery.parse(keyword)).vo.multiproofs[0]


def test_reference_beyond_the_list_is_refused(system):
    system.query(SCAN)
    listed = len(system.verify_cache.held([SCAN]))
    require(listed == 1, "the session holds the scan's table")

    def frame(vo, request):
        # Marker, one table, a reference one past the list, the conjunct.
        cold = VOCodec(value_bytes=system.value_bytes).encode(vo)
        return bytes((0xF6, 1, 3, len(request.held))) + cold[
            3 + vo.multiproofs[0].byte_size() :
        ]

    with pytest.raises(ReproError, match="held table"):
        RemoteClient(LyingSP(system, frame=frame), system).query(SCAN)
    codec = VOCodec(value_bytes=system.value_bytes)
    with pytest.raises(ReproError, match="held table"):
        codec.decode(bytes((0xF6, 1, 3, 1, 0)), [scan_table(system, SCAN)])


def test_reference_to_another_keywords_table_is_refused(system):
    system.query(SCAN)
    system.query(OTHER)
    scans = {kw: scan_table(system, kw) for kw in (SCAN, OTHER)}

    def swap(vo):
        # Each keyword's scan is answered with the other keyword's.
        return tuple(
            scans[OTHER] if table == scans[SCAN] else scans[SCAN]
            for table in vo.multiproofs
        )

    sp = LyingSP(system, rewrite=swap)
    with pytest.raises(VerificationError):
        RemoteClient(sp, system).query(BOTH)
    require(sp.frames[0][2] == 3, "sent as a reference")
    require(
        system.query(BOTH).result_ids == [1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12],
        "the honest answer still verifies",
    )


def test_reference_to_a_table_the_tree_has_outgrown_is_refused(system):
    system.query(SCAN)
    stale = scan_table(system, SCAN)
    system.add_object(DataObject(13, (SCAN,), b"c13"))
    sp = LyingSP(system, rewrite=lambda vo: (stale,))
    with pytest.raises(VerificationError):
        RemoteClient(sp, system).query(SCAN)
    require(sp.frames[0][2] == 3, "the stale table went as a reference")
    require(
        system.query(SCAN).result_ids == [1, 2, 4, 5, 7, 8, 10, 12, 13],
        "the grown tree's honest answer still verifies",
    )


def test_reference_to_a_client_that_listed_nothing_is_refused(system):
    system.query(SCAN)
    held = system.verify_cache.held([SCAN])
    listed = tuple((table.byte_size(), table.cache_token()) for table in held)
    system.verify_cache.clear()
    require(not system.verify_cache.held([SCAN]), "a fresh session holds nothing")

    def frame(vo, request):
        # What the SP would send to a session that held the scan's table.
        sent = QueryVO(vo.conjuncts, as_sent(vo.multiproofs, listed))
        return VOCodec(value_bytes=system.value_bytes).encode(sent)

    sp = LyingSP(system, frame=frame)
    with pytest.raises(ReproError, match="held table 0 of 0"):
        RemoteClient(sp, system).query(SCAN)
    require(sp.frames[0][2] == 3, "the frame holds a reference")


def refused(server, payload: bytes) -> bool:
    response = QueryResponse.decode(server.handle(payload))
    return response.error is not None and response.error_code == ERR_BAD_REQUEST


def test_malformed_held_lists_are_bad_requests(system):
    server = StorageProviderServer(system)
    token = bytes(range(32))
    honest = QueryRequest(query_text=SCAN, held=((10, token),)).encode()
    require(QueryRequest.decode(honest).held == ((10, token),), "round trip")
    require(not refused(server, honest), "an honest list is answered")
    # The list, then the node summaries' count (none listed).
    listed, nodes = honest[:-1], honest[-1:]
    require(nodes == b"\x00", "no node summary")
    head = listed[:-33]  # up to the entry: its size byte is 10
    mutants = {
        "truncated token": listed[:-1] + nodes,
        "truncated list": head,
        "padded varint": head + b"\x8a\x00" + token + nodes,
        "trailing bytes": honest + b"\x00",
        "count beyond the entries": listed[:-34] + b"\x02" + listed[-33:] + nodes,
        "more entries than the bound": (
            listed[:-34]
            + bytes((HELD_TABLES + 1,))
            + (b"\x0a" + token) * (HELD_TABLES + 1)
            + nodes
        ),
    }
    for name, payload in mutants.items():
        require(refused(server, payload), f"{name} is refused")
        with pytest.raises(ReproError):
            QueryRequest.decode(payload)
    with pytest.raises(ReproError):
        QueryRequest(query_text=SCAN, held=((10, token),) * (HELD_TABLES + 1)).encode()
