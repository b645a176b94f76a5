"""Attacks on held Merkle rows (table kind 4, arity 0).

A client's request lists, per Merkle keyword, the rows its session has
proven: the object ID of bit 0 and a bitmap, bit ``i`` for the ID ``i``
below it.  The SP may then send a listed row — a proven leaf, or the
entry helper of one — as its bit, and the client rebuilds the kind-0
body from the rows it holds and folds it against the chain's root.  Each
attack below is an SP that uses a row it must not: one the session never
proved or did not list, one placed at another slot of the walk, one
marked as a leaf where the table has a helper (and the reverse), one
held under another keyword, one forged after an insert.  Each must be
refused, by the decoder or by the fold.  A request whose row summaries
are malformed is refused by the SP with ``ERR_BAD_REQUEST``.  The checks
raise on their own, so they hold under ``python -O`` too.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import DataObject, HybridStorageSystem, KeywordQuery
from repro.core.proofcache import HELD_NODE_BYTES
from repro.core.query.codec import VOCodec
from repro.core.query.vo import HeldNodeTable
from repro.errors import ReproError, VerificationError
from repro.sp.protocol import (
    ERR_BAD_REQUEST,
    QueryRequest,
    QueryResponse,
    RemoteClient,
    StorageProviderServer,
)
from tests import reference_codec as reference

KEYWORDS = ("alpha", "beta", "gamma")
#: Proves some of alpha's and beta's rows, and entry helpers beside them.
JOIN = "alpha AND beta AND gamma"
#: Another join over alpha: more of its rows.
OTHER = "alpha AND gamma"


def require(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(what)


def corpus(last: int = 62):
    """Keyword ``k`` on the objects whose ID has bit ``k``."""
    return [
        DataObject(
            object_id,
            tuple(kw for bit, kw in enumerate(KEYWORDS) if object_id >> bit & 1)
            or ("alpha",),
            b"o%d" % object_id,
        )
        for object_id in range(1, last + 1)
    ]


@pytest.fixture(params=["smi", "mi"])
def system(request):
    system = HybridStorageSystem(scheme=request.param, seed=5)
    system.add_objects(corpus())
    yield system
    system.close()


def expected(system, text):
    """The honest answer, from a client that holds nothing."""
    return sorted(system.process_query(KeywordQuery.parse(text)).result_ids)


def listings(system, text):
    keywords = sorted(KeywordQuery.parse(text).all_keywords())
    return system.verify_cache.held_nodes(keywords)


class LyingSP:
    """A transport that finishes the VO against summaries of its own
    (``forge(request)``, the request's by default) and lets ``tamper``
    edit each held-row table's body.  No table goes as a whole-table
    reference.  ``frames`` keeps what was sent, ``shortened`` how many
    of each frame's tables carry held rows."""

    def __init__(self, system, forge=None, tamper=None):
        self.system = system
        self.codec = VOCodec(value_bytes=system.value_bytes)
        self.forge = forge or (lambda request: request.nodes)
        self.tamper = tamper
        self.frames: list[bytes] = []
        self.shortened: list[int] = []

    def __call__(self, raw: bytes) -> bytes:
        request = QueryRequest.decode(raw)
        nodes = self.forge(request)
        answer = self.system.process_query(
            KeywordQuery.parse(request.query_text), (), nodes
        )
        vo = answer.vo
        if self.tamper is not None:
            tables = tuple(
                dataclasses.replace(
                    table,
                    body=self.tamper(table.body, 8 * len(nodes[table.summary][2])),
                )
                if isinstance(table, HeldNodeTable)
                else table
                for table in vo.multiproofs
            )
            vo = dataclasses.replace(vo, multiproofs=tables)
        vo_bytes = self.codec.encode(vo)
        self.frames.append(vo_bytes)
        self.shortened.append(
            sum(isinstance(table, HeldNodeTable) for table in vo.multiproofs)
        )
        return QueryResponse(
            result_ids=answer.result_ids,
            objects=[answer.objects[oid] for oid in answer.result_ids],
            vo_bytes=vo_bytes,
        ).encode()


def edit_lists(edit):
    """A body tamper that edits the helper and leaf lists of a held-row
    body (items are bytes, or ``int`` bits for held ones)."""

    def tamper(body: bytes, limit: int) -> bytes:
        head, helpers, leaves = reference.read_held_parts(body, limit)
        helpers, leaves = edit(list(helpers), list(leaves))
        return reference.write_held_parts(head, helpers, leaves, limit)

    return tamper


def marked(items) -> list[int]:
    return [at for at, item in enumerate(items) if isinstance(item, int)]


def test_honest_held_rows_verify_and_shrink_the_vo(system):
    system.query(OTHER)
    sp = LyingSP(system)
    result = RemoteClient(sp, system).query(JOIN)
    require(result.result_ids == expected(system, JOIN), "the honest answer")
    require(sp.shortened[0], "a table carries held rows")
    require(result.vo_sp_bytes < result.vo_cold_bytes, "held rows cost less")
    require(result.request_bytes > len(QueryRequest(JOIN).encode()), "a listing was sent")


def test_short_row_for_an_id_never_proven_is_refused(system):
    system.query(OTHER)
    (listing,) = listings(system, "alpha")
    keyword, base, bitmap = listing[:3]

    def every_id(request):
        # Every ID up to the base, proven or not.
        every = (1 << (base + 1)) - 1
        return [(keyword, base, every.to_bytes((base + 8) // 8, "little"))]

    sp = LyingSP(system, every_id)
    with pytest.raises(ReproError, match="did not list"):
        RemoteClient(sp, system).query("alpha AND beta")
    require(
        system.query("alpha AND beta").result_ids == expected(system, "alpha AND beta"),
        "the honest answer still verifies",
    )


def test_short_row_for_an_id_not_listed_is_refused(system):
    system.query("alpha AND beta")
    before = listings(system, "alpha AND beta")
    # The session proves more rows after the listing was taken: an SP
    # that uses them answers a request that did not list them.
    system.query("alpha")
    after = listings(system, "alpha AND beta")
    require(
        [listing[2] for listing in before] != [listing[2] for listing in after],
        "the session gained rows",
    )
    query = KeywordQuery.parse(JOIN)
    vo = system.process_query(query, (), [listing[:3] for listing in after]).vo
    codec = VOCodec(value_bytes=system.value_bytes)
    frame = codec.encode(vo)
    with pytest.raises(ReproError, match="did not list"):
        codec.decode(frame, (), [listing[3:] for listing in before])
    require(
        codec.decode(frame, (), [listing[3:] for listing in after])
        == system.process_query(query).vo,
        "against the listing it used, the frame is the cold VO",
    )


def test_a_summary_past_the_window_lists_nothing_beyond_it(system, monkeypatch):
    # Eight IDs below the highest held: the rest are not held at all.
    monkeypatch.setattr("repro.core.proofcache.HELD_NODE_BYTES", 1)
    system.query(OTHER)
    ((keyword, base, bitmap, rows, _),) = listings(system, "alpha")
    require(len(bitmap) == 1 and min(rows) > base - 8, "only the window is held")

    def wider(request):
        return [(keyword, base, b"\xff" * 8)]

    sp = LyingSP(system, wider)
    with pytest.raises(ReproError, match="did not list"):
        RemoteClient(sp, system).query(OTHER)


#: Each swap :func:`swap_with_a_cold_neighbour` made.
SWAPS: list[int] = []


def swap_with_a_cold_neighbour(helpers, leaves):
    """A held leaf trades places with the cold leaf beside it: the row
    lands in another slot of the walk, the bits keep their order."""
    for at in marked(leaves):
        for other in (at + 1, at - 1):
            if 0 <= other < len(leaves) and isinstance(leaves[other], bytes):
                leaves[at], leaves[other] = leaves[other], leaves[at]
                SWAPS.append(at)
                return helpers, leaves
    return helpers, leaves


def move_marker(source: str):
    """A tamper that moves the first held item of one list into the
    other, in bit order: a helper's row rebuilt as a leaf, or the reverse."""

    def edit(helpers, leaves):
        lists = {"helpers": helpers, "leaves": leaves}
        origin = lists[source]
        target = lists["leaves" if source == "helpers" else "helpers"]
        if marked(origin):
            bit = origin.pop(marked(origin)[0])
            at = next(
                (at for at, item in enumerate(target) if isinstance(item, int) and item < bit),
                len(target),
            )
            target.insert(at, bit)
        return helpers, leaves

    return edit


def test_a_held_row_at_another_slot_is_refused(system):
    system.query(JOIN)
    # The new object's rows go cold beside the held ones.
    system.add_object(DataObject(69, KEYWORDS, b"o69"))
    SWAPS.clear()
    sp = LyingSP(system, tamper=edit_lists(swap_with_a_cold_neighbour))
    with pytest.raises(VerificationError):
        RemoteClient(sp, system).query(JOIN)
    require(SWAPS, "a held leaf was moved")


@pytest.mark.parametrize("source", ["helpers", "leaves"])
def test_a_held_row_in_the_other_list_is_refused(system, source):
    """Marked leaf where the cold body has a helper, and the reverse."""
    system.query(OTHER)
    system.query(JOIN)
    sp = LyingSP(system, tamper=edit_lists(move_marker(source)))
    with pytest.raises(VerificationError):
        RemoteClient(sp, system).query(JOIN)
    require(
        system.query(JOIN).result_ids == expected(system, JOIN),
        "the honest answer still verifies",
    )


def test_rows_held_under_another_keyword_are_refused(system):
    # Scans: each keyword's listing starts at its highest ID, 61 and 62.
    system.query("alpha")
    system.query("beta")
    system.query("gamma")
    (alpha, alpha_base, _), (beta, beta_base, beta_bits), gamma = [
        listing[:3] for listing in listings(system, JOIN)
    ]
    require(alpha_base != beta_base, "the keywords' bits name different IDs")

    def borrowed(request):
        # alpha's table is shortened by beta's listing, and names alpha's.
        return [(alpha, beta_base, beta_bits), *request.nodes[1:]]

    sp = LyingSP(system, borrowed)
    with pytest.raises(ReproError):
        RemoteClient(sp, system).query(JOIN)
    require(
        system.query(JOIN).result_ids == expected(system, JOIN),
        "the honest answer still verifies",
    )


def test_rows_survive_an_insert_and_a_forged_one_does_not(system):
    system.query(OTHER)
    system.query(JOIN)
    (before,) = listings(system, "alpha")
    system.add_object(DataObject(71, ("alpha", "beta", "gamma"), b"o71"))
    (after,) = listings(system, "alpha")
    require(before[:3] == after[:3], "the listing outlives the insert")
    sp = LyingSP(system)
    result = RemoteClient(sp, system).query(JOIN)
    require(71 in result.result_ids, "the new object is found")
    require(result.result_ids == expected(system, JOIN), "under the new root")
    require(sp.shortened[0], "with the rows held before the insert")

    system.add_object(DataObject(79, ("alpha", "beta", "gamma"), b"o79"))
    SWAPS.clear()
    forged = LyingSP(system, tamper=edit_lists(swap_with_a_cold_neighbour))
    with pytest.raises(VerificationError):
        RemoteClient(forged, system).query(JOIN)
    require(SWAPS, "a held leaf was moved")
    require(
        system.query(JOIN).result_ids == expected(system, JOIN),
        "the honest answer still verifies",
    )


def refused(server, payload: bytes) -> bool:
    response = QueryResponse.decode(server.handle(payload))
    return response.error is not None and response.error_code == ERR_BAD_REQUEST


def test_malformed_row_summaries_are_bad_requests(system):
    system.query(JOIN)
    server = StorageProviderServer(system)
    honest = [listing[:3] for listing in listings(system, JOIN)]
    require(not refused(server, QueryRequest(JOIN, (), tuple(honest)).encode()), "answered")
    (keyword, base, bitmap) = honest[0]
    mutants = {
        "bitmap over the bound": [(keyword, base + 8 * HELD_NODE_BYTES, b"\x01" * (HELD_NODE_BYTES + 1))],
        "an ID below 0": [(keyword, 2, b"\x08")],
        "keywords out of order": honest[::-1],
        "a keyword listed twice": [honest[0], honest[0]],
    }
    for label, nodes in mutants.items():
        payload = reference.encode_request(JOIN, (), nodes)
        if not refused(server, payload):
            raise AssertionError(f"{label} is answered")
        with pytest.raises(ReproError):
            QueryRequest.decode(payload)
