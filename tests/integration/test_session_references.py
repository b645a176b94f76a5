"""One client session: a table or node it has verified is not sent again.

A session runs a query list twice, with ``verify_cache.clear()`` — a new
session — in between.  Both runs must ship the same ``VO_sp`` sizes,
query by query: what a session is sent depends on what it asked before
and nothing else.  Within a run, a scan asked a second time gets its
table as a kind-3 reference, and under CI and CI* a table whose nodes
the session has proven comes as kind 4, those nodes as short rows, which
the client rebuilds into exactly the cold table's bytes.  And every
answer's result IDs and cold size are those of a client that holds
nothing (no verification cache, so its requests list nothing).
"""

import pytest

from repro import DataObject, HybridStorageSystem, KeywordQuery
from repro.core.chameleon import expand_rows
from repro.core.proofcache import HELD_NODE_KEYWORDS
from repro.core.query import codec
from repro.sp.protocol import (
    QueryRequest,
    QueryResponse,
    RemoteClient,
    StorageProviderServer,
)
from tests.reference_codec import ReferenceVOCodec

VOCABULARY = ("alpha", "beta", "gamma", "delta")

QUERIES = (
    "alpha",
    "beta",
    "alpha AND beta",
    "alpha",
    "(alpha AND gamma) OR delta",
    "beta",
    "alpha AND beta",
    "delta",
)

#: Indices into QUERIES of a scan asked before in the same run.
REPEATED_SCANS = (3, 5, 7)

SCHEMES = {
    "mi": {},
    "smi": {},
    "ci": {"cvc_modulus_bits": 512},
    "ci*": {"cvc_modulus_bits": 512},
}


def corpus():
    return [
        DataObject(
            oid,
            tuple(kw for bit, kw in enumerate(VOCABULARY) if oid % (bit + 2) == 0),
            b"object %d" % oid,
        )
        for oid in range(2, 40)
    ]


def build(scheme, **extra):
    system = HybridStorageSystem(scheme=scheme, seed=7, **SCHEMES[scheme], **extra)
    system.add_objects(corpus())
    return system


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_a_session_is_sent_each_verified_table_once(scheme):
    system = build(scheme)
    server = StorageProviderServer(system)
    frames: list[bytes] = []

    def transport(raw: bytes) -> bytes:
        response = server.handle(raw)
        frames.append(QueryResponse.decode(response).vo_bytes)
        return response

    client = RemoteClient(transport, system)
    cold = build(scheme)

    def cold_query(text):
        cold.verify_cache.clear()
        return cold.query(text)

    runs = []
    for _ in range(2):
        system.verify_cache.clear()
        frames.clear()
        results = [client.query(text) for text in QUERIES]
        runs.append([result.vo_sp_bytes for result in results])
        for index in REPEATED_SCANS:
            assert frames[index][2] == 3  # the scan's one table, referenced
            assert results[index].vo_sp_bytes < results[index].vo_cold_bytes
        assert results[0].vo_sp_bytes == results[0].vo_cold_bytes
        for text, result in zip(QUERIES, results):
            reference = cold_query(text)
            assert result.result_ids == reference.result_ids
            assert result.vo_cold_bytes == reference.vo_sp_bytes
            assert result.vo_chain_bytes == reference.vo_chain_bytes
    assert runs[0] == runs[1]
    assert sum(runs[0]) < sum(cold_query(text).vo_sp_bytes for text in QUERIES)
    system.close()
    cold.close()


@pytest.mark.parametrize("scheme", ["ci", "ci*"])
def test_a_rebuilt_table_is_the_cold_table(scheme, monkeypatch):
    system = build(scheme)
    rebuilt: list[int] = []

    def expand(*args):
        rebuilt.append(args[2])  # the table's row count
        return expand_rows(*args)

    monkeypatch.setattr(codec, "expand_rows", expand)
    server = StorageProviderServer(system)
    sent: list[tuple[QueryRequest, bytes]] = []

    def transport(raw: bytes) -> bytes:
        response = server.handle(raw)
        sent.append((QueryRequest.decode(raw), QueryResponse.decode(response).vo_bytes))
        return response

    client = RemoteClient(transport, system)
    oracle = ReferenceVOCodec(value_bytes=system.value_bytes)
    counts = {kw: system._sp_view(kw).tree.count for kw in VOCABULARY}
    for text in QUERIES:
        result = client.query(text)
        cold = system.process_query(KeywordQuery.parse(text)).vo
        assert [table.body for table in result._vo.multiproofs] == [
            table.body for table in cold.multiproofs
        ]
        assert result.vo_cold_bytes == cold.byte_size()
        # Proven short in one pass: the reference writer's cut of the
        # cold table.
        request, vo_bytes = sent[-1]
        assert vo_bytes == oracle.encode(cold, request.held, request.nodes, counts)
    assert rebuilt  # some tables came with short rows
    system.close()


def test_a_query_over_more_keywords_than_a_request_lists():
    """A query may name more keywords than a request lists node
    summaries (``HELD_NODE_KEYWORDS``): a session asked the same wide
    query again lists the first of them, and is answered every time."""
    pairs = HELD_NODE_KEYWORDS // 2 + 3
    keywords = [f"k{index:03d}" for index in range(2 * pairs)]
    system = HybridStorageSystem(scheme="ci*", seed=7, cvc_modulus_bits=512)
    objects = range(1, 2 * pairs + 1)
    system.add_objects(
        [DataObject(oid, tuple(keywords[oid % pairs * 2 :][:2]), b"o") for oid in objects]
    )
    server = StorageProviderServer(system)
    listed: list[int] = []

    def transport(raw: bytes) -> bytes:
        listed.append(len(QueryRequest.decode(raw).nodes))
        return server.handle(raw)

    client = RemoteClient(transport, system)
    text = " OR ".join(f"({a} AND {b})" for a, b in zip(keywords[::2], keywords[1::2]))
    results = [client.query(text) for _ in range(3)]
    assert [result.result_ids for result in results] == [list(objects)] * 3
    assert listed == [0, HELD_NODE_KEYWORDS, HELD_NODE_KEYWORDS]
    assert results[1].vo_sp_bytes < results[0].vo_sp_bytes
    system.close()
