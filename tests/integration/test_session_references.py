"""One client session: a table it has verified is not sent again.

A session runs a query list twice, with ``verify_cache.clear()`` — a new
session — in between.  Both runs must ship the same ``VO_sp`` sizes,
query by query: what a session is sent depends on what it asked before
and nothing else.  Within a run, a scan asked a second time gets its
table as a kind-3 reference.  And every answer's result IDs and cold
size are those of a client that holds nothing (no verification cache,
so its requests list no table).
"""

import pytest

from repro import DataObject, HybridStorageSystem
from repro.sp.protocol import QueryResponse, RemoteClient, StorageProviderServer

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
    cold = build(scheme, verify_cache_size=0)
    assert cold.verify_cache is None
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
            reference = cold.query(text)
            assert result.result_ids == reference.result_ids
            assert result.vo_cold_bytes == reference.vo_sp_bytes
            assert result.vo_chain_bytes == reference.vo_chain_bytes
    assert runs[0] == runs[1]
    assert sum(runs[0]) < sum(cold.query(text).vo_sp_bytes for text in QUERIES)
    system.close()
    cold.close()
