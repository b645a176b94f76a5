"""Golden wire fixtures: committed frames must stay what they are.

Two fixtures pin the one frame the codec writes (v6) for a Merkle and a
Chameleon answer — byte-exact files under ``tests/fixtures/``, which the
SP must still produce and the client must still verify — and one
protocol response (v3, to a request that lists no held table; the file
keeps its v2 name) pins the message around the VO (result IDs,
canonical object encodings, length prefixes).

Regenerate the fixtures (only after an intentional, versioned format
change)::

    PYTHONPATH=src:. python tests/query/test_golden_fixtures.py --regen
"""

import pathlib

import pytest

from repro import DataObject, HybridStorageSystem, KeywordQuery
from repro.core.query.codec import VOCodec
from repro.core.query.verify import verify_query
from repro.errors import ReproError
from repro.sp.protocol import (
    QueryRequest,
    QueryResponse,
    RemoteClient,
    StorageProviderServer,
)

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

#: The deterministic corpus behind every fixture (seed 8).
FIXTURE_DOCS = (
    DataObject(1, ("covid-19", "sars-cov-2"), b"a"),
    DataObject(2, ("covid-19",), b"b"),
    DataObject(4, ("covid-19", "symptom", "vaccine"), b"c"),
    DataObject(5, ("covid-19", "vaccine"), b"d"),
    DataObject(6, ("symptom",), b"e"),
    DataObject(7, ("sars-cov-2", "vaccine"), b"f"),
)

#: The live frame: name -> (scheme, query text, expected verified ids).
#: Three Merkle multiproofs / two Chameleon node tables; a join and a
#: scan each.
LIVE_CASES = {
    "vo_v6_smi_dnf": ("smi", "(covid-19 AND symptom) OR sars-cov-2", {1, 4, 7}),
    "vo_v6_ci_dnf": ("ci", "(covid-19 AND vaccine) OR sars-cov-2", {1, 4, 5, 7}),
}

#: A whole protocol response: (name, scheme, query text, expected ids).
RESPONSE_CASE = ("response_v2_smi_scan", "smi", "symptom", [4, 6])


def fixture_system(scheme):
    system = HybridStorageSystem(scheme=scheme, cvc_modulus_bits=512, seed=8)
    system.add_objects(FIXTURE_DOCS)
    return system


@pytest.mark.parametrize("name", sorted(LIVE_CASES))
def test_golden_v6_fixture_is_what_the_sp_emits_and_verifies(name):
    scheme, text, expected = LIVE_CASES[name]
    payload = (FIXTURE_DIR / f"{name}.bin").read_bytes()
    assert payload[0] == 0xF6
    system = fixture_system(scheme)
    codec = VOCodec(value_bytes=system.value_bytes)

    query = KeywordQuery.parse(text)
    answer = system.process_query(query)
    assert codec.encode(answer.vo) == payload
    answer.vo = codec.decode(payload)
    ps = system.chain_proof_system(query.all_keywords())
    assert verify_query(query, answer, ps).ids == expected
    assert codec.encode(answer.vo) == payload
    assert len(payload) == answer.vo.byte_size()


def test_golden_response_is_what_the_server_sends_and_the_client_accepts():
    name, scheme, text, expected = RESPONSE_CASE
    payload = (FIXTURE_DIR / f"{name}.bin").read_bytes()
    system = fixture_system(scheme)
    server = StorageProviderServer(system)
    assert server.handle(QueryRequest(query_text=text).encode()) == payload
    result = RemoteClient(lambda _request: payload, system).query(text)
    assert result.result_ids == expected
    assert [result.objects[oid] for oid in expected] == [
        doc for doc in FIXTURE_DOCS if doc.object_id in expected
    ]
    # Decoded objects keep the bytes they came in: re-encoding is a join.
    assert QueryResponse.decode(payload).encode() == payload


def test_unknown_version_marker_on_fixture_rejected():
    """A future-versioned frame is a clean reject, not a crash."""
    payload = (FIXTURE_DIR / "vo_v6_smi_dnf.bin").read_bytes()
    codec = VOCodec(value_bytes=32)
    with pytest.raises(ReproError, match="unsupported VO frame"):
        codec.decode(bytes([0xF7]) + payload[1:])


def _regenerate():
    for name, (scheme, text, _) in LIVE_CASES.items():
        system = fixture_system(scheme)
        payload = VOCodec(value_bytes=system.value_bytes).encode(
            system.process_query(KeywordQuery.parse(text)).vo
        )
        (FIXTURE_DIR / f"{name}.bin").write_bytes(payload)
        print(f"wrote {name}.bin ({len(payload)} bytes)")
    name, scheme, text, _ = RESPONSE_CASE
    server = StorageProviderServer(fixture_system(scheme))
    payload = server.handle(QueryRequest(query_text=text).encode())
    (FIXTURE_DIR / f"{name}.bin").write_bytes(payload)
    print(f"wrote {name}.bin ({len(payload)} bytes)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
