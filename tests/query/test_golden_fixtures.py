"""Golden v2 VO fixtures: committed wire frames must stay decodable.

The legacy (v2) frame is a compatibility surface: clients running older
verifiers send and receive it, so its byte layout is frozen.  These
tests decode byte-exact fixtures committed under ``tests/fixtures/``,
verify them against a deterministically rebuilt system, and re-encode
them byte-identically — any codec change that silently reshapes the v2
wire fails here first.  One v5 and one v4 fixture pin the Merkle
tables-only frame and the Chameleon node-table frame the same way, and
that the SP still produces exactly those bytes; the v3 fixture is what
an SP sent while Merkle frames still shipped the walk (``LeafRef``
entries under rounds) — nothing writes it any more, it must keep
decoding and verifying; one protocol-v2 response pins the message around
the VO (result IDs, canonical object encodings, length prefixes).

Regenerate (only after an intentional, versioned format change)::

    PYTHONPATH=src python tests/query/test_golden_fixtures.py --regen
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

#: The deterministic corpus behind every fixture (seed 8, v2 frames).
FIXTURE_DOCS = (
    DataObject(1, ("covid-19", "sars-cov-2"), b"a"),
    DataObject(2, ("covid-19",), b"b"),
    DataObject(4, ("covid-19", "symptom", "vaccine"), b"c"),
    DataObject(5, ("covid-19", "vaccine"), b"d"),
    DataObject(6, ("symptom",), b"e"),
    DataObject(7, ("sars-cov-2", "vaccine"), b"f"),
)

#: name -> (scheme, query text, expected verified ids)
CASES = {
    "vo_v2_smi_join": ("smi", "covid-19 AND vaccine", {4, 5}),
    "vo_v2_smi_scan": ("smi", "symptom", {4, 6}),
    "vo_v2_smi_dnf": (
        "smi",
        "(covid-19 AND symptom) OR sars-cov-2",
        {1, 4, 7},
    ),
    "vo_v2_ci_join": ("ci", "covid-19 AND vaccine", {4, 5}),
}


#: The compressed frames (default ``vo_version=3``): name -> (scheme,
#: frame marker, query text, expected verified ids).  v5 carries three
#: Merkle multiproofs, v4 two Chameleon node tables; a join and a scan each.
COMPRESSED_CASES = {
    "vo_v5_smi_dnf": (
        "smi", 0xF5, "(covid-19 AND symptom) OR sars-cov-2", {1, 4, 7},
    ),
    "vo_v4_ci_dnf": (
        "ci", 0xF4, "(covid-19 AND vaccine) OR sars-cov-2", {1, 4, 5, 7},
    ),
}

#: Read-only: the v3 frame of the v5 case's query, as PR 17's SP sent it.
V3_CASE = ("vo_v3_smi_dnf", "(covid-19 AND symptom) OR sars-cov-2", {1, 4, 7})

#: A whole protocol-v2 response: (name, scheme, query text, expected ids).
RESPONSE_CASE = ("response_v2_smi_scan", "smi", "symptom", [4, 6])


def fixture_system(scheme, vo_version=2):
    system = HybridStorageSystem(
        scheme=scheme, cvc_modulus_bits=512, seed=8, vo_version=vo_version
    )
    system.add_objects(FIXTURE_DOCS)
    return system


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_v2_fixture_decodes_verifies_and_reencodes(name):
    scheme, text, expected = CASES[name]
    payload = (FIXTURE_DIR / f"{name}.bin").read_bytes()
    system = fixture_system(scheme)
    codec = VOCodec(value_bytes=system.value_bytes)

    vo = codec.decode(payload)
    query = KeywordQuery.parse(text)
    answer = system.process_query(query)
    # vo_version=2 still emits exactly the frozen frame.
    assert codec.encode(answer.vo) == payload
    answer.vo = vo  # the fixture VO, not the freshly produced one
    ps = system.chain_proof_system(query.all_keywords())
    assert verify_query(query, answer, ps).ids == expected
    assert codec.encode(vo) == payload


def test_golden_v3_fixture_still_decodes_and_verifies():
    from tests.reference_codec import ReferenceVOCodec
    from tests.reference_multiproof import compress_v3

    name, text, expected = V3_CASE
    payload = (FIXTURE_DIR / f"{name}.bin").read_bytes()
    assert payload[0] == 0xF3
    system = fixture_system("smi")
    codec = VOCodec(value_bytes=system.value_bytes)
    query = KeywordQuery.parse(text)
    answer = system.process_query(query)
    # The reference compressor and codec are that SP's: from today's
    # legacy answer they rebuild the committed frame byte for byte.
    assert ReferenceVOCodec(value_bytes=32).encode(compress_v3(answer.vo)) == payload
    answer.vo = codec.decode(payload)
    ps = system.chain_proof_system(query.all_keywords())
    assert verify_query(query, answer, ps).ids == expected
    with pytest.raises(ReproError, match="read-only"):
        codec.encode(answer.vo)


def test_golden_v5_fixture_is_what_the_sp_emits_and_verifies():
    check_compressed_fixture("vo_v5_smi_dnf")


def test_golden_v4_fixture_is_what_the_sp_emits_and_verifies():
    check_compressed_fixture("vo_v4_ci_dnf")


def check_compressed_fixture(name):
    scheme, marker, text, expected = COMPRESSED_CASES[name]
    payload = (FIXTURE_DIR / f"{name}.bin").read_bytes()
    assert payload[0] == marker
    system = fixture_system(scheme, vo_version=3)
    codec = VOCodec(value_bytes=system.value_bytes)

    query = KeywordQuery.parse(text)
    answer = system.process_query(query)
    assert codec.encode(answer.vo) == payload
    answer.vo = codec.decode(payload)
    ps = system.chain_proof_system(query.all_keywords())
    assert verify_query(query, answer, ps).ids == expected
    assert codec.encode(answer.vo) == payload


def test_golden_response_is_what_the_server_sends_and_the_client_accepts():
    name, scheme, text, expected = RESPONSE_CASE
    payload = (FIXTURE_DIR / f"{name}.bin").read_bytes()
    system = fixture_system(scheme, vo_version=3)
    server = StorageProviderServer(system)
    assert server.handle(QueryRequest(query_text=text).encode()) == payload
    result = RemoteClient(lambda _request: payload, system).query(text)
    assert result.result_ids == expected
    assert [result.objects[oid] for oid in expected] == [
        doc for doc in FIXTURE_DOCS if doc.object_id in expected
    ]
    # Decoded objects keep the bytes they came in: re-encoding is a join.
    assert QueryResponse.decode(payload).encode() == payload


def test_fixtures_are_plain_v2_frames():
    """No fixture may carry a version marker: they pin the legacy path."""
    for name in CASES:
        payload = (FIXTURE_DIR / f"{name}.bin").read_bytes()
        assert payload[0] < 0xF0


def test_unknown_version_marker_on_fixture_rejected():
    """A future-versioned frame is a clean reject, not a crash."""
    payload = (FIXTURE_DIR / "vo_v2_smi_scan.bin").read_bytes()
    codec = VOCodec(value_bytes=32)
    with pytest.raises(ReproError, match="unsupported VO frame"):
        codec.decode(bytes([0xF6]) + payload[1:])


def _regenerate():
    for name, (scheme, text, _) in CASES.items():
        system = fixture_system(scheme)
        codec = VOCodec(value_bytes=system.value_bytes)
        answer = system.process_query(KeywordQuery.parse(text))
        payload = codec.encode(answer.vo)
        (FIXTURE_DIR / f"{name}.bin").write_bytes(payload)
        print(f"wrote {name}.bin ({len(payload)} bytes)")
    for name, (scheme, _, text, _) in COMPRESSED_CASES.items():
        system = fixture_system(scheme, vo_version=3)
        payload = VOCodec(value_bytes=system.value_bytes).encode(
            system.process_query(KeywordQuery.parse(text)).vo
        )
        (FIXTURE_DIR / f"{name}.bin").write_bytes(payload)
        print(f"wrote {name}.bin ({len(payload)} bytes)")
    name, scheme, text, _ = RESPONSE_CASE
    server = StorageProviderServer(fixture_system(scheme, vo_version=3))
    payload = server.handle(QueryRequest(query_text=text).encode())
    (FIXTURE_DIR / f"{name}.bin").write_bytes(payload)
    print(f"wrote {name}.bin ({len(payload)} bytes)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
