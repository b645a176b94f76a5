"""Golden wire fixtures: committed frames must stay what they are.

Two live fixtures pin the one frame the codec writes (v6) for a Merkle
and a Chameleon answer — byte-exact files under ``tests/fixtures/``,
which the SP must still produce and the client must still verify — and
one protocol-v2 response pins the message around the VO (result IDs,
canonical object encodings, length prefixes).

The fixtures of the retired frames (v2–v5) stay committed as the decode
fixtures of ``tests/reference_codec.py``, the only reader they have
left: each must decode there, re-encode byte for byte under its version
pin, still speak of today's corpus (every ``<id, h(o)>`` in it is an
object's), and be refused by the live codec.  The v5 frame differs from
v6 only in framing, so what it decodes to is still today's answer and
still verifies.  Tests keep the names they had while those frames were
live.

Regenerate the live fixtures (only after an intentional, versioned
format change)::

    PYTHONPATH=src:. python tests/query/test_golden_fixtures.py --regen
"""

import pathlib

import pytest

from repro import DataObject, HybridStorageSystem, KeywordQuery
from repro.core.objects import ObjectMetadata
from repro.core.query.codec import VOCodec
from repro.core.query.verify import verify_query
from repro.errors import ReproError
from repro.sp.protocol import (
    QueryRequest,
    QueryResponse,
    RemoteClient,
    StorageProviderServer,
)
from tests import legacy_vo
from tests.reference_codec import ReferenceVOCodec

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

#: Retired v2 frames: name -> scheme (their query and results are history).
CASES = {
    "vo_v2_smi_join": "smi",
    "vo_v2_smi_scan": "smi",
    "vo_v2_smi_dnf": "smi",
    "vo_v2_ci_join": "ci",
}

#: The live frame: name -> (scheme, query text, expected verified ids).
#: Three Merkle multiproofs / two Chameleon node tables; a join and a
#: scan each.
LIVE_CASES = {
    "vo_v6_smi_dnf": ("smi", "(covid-19 AND symptom) OR sars-cov-2", {1, 4, 7}),
    "vo_v6_ci_dnf": ("ci", "(covid-19 AND vaccine) OR sars-cov-2", {1, 4, 5, 7}),
}

#: A whole protocol-v2 response: (name, scheme, query text, expected ids).
RESPONSE_CASE = ("response_v2_smi_scan", "smi", "symptom", [4, 6])

#: ``h(o)`` of every fixture object, as the chain holds it.
CORPUS_HASHES = {
    doc.object_id: ObjectMetadata.of(doc).object_hash for doc in FIXTURE_DOCS
}


def fixture_system(scheme):
    system = HybridStorageSystem(scheme=scheme, cvc_modulus_bits=512, seed=8)
    system.add_objects(FIXTURE_DOCS)
    return system


def value_bytes(scheme):
    return 32 if scheme == "smi" else 64


def legacy_entries(vo):
    """Every ``(id, h(o))`` a retired frame states, whatever its shape."""
    for table in vo.multiproofs:
        yield from getattr(table, "leaves", ())
    for conj in vo.conjuncts:
        base = getattr(conj, "base", None)
        written = []
        if isinstance(base, legacy_vo.MultiWayJoinVO):
            written.append(base.first_target)
            for rnd in base.rounds:
                written += [rnd.lower, rnd.upper, rnd.next_target]
        elif isinstance(base, legacy_vo.FullScanVO):
            written += base.entries
        for stage in getattr(conj, "stages", ()):
            for probe in stage.probes:
                written += [probe.lower, probe.upper]
        for entry in written:
            if entry is not None:
                yield entry.object_id, entry.object_hash


def check_retired_fixture(name, scheme, version):
    payload = (FIXTURE_DIR / f"{name}.bin").read_bytes()
    width = value_bytes(scheme)
    vo = ReferenceVOCodec(width).decode_retired(payload)
    assert ReferenceVOCodec(width, version=version).encode(vo) == payload
    entries = list(legacy_entries(vo))
    assert entries
    for object_id, object_hash in entries:
        assert CORPUS_HASHES[object_id] == object_hash
    with pytest.raises(ReproError, match="unsupported VO frame"):
        VOCodec(value_bytes=width).decode(payload)
    return vo


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_v2_fixture_decodes_verifies_and_reencodes(name):
    """Retired: decodes and re-encodes in the reference codec only."""
    check_retired_fixture(name, CASES[name], 2)


def test_golden_v3_fixture_still_decodes_and_verifies():
    """Retired: decodes and re-encodes in the reference codec only."""
    vo = check_retired_fixture("vo_v3_smi_dnf", "smi", 3)
    rounds = next(
        conj.base.rounds
        for conj in vo.conjuncts
        if isinstance(conj.base, legacy_vo.MultiWayJoinVO)
    )
    assert any(
        isinstance(rnd.lower.proof, legacy_vo.LeafRef)
        for rnd in rounds
        if rnd.lower is not None
    )


def test_golden_v4_fixture_is_what_the_sp_emits_and_verifies():
    """Retired: decodes and re-encodes in the reference codec only."""
    vo = check_retired_fixture("vo_v4_ci_dnf", "ci", 4)
    assert all(isinstance(t, legacy_vo.NodeTable) for t in vo.multiproofs)


def test_golden_v5_fixture_is_what_the_sp_emits_and_verifies():
    """Retired framing, live content: v6 added one kind tag per table."""
    vo = check_retired_fixture("vo_v5_smi_dnf", "smi", 5)
    scheme, text, expected = LIVE_CASES["vo_v6_smi_dnf"]
    system = fixture_system(scheme)
    query = KeywordQuery.parse(text)
    answer = system.process_query(query)
    assert answer.vo == vo
    answer.vo = vo
    ps = system.chain_proof_system(query.all_keywords())
    assert verify_query(query, answer, ps).ids == expected


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


def test_fixtures_are_plain_v2_frames():
    """The v2 fixtures carry no version marker: that *was* the v2 frame."""
    for name in CASES:
        payload = (FIXTURE_DIR / f"{name}.bin").read_bytes()
        assert payload[0] < 0xF0


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
