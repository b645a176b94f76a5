"""Mechanical adversary on the wire: every byte flipped, every prefix.

One v6 frame per scheme — CI and CI* (node tables; for CI* a walk with
Bloom skips), MI and SMI (multiproof tables) — is mutated at every
offset and pushed through the client's path: decode, then verify
against the honest chain state.  Two things must hold for every mutant:
the only exception that escapes is a :class:`~repro.errors.ReproError`
subclass, and nothing verifies.  The same sweep then runs one layer out, over the protocol's
own bytes: every mutant of a whole response goes through
``RemoteClient.query``, every mutant of a request through
``StorageProviderServer.handle``, which must answer each with a response
that decodes.  Run under ``python -O`` the same holds (no check is an
``assert``; CI runs this directory that way).  Last, what a refusal
leaves behind: an answer the client rejects adds no key to its
verification cache, cold or warm, through ``system.query`` and through
``RemoteClient.query`` alike.
"""

import pytest

from repro import DataObject, HybridStorageSystem, KeywordQuery
from repro.core.query.codec import VOCodec
from repro.core.query.verify import verify_query
from repro.core.query.vo import iter_proven_entries
from repro.errors import ReproError
from repro.sp.protocol import (
    QueryRequest,
    QueryResponse,
    RemoteClient,
    StorageProviderServer,
)

DOCS = (
    DataObject(1, ("covid-19", "sars-cov-2"), b"a"),
    DataObject(2, ("covid-19",), b"b"),
    DataObject(4, ("covid-19", "symptom", "vaccine"), b"c"),
    DataObject(5, ("covid-19", "vaccine"), b"d"),
    DataObject(6, ("symptom",), b"e"),
    DataObject(7, ("sars-cov-2", "vaccine"), b"f"),
    DataObject(8, ("covid-19", "vaccine"), b"g"),
)

#: A join (boundary rows, for CI* also Bloom skips) OR-ed with a scan.
QUERY = "(covid-19 AND vaccine) OR symptom"

CASES = {
    "ci": {"scheme": "ci", "cvc_modulus_bits": 512},
    "ci*": {"scheme": "ci*", "cvc_modulus_bits": 512, "bloom_capacity": 2},
    "mi": {"scheme": "mi"},
    "smi": {"scheme": "smi"},
}


@pytest.fixture(scope="module", params=sorted(CASES))
def honest(request):
    system = HybridStorageSystem(seed=8, **CASES[request.param])
    system.add_objects(DOCS)
    query = KeywordQuery.parse(QUERY)
    answer = system.process_query(query)
    codec = VOCodec(value_bytes=system.value_bytes)
    payload = codec.encode(answer.vo)
    assert payload[0] == 0xF6
    ps = system.chain_proof_system(query.all_keywords())
    assert verify_query(query, answer, ps).ids == {4, 5, 6, 8}
    return codec, payload, query, answer, ps, system


def client_accepts(honest, payload: bytes) -> bool:
    """Decode + verify as the client would; ``False`` on a typed reject.

    Anything but a ``ReproError`` propagates and fails the test.
    """
    codec, _, query, answer, ps, _ = honest
    try:
        answer.vo = codec.decode(payload)
        verify_query(query, answer, ps)
    except ReproError:
        return False
    return True


def test_every_flipped_byte_is_rejected_with_a_typed_error(honest):
    payload = honest[1]
    assert client_accepts(honest, payload)
    accepted = []
    for offset in range(len(payload)):
        for mask in (0x01, 0x80, 0xFF):
            mutant = bytearray(payload)
            mutant[offset] ^= mask
            if client_accepts(honest, bytes(mutant)):
                accepted.append((offset, mask))
    assert not accepted, f"mutants verified: {accepted[:10]}"


def test_every_truncation_is_rejected_with_a_typed_error(honest):
    payload = honest[1]
    accepted = [
        cut for cut in range(len(payload)) if client_accepts(honest, payload[:cut])
    ]
    assert not accepted, f"prefixes verified: {accepted[:10]}"


def test_appended_bytes_are_rejected(honest):
    assert not client_accepts(honest, honest[1] + b"\x00")


# -- one layer out: the protocol's own bytes --------------------------------------


def mutants(payload: bytes):
    """Every byte under the three masks, every proper prefix, one suffix."""
    for offset in range(len(payload)):
        for mask in (0x01, 0x80, 0xFF):
            mutant = bytearray(payload)
            mutant[offset] ^= mask
            yield bytes(mutant)
    for cut in range(len(payload)):
        yield payload[:cut]
    yield payload + b"\x00"


def test_every_mutated_response_is_rejected_by_the_remote_client(honest):
    system = honest[5]
    server = StorageProviderServer(system)
    response = server.handle(QueryRequest(query_text=QUERY).encode())
    assert RemoteClient(lambda _: response, system).query(QUERY).result_ids == [
        4, 5, 6, 8,
    ]
    # Every byte of the message for the Merkle family.  A Chameleon
    # mutant that still decodes costs a batch of group exponentiations to
    # refuse, and the VO section of those frames was swept above through
    # the same decode + verify: there the per-byte sweep stops where the
    # VO starts, and only cuts and a suffix reach into it.
    vo_start = len(response) - len(QueryResponse.decode(response).vo_bytes)
    swept = vo_start if system.uses_cvc else len(response)
    accepted = 0
    for mutant in mutants(response[:swept]):
        client = RemoteClient(lambda _, m=mutant + response[swept:]: m, system)
        try:
            client.query(QUERY)
        except ReproError:
            continue
        accepted += 1
    assert not accepted, f"{accepted} mutated responses verified"
    for mutant in (*(response[:cut] for cut in range(swept, len(response))),
                   response + b"\x00"):
        with pytest.raises(ReproError):
            RemoteClient(lambda _, m=mutant: m, system).query(QUERY)


def test_every_mutated_request_gets_a_decodable_answer(honest):
    server = StorageProviderServer(honest[5])
    request = QueryRequest(query_text=QUERY).encode()
    assert QueryResponse.decode(server.handle(request)).error is None
    answered_ok = 0
    for mutant in mutants(request):
        # handle() must not raise, and what it returns must parse: an
        # error response, or an honest answer to whatever the mutant asks.
        answered_ok += QueryResponse.decode(server.handle(mutant)).error is None
    # Prefixes and suffixes are malformed; only a flipped keyword letter
    # can still be a query.
    assert answered_ok < len(request) * 3


# -- what a refusal leaves behind --------------------------------------------------


@pytest.mark.parametrize("primed", [False, True], ids=["cold", "warm"])
def test_rejected_answer_primes_nothing_unproven(honest, primed):
    """The only writer of the cache is a verification that succeeded.

    One bit of one proven ``<id, h(o)>`` row is flipped, for every row
    in turn: the rest of the answer is genuine, and in the warm case
    already cached, so a cache that kept what it saw before the failure
    would grow.  A Chameleon query settles as one batch, so a refusal
    adds no key at all; a Merkle key is one whole table, and the tables
    that folded to their roots before the forged one was met may stay —
    they are keys the honest answer adds too.
    """
    codec, payload, _, _, _, system = honest
    cache = system.verify_cache

    def reset() -> set:
        cache.clear()
        if primed:
            assert system.query("covid-19 AND vaccine").verified
        return set(cache._entries)

    reset()
    assert system.query(QUERY).verified
    genuine = set(cache._entries)
    before = reset()
    assert before < genuine
    allowed = before if system.uses_cvc else genuine

    def flipped(frame: bytes, offset: int) -> bytes:
        mutant = bytearray(frame)
        mutant[offset] ^= 0x01
        return bytes(mutant)

    offsets = sorted(
        {payload.index(e.object_hash) for e in iter_proven_entries(codec.decode(payload))}
    )
    assert offsets
    response = StorageProviderServer(system).handle(
        QueryRequest(query_text=QUERY).encode()
    )
    vo_start = len(response) - len(QueryResponse.decode(response).vo_bytes)
    honest_sp = system._sp.process_query
    try:
        for offset in offsets:

            def tampering(query, offset=offset):
                answer = honest_sp(query)
                answer.vo = codec.decode(flipped(codec.encode(answer.vo), offset))
                return answer

            system._sp.process_query = tampering
            with pytest.raises(ReproError):
                system.query(QUERY)
            assert before <= set(cache._entries) <= allowed
            forged = flipped(response, vo_start + offset)
            with pytest.raises(ReproError):
                RemoteClient(lambda _, m=forged: m, system).query(QUERY)
            assert before <= set(cache._entries) <= allowed
    finally:
        system._sp.process_query = honest_sp
    assert system.query(QUERY).verified
    assert set(cache._entries) == genuine
