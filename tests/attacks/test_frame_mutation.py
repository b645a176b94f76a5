"""Mechanical adversary on the wire: every byte flipped, every prefix.

One v6 frame per scheme — CI and CI* (node tables; for CI* a walk with
Bloom skips, and a second CI* frame whose rows ship the commitments of
children that are no rows), MI and SMI (multiproof tables) — is mutated
at every offset and pushed through the client's path: decode, then
verify against the honest chain state.  Two things must hold for every mutant:
the only exception that escapes is a :class:`~repro.errors.ReproError`
subclass, and nothing verifies.  The same sweep then runs one layer out, over the protocol's
own bytes: every mutant of a whole response goes through
``RemoteClient.query``, every mutant of a request through
``StorageProviderServer.handle``, which must answer each with a response
that decodes.  Run under ``python -O`` the same holds (no check is an
``assert``; CI runs this directory that way).  Last, what a refusal
leaves behind: an answer the client rejects adds no key to its
verification cache, cold or warm — whether the SP forges the answer and
the in-process server encodes it (``system.query``) or the response
bytes are forged (``RemoteClient.query``).

A warm SMI frame joins the first sweep: the answer an SP finishes for a
session that holds rows, so its tables are kind 4 with held rows, and
its mutants are decoded against that session's listing.  Tier-1 sweeps
a seeded sample of the offsets, ``REPRO_FULL_SWEEPS=1`` every offset
(:mod:`tests.sweeps`).
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
from tests.sweeps import offsets

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

#: "spread" on objects 1-12, "first" on 1, "last" on 12: the join reads
#: spread's position 12 alone, under ancestors 2 and 5, so the root and
#: those rows ship the commitments of 1, 6 and 11.
SPREAD = tuple(
    DataObject(
        i,
        ("spread",) + {1: ("first",), 12: ("last",)}.get(i, ()),
        b"s%d" % i,
    )
    for i in range(1, 13)
)

CI_STAR = {"scheme": "ci*", "cvc_modulus_bits": 512, "bloom_capacity": 2}

#: name -> (system arguments, corpus, query, verified IDs, a query that
#: shares part of the answer, for the warm cache).
CASES = {
    "ci": ({"scheme": "ci", "cvc_modulus_bits": 512}, DOCS, QUERY, [4, 5, 6, 8],
           "covid-19 AND vaccine"),
    "ci*": (CI_STAR, DOCS, QUERY, [4, 5, 6, 8], "covid-19 AND vaccine"),
    "ci*-shipped": (CI_STAR, SPREAD, "(spread AND last) OR first", [1, 12], "first"),
    "mi": ({"scheme": "mi"}, DOCS, QUERY, [4, 5, 6, 8], "covid-19 AND vaccine"),
    "smi": ({"scheme": "smi"}, DOCS, QUERY, [4, 5, 6, 8], "covid-19 AND vaccine"),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def honest(request):
    arguments, docs, text, expected, priming = CASES[request.param]
    system = HybridStorageSystem(seed=8, **arguments)
    system.add_objects(docs)
    query = KeywordQuery.parse(text)
    answer = system.process_query(query)
    codec = VOCodec(value_bytes=system.value_bytes)
    payload = codec.encode(answer.vo)
    assert payload[0] == 0xF6
    ps = system.chain_proof_system(query.all_keywords())
    assert verify_query(query, answer, ps).ids == set(expected)
    return codec, payload, query, answer, ps, system, text, expected, priming


@pytest.fixture(scope="module", params=[*sorted(CASES), "smi-warm"])
def frame(request, honest_frames):
    """``(codec, payload, query, answer, ps, held, rows)``: a frame and
    what its client decodes it against."""
    return honest_frames(request.param)


@pytest.fixture(scope="module")
def honest_frames():
    def build(name):
        arguments, docs, text, expected, priming = CASES[name.removesuffix("-warm")]
        system = HybridStorageSystem(seed=8, **arguments)
        system.add_objects(docs)
        query = KeywordQuery.parse(text)
        held, rows, listed, nodes = (), (), (), ()
        if name.endswith("-warm"):
            # A session that proved the priming join and the whole query:
            # the SP sends the rows it holds short, none of the tables whole.
            system.query(priming)
            system.query(text)
            keywords = sorted(query.all_keywords())
            summaries = system.verify_cache.held_nodes(keywords)
            nodes = tuple(summary[:3] for summary in summaries)
            rows = tuple(summary[3:] for summary in summaries)
        answer = system.process_query(query, listed, nodes)
        codec = VOCodec(value_bytes=system.value_bytes)
        payload = codec.encode(answer.vo)
        assert payload[0] == 0xF6
        if nodes:
            assert payload[2] == 4, "the first table carries held rows"
            answer.vo = codec.decode(payload, held, rows)
        ps = system.chain_proof_system(query.all_keywords())
        assert verify_query(query, answer, ps).ids == set(expected)
        return codec, payload, query, answer, ps, held, rows

    return build


def client_accepts(frame, payload: bytes) -> bool:
    """Decode + verify as the client would; ``False`` on a typed reject.

    Anything but a ``ReproError`` propagates and fails the test.
    """
    codec, _, query, answer, ps, held, rows = frame
    try:
        answer.vo = codec.decode(payload, held, rows)
        verify_query(query, answer, ps)
    except ReproError:
        return False
    return True


def test_every_flipped_byte_is_rejected_with_a_typed_error(frame):
    payload = frame[1]
    assert client_accepts(frame, payload)
    accepted = []
    for offset in offsets(len(payload)):
        for mask in (0x01, 0x80, 0xFF):
            mutant = bytearray(payload)
            mutant[offset] ^= mask
            if client_accepts(frame, bytes(mutant)):
                accepted.append((offset, mask))
    assert not accepted, f"mutants verified: {accepted[:10]}"


def test_every_truncation_is_rejected_with_a_typed_error(frame):
    payload = frame[1]
    accepted = [
        cut for cut in offsets(len(payload), 1) if client_accepts(frame, payload[:cut])
    ]
    assert not accepted, f"prefixes verified: {accepted[:10]}"


def test_appended_bytes_are_rejected(frame):
    assert not client_accepts(frame, frame[1] + b"\x00")


# -- one layer out: the protocol's own bytes --------------------------------------


def mutants(payload: bytes):
    """Every byte under the three masks, every proper prefix, one suffix
    (a seeded sample of the offsets in tier-1)."""
    for offset in offsets(len(payload)):
        for mask in (0x01, 0x80, 0xFF):
            mutant = bytearray(payload)
            mutant[offset] ^= mask
            yield bytes(mutant)
    for cut in offsets(len(payload), 1):
        yield payload[:cut]
    yield payload + b"\x00"


def test_every_mutated_response_is_rejected_by_the_remote_client(honest):
    system, text, expected = honest[5:8]
    server = StorageProviderServer(system)
    response = server.handle(QueryRequest(query_text=text).encode())
    assert RemoteClient(lambda _: response, system).query(text).result_ids == expected
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
            client.query(text)
        except ReproError:
            continue
        accepted += 1
    assert not accepted, f"{accepted} mutated responses verified"
    for mutant in (*(response[:cut] for cut in range(swept, len(response))),
                   response + b"\x00"):
        with pytest.raises(ReproError):
            RemoteClient(lambda _, m=mutant: m, system).query(text)


def test_every_mutated_request_gets_a_decodable_answer(honest):
    server = StorageProviderServer(honest[5])
    request = QueryRequest(query_text=honest[6]).encode()
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
    codec, payload, _, _, _, system, text, _, priming = honest
    cache = system.verify_cache

    def reset() -> set:
        cache.clear()
        if primed:
            system.query(priming)
        return set(cache._entries)

    reset()
    system.query(text)
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
        QueryRequest(query_text=text).encode()
    )
    vo_start = len(response) - len(QueryResponse.decode(response).vo_bytes)
    honest_sp = system._sp.process_query
    try:
        for offset in offsets:

            def tampering(query, *held, offset=offset):
                answer = honest_sp(query)
                answer.vo = codec.decode(flipped(codec.encode(answer.vo), offset))
                return answer

            system._sp.process_query = tampering
            with pytest.raises(ReproError):
                system.query(text)
            assert before <= set(cache._entries) <= allowed
            forged = flipped(response, vo_start + offset)
            with pytest.raises(ReproError):
                RemoteClient(lambda _, m=forged: m, system).query(text)
            assert before <= set(cache._entries) <= allowed
    finally:
        system._sp.process_query = honest_sp
    system.query(text)
    assert set(cache._entries) == genuine
