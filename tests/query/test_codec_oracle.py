"""Differential oracle: the offset reader against the stream codec it replaced.

``tests/reference_codec.py`` keeps the ``io.BytesIO`` implementation.
On honest answers of all four schemes — served by SPs of two and three
shards, which must not show in the bytes — the encoders must emit the
reference's bytes; on those bytes, and on random mutations of them, both
decoders must return equal values or both raise
:class:`~repro.errors.ReproError`.  A decoder that got laxer, stricter
or different in any field while it got faster fails here.  The
reference also reads the retired frames (v2–v5), which the live codec
refuses: its own fixtures are the committed goldens of those versions.
"""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataObject, HybridStorageSystem, KeywordQuery
from repro.core.query.codec import VOCodec
from repro.errors import ReproError
from repro.sp.protocol import QueryRequest, QueryResponse
from tests import reference_codec as reference

KEYWORDS = ("covid-19", "sars-cov-2", "symptom", "vaccine", "würze")

#: Every keyword alone, every pair, one triple, two DNFs, one miss.
QUERIES = (
    *KEYWORDS,
    *(f"{a} AND {b}" for i, a in enumerate(KEYWORDS) for b in KEYWORDS[i + 1 :]),
    "covid-19 AND symptom AND vaccine",
    "(covid-19 AND vaccine) OR symptom",
    "(sars-cov-2 AND würze) OR (symptom AND vaccine) OR covid-19",
    "vaccine AND absent",
)

SCHEMES = {
    "mi": {},
    "smi": {},
    "ci": {"cvc_modulus_bits": 512},
    "ci*": {"cvc_modulus_bits": 512, "bloom_capacity": 2},
}


def corpus():
    """40 objects; keyword ``k`` is on the objects whose ID has bit ``k``."""
    return [
        DataObject(
            object_id,
            tuple(kw for bit, kw in enumerate(KEYWORDS) if object_id >> bit & 1),
            b"content of %d" % object_id,
        )
        for object_id in range(1, 41)
        if object_id % 32
    ]


@pytest.fixture(scope="module", params=[(s, n) for s in sorted(SCHEMES) for n in (3, 2)])
def answers(request):
    """Honest ``(vo, vo bytes, response bytes)`` of every query, one system."""
    scheme, shards = request.param
    system = HybridStorageSystem(
        scheme=scheme, seed=8, shards=shards, **SCHEMES[scheme]
    )
    system.add_objects(corpus())
    codec = VOCodec(value_bytes=system.value_bytes)
    oracle = reference.ReferenceVOCodec(value_bytes=system.value_bytes)
    out = []
    for text in QUERIES:
        answer = system.process_query(KeywordQuery.parse(text))
        vo_bytes = codec.encode(answer.vo)
        response = QueryResponse(
            result_ids=answer.result_ids,
            objects=[answer.objects[oid] for oid in answer.result_ids],
            vo_bytes=vo_bytes,
        )
        out.append((answer, vo_bytes, response.encode()))
    system.close()
    return codec, oracle, out


def outcome(decode, payload):
    """``("ok", value)`` or ``("rejected", None)``; other errors propagate."""
    try:
        return "ok", decode(payload)
    except ReproError:
        return "rejected", None


def response_fields(payload: bytes) -> dict:
    """``QueryResponse.decode`` in the shape of the reference's result."""
    response = QueryResponse.decode(payload)
    if response.error is not None:
        return {"error": response.error, "error_code": response.error_code}
    return {
        "result_ids": response.result_ids,
        "objects": [(o.object_id, o.keywords, o.content) for o in response.objects],
        "vo_bytes": response.vo_bytes,
    }


#: One mutation: flip bits of a byte, cut the tail, append, or drop a byte.
mutations = st.lists(
    st.one_of(
        st.tuples(st.just("flip"), st.floats(0, 1, exclude_max=True), st.integers(1, 255)),
        st.tuples(st.just("cut"), st.floats(0, 1, exclude_max=True), st.just(0)),
        st.tuples(st.just("drop"), st.floats(0, 1, exclude_max=True), st.just(0)),
        st.tuples(st.just("append"), st.just(0.0), st.integers(0, 255)),
    ),
    min_size=1,
    max_size=3,
)


def mutate(payload: bytes, edits) -> bytes:
    data = bytearray(payload)
    for kind, where, value in edits:
        if kind == "append":
            data.append(value)
        elif data:
            at = int(where * len(data))
            if kind == "flip":
                data[at] ^= value
            elif kind == "cut":
                del data[at:]
            else:
                del data[at]
    return bytes(data)


def test_honest_bytes_are_the_reference_bytes(answers):
    codec, oracle, honest = answers
    for answer, vo_bytes, response_bytes in honest:
        assert vo_bytes == oracle.encode(answer.vo)
        assert codec.decode(vo_bytes) == oracle.decode(vo_bytes) == answer.vo
        triples = [
            (o.object_id, o.keywords, o.content)
            for o in (answer.objects[oid] for oid in answer.result_ids)
        ]
        assert response_bytes == reference.encode_response(
            answer.result_ids, triples, vo_bytes
        )
        assert response_fields(response_bytes) == reference.decode_response(
            response_bytes
        )
        # A response re-encoded from what the client decoded is the same
        # bytes: objects keep their encoding.
        assert QueryResponse.decode(response_bytes).encode() == response_bytes


FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

#: The retired frames' goldens: (file, element width, version pin).
RETIRED = (
    ("vo_v2_smi_join", 32, 2),
    ("vo_v2_smi_scan", 32, 2),
    ("vo_v2_smi_dnf", 32, 2),
    ("vo_v2_ci_join", 64, 2),
    ("vo_v3_smi_dnf", 32, 3),
    ("vo_v4_ci_dnf", 64, 4),
    ("vo_v5_smi_dnf", 32, 5),
)


@pytest.mark.parametrize("name, width, version", RETIRED)
def test_reference_codec_round_trips_its_own_fixtures(name, width, version):
    payload = (FIXTURES / f"{name}.bin").read_bytes()
    oracle = reference.ReferenceVOCodec(value_bytes=width, version=version)
    assert oracle.encode(oracle.decode_retired(payload)) == payload
    # Neither side takes a retired frame for a live one.
    assert outcome(oracle.decode, payload) == ("rejected", None)
    assert outcome(VOCodec(value_bytes=width).decode, payload) == ("rejected", None)
    for cut in range(len(payload)):
        assert outcome(oracle.decode_retired, payload[:cut]) == ("rejected", None)


#: A join OR-ed with a scan, and a three-way join: every VO structure.
SWEPT = ("(covid-19 AND symptom) OR sars-cov-2", "covid-19 AND sars-cov-2 AND symptom")


def single_byte_mutants(payload: bytes):
    """Every byte under three masks, then every proper prefix.

    0x01 and 0x02 turn each flag, tag and 2-bit slot code into its
    neighbours (and a 1 into a 3); 0x80 sets varint continuation bits.
    """
    for offset in range(len(payload)):
        for mask in (0x01, 0x02, 0x80):
            mutant = bytearray(payload)
            mutant[offset] ^= mask
            yield bytes(mutant)
    for cut in range(len(payload)):
        yield payload[:cut]


@pytest.mark.parametrize("shards", [3, 2])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_every_single_byte_mutant_decodes_alike(scheme, shards):
    """The exhaustive half: random edits rarely land on a flag or a tag."""
    system = HybridStorageSystem(
        scheme=scheme, seed=8, shards=shards, **SCHEMES[scheme]
    )
    system.add_objects(corpus()[:5])  # frames of 0.4-2 KB: the sweep is quadratic
    codec = VOCodec(value_bytes=system.value_bytes)
    oracle = reference.ReferenceVOCodec(value_bytes=system.value_bytes)
    for text in SWEPT:
        answer = system.process_query(KeywordQuery.parse(text))
        vo_bytes = codec.encode(answer.vo)
        for mutant in single_byte_mutants(vo_bytes):
            assert outcome(codec.decode, mutant) == outcome(oracle.decode, mutant)
    if scheme == "smi" and shards == 3:  # the protocol does not vary
        response = QueryResponse(
            result_ids=answer.result_ids,
            objects=[answer.objects[oid] for oid in answer.result_ids],
            vo_bytes=vo_bytes,
        ).encode()
        for mutant in single_byte_mutants(response):
            assert outcome(response_fields, mutant) == outcome(
                reference.decode_response, mutant
            )
    system.close()


@settings(max_examples=150, deadline=None)
@given(which=st.integers(0, len(QUERIES) - 1), edits=mutations)
def test_mutated_vo_frames_decode_alike(answers, which, edits):
    codec, oracle, honest = answers
    mutant = mutate(honest[which][1], edits)
    assert outcome(codec.decode, mutant) == outcome(oracle.decode, mutant)


@settings(max_examples=150, deadline=None)
@given(which=st.integers(0, len(QUERIES) - 1), edits=mutations)
def test_mutated_responses_decode_alike(answers, which, edits):
    mutant = mutate(answers[2][which][2], edits)
    assert outcome(response_fields, mutant) == outcome(
        reference.decode_response, mutant
    )


@settings(max_examples=100, deadline=None)
@given(text=st.text(max_size=40), edits=st.one_of(st.just([]), mutations))
def test_requests_and_error_responses_decode_alike(text, edits):
    request = QueryRequest(query_text=text).encode()
    assert request == reference.encode_request(text)
    mutant = mutate(request, edits)
    assert outcome(
        lambda raw: QueryRequest.decode(raw).query_text, mutant
    ) == outcome(reference.decode_request, mutant)

    error = QueryResponse(
        result_ids=[], objects=[], vo_bytes=b"", error=text, error_code=2
    ).encode()
    assert error == reference.encode_error_response(text, 2)
    mutant = mutate(error, edits)
    assert outcome(response_fields, mutant) == outcome(
        reference.decode_response, mutant
    )


@settings(max_examples=100, deadline=None)
@given(
    object_id=st.integers(0, 2**64 - 1),
    keywords=st.lists(st.text(min_size=1, max_size=12), max_size=6),
    content=st.binary(max_size=64),
    edits=st.one_of(st.just([]), mutations),
)
def test_object_encodings_decode_alike(object_id, keywords, content, edits):
    try:
        obj = DataObject(object_id, tuple(keywords), content)
    except ReproError:
        return  # an empty-after-strip or NUL keyword: not an object
    wire = obj.encoded()
    assert wire == reference.encode_object(obj.object_id, obj.keywords, obj.content)
    assert DataObject.from_wire(wire) == obj
    mutant = mutate(wire, edits)

    def fields(raw):
        parsed = DataObject.from_wire(raw)
        return parsed.object_id, parsed.keywords, parsed.content

    assert outcome(fields, mutant) == outcome(reference.decode_object, mutant)
