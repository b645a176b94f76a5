"""Differential oracle: the offset reader against the stream codec it replaced.

``tests/reference_codec.py`` keeps the ``io.BytesIO`` implementation.
On honest answers of all four schemes — served by SPs of two and three
shards, which must not show in the bytes — the encoders must emit the
reference's bytes; on those bytes, and on random mutations of them, both
decoders must return equal values or both raise
:class:`~repro.errors.ReproError`.  A decoder that got laxer, stricter
or different in any field while it got faster fails here.  The
single-byte sweeps run a seeded sample of the offsets in tier-1 and
every offset under ``REPRO_FULL_SWEEPS=1`` (:mod:`tests.sweeps`).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataObject, HybridStorageSystem, KeywordQuery
from repro.core.query.codec import VOCodec
from repro.core.query.vo import HeldNodeTable
from repro.errors import ReproError
from repro.sp.protocol import QueryRequest, QueryResponse
from tests import reference_codec as reference
from tests.sweeps import offsets

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


#: A join OR-ed with a scan, and a three-way join: every VO structure.
SWEPT = ("(covid-19 AND symptom) OR sars-cov-2", "covid-19 AND sars-cov-2 AND symptom")


def single_byte_mutants(payload: bytes):
    """Every byte under three masks, then every proper prefix (a seeded
    sample of the offsets in tier-1: :mod:`tests.sweeps`).

    0x01 and 0x02 turn each flag, tag and 2-bit slot code into its
    neighbours (and a 1 into a 3); 0x80 sets varint continuation bits.
    """
    for offset in offsets(len(payload)):
        for mask in (0x01, 0x02, 0x80):
            mutant = bytearray(payload)
            mutant[offset] ^= mask
            yield bytes(mutant)
    for cut in offsets(len(payload), 1):
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


#: A held-table list: ``(byte_size, cache_token)`` entries.
held_lists = st.lists(
    st.tuples(st.integers(0, 2**20), st.binary(min_size=32, max_size=32)),
    max_size=5,
)


#: Node summaries: ``(keyword, cnt, bitmap)``, keywords ascending, each
#: bitmap's positions inside ``[0, cnt]`` and its last byte not zero.
@st.composite
def node_summaries(draw):
    keywords = sorted(
        set(draw(st.lists(st.text(min_size=1, max_size=8), max_size=3)))
    )
    summaries = []
    for keyword in keywords:
        positions = draw(st.sets(st.integers(0, 300), min_size=1, max_size=12))
        mask = sum(1 << p for p in positions)
        bitmap = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
        count = draw(st.integers(max(positions), 2**64 - 1))
        summaries.append((keyword, count, bitmap))
    return tuple(summaries)


def request_fields(raw: bytes) -> tuple:
    request = QueryRequest.decode(raw)
    return request.query_text, request.held, request.nodes


@settings(max_examples=100, deadline=None)
@given(
    text=st.text(max_size=40),
    held=held_lists,
    nodes=node_summaries(),
    edits=st.one_of(st.just([]), mutations),
)
def test_requests_and_error_responses_decode_alike(text, held, nodes, edits):
    request = QueryRequest(query_text=text, held=tuple(held), nodes=nodes).encode()
    assert request == reference.encode_request(text, held, nodes)
    assert request_fields(request) == (text, tuple(held), nodes)
    mutant = mutate(request, edits)
    assert outcome(request_fields, mutant) == outcome(
        reference.decode_request, mutant
    )

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


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_held_references_encode_and_decode_alike(scheme):
    """Protocol v3: tables the session holds go as kind-3 references.

    After a session has verified every query once, each query's VO is
    finished against the list its client would send: the SP's frame is
    the reference encoder's frame of the cold VO against that list, both
    decoders resolve its references to the held tables, and every
    single-byte mutant and prefix of one frame decodes alike.
    """
    system = HybridStorageSystem(scheme=scheme, seed=8, **SCHEMES[scheme])
    system.add_objects(corpus()[:12])
    codec = VOCodec(value_bytes=system.value_bytes)
    oracle = reference.ReferenceVOCodec(value_bytes=system.value_bytes)
    for text in QUERIES:
        system.query(text)
    referenced = 0
    for text in QUERIES:
        query = KeywordQuery.parse(text)
        held = system.verify_cache.held(sorted(query.all_keywords()))
        listed = [(table.byte_size(), table.cache_token()) for table in held]
        vo = system.process_query(query).vo
        sent = system.process_query(query, listed).vo
        vo_bytes = codec.encode(sent)
        assert len(vo_bytes) == sent.byte_size()
        assert vo_bytes == oracle.encode(vo, listed)
        assert codec.decode(vo_bytes, held) == oracle.decode(vo_bytes, held) == vo
        assert codec.encode(codec.decode(vo_bytes, held)) == codec.encode(vo)
        referenced += len(vo_bytes) < vo.byte_size()
        request = QueryRequest(query_text=text, held=tuple(listed)).encode()
        assert request == reference.encode_request(text, listed)
        assert request_fields(request) == reference.decode_request(request)
    assert referenced
    query = KeywordQuery.parse(SWEPT[0])
    vo = system.process_query(query).vo
    held = system.verify_cache.held(sorted(query.all_keywords()))
    listed = [(t.byte_size(), t.cache_token()) for t in held]
    vo_bytes = codec.encode(system.process_query(query, listed).vo)
    assert len(vo_bytes) < vo.byte_size()  # the scan's table is held
    for mutant in single_byte_mutants(vo_bytes):
        assert outcome(lambda raw: codec.decode(raw, held), mutant) == outcome(
            lambda raw: oracle.decode(raw, held), mutant
        )
    system.close()


@pytest.mark.parametrize("scheme", ["ci", "ci*"])
def test_short_rows_encode_and_decode_alike(scheme):
    """Protocol v4: nodes the session holds go as short rows (kind 4).

    After a session has verified every query once, each query's VO is
    finished against the tables and the node summaries its client would
    send: the SP's frame is the reference encoder's frame of the cold VO
    against those lists and the trees' counts, both decoders rebuild the
    cold tables from the held statements, and every single-byte mutant
    and prefix of a frame with short rows decodes alike.
    """
    system = HybridStorageSystem(scheme=scheme, seed=8, **SCHEMES[scheme])
    system.add_objects(corpus()[:12])
    codec = VOCodec(value_bytes=system.value_bytes)
    oracle = reference.ReferenceVOCodec(value_bytes=system.value_bytes)
    for text in QUERIES:
        system.query(text)
    for text in QUERIES:
        keywords = sorted(KeywordQuery.parse(text).all_keywords())
        held = system.verify_cache.held(keywords)
        listed = [(table.byte_size(), table.cache_token()) for table in held]
        summaries = system.verify_cache.held_nodes(keywords)
        nodes = [summary[:3] for summary in summaries]
        statements = [summary[3:] for summary in summaries]
        counts = {kw: system._sp_view(kw).tree.count for kw in keywords}
        query = KeywordQuery.parse(text)
        vo = system.process_query(query).vo
        sent = system.process_query(query, listed, nodes).vo
        vo_bytes = codec.encode(sent)
        assert len(vo_bytes) == sent.byte_size()
        assert vo_bytes == oracle.encode(vo, listed, nodes, counts)
        assert (
            codec.decode(vo_bytes, held, statements)
            == oracle.decode(vo_bytes, held, statements)
            == vo
        )
        request = QueryRequest(text, tuple(listed), tuple(nodes)).encode()
        assert request == reference.encode_request(text, listed, nodes)
        assert request_fields(request) == reference.decode_request(request)
    # A three-way join's tables, none held whole: every one is kind 4,
    # the first keyword's with only its first three nodes short.
    query = KeywordQuery.parse(SWEPT[1])
    summaries = system.verify_cache.held_nodes(sorted(query.all_keywords()))
    keyword, count, _, held_first, _ = summaries[0]
    summaries[0] = (
        keyword, count, b"\x07", {p: held_first[p] for p in range(3)}, {}
    )
    statements = [summary[3:] for summary in summaries]
    nodes = [summary[:3] for summary in summaries]
    counts = {kw: system._sp_view(kw).tree.count for kw in query.all_keywords()}
    vo = system.process_query(query).vo
    vo_bytes = codec.encode(system.process_query(query, (), nodes).vo)
    assert vo_bytes == oracle.encode(vo, (), nodes, counts)
    assert len(vo.multiproofs) == 3
    assert len(vo_bytes) < vo.byte_size() // 2
    assert codec.decode(vo_bytes, (), statements) == vo
    for mutant in single_byte_mutants(vo_bytes):
        assert outcome(
            lambda raw: codec.decode(raw, (), statements), mutant
        ) == outcome(lambda raw: oracle.decode(raw, (), statements), mutant)
    system.close()


@pytest.mark.parametrize("scheme", ["mi", "smi"])
def test_held_rows_encode_and_decode_alike(scheme):
    """Merkle rows the session holds go short (kind 4, arity 0).

    After a session has verified every query once, each query's VO is
    finished against the tables and the row summaries its client would
    send: the SP's frame is the reference encoder's frame of the cold VO
    against those lists and the held rows, both decoders rebuild the cold
    tables from the rows, and every single-byte mutant and prefix of a
    frame with held rows decodes alike.
    """
    system = HybridStorageSystem(scheme=scheme, seed=8, **SCHEMES[scheme])
    system.add_objects(corpus()[:12])
    codec = VOCodec(value_bytes=system.value_bytes)
    oracle = reference.ReferenceVOCodec(value_bytes=system.value_bytes)
    for text in QUERIES:
        system.query(text)
    shortened = 0
    for text in QUERIES:
        keywords = sorted(KeywordQuery.parse(text).all_keywords())
        held = system.verify_cache.held(keywords)
        listed = [(table.byte_size(), table.cache_token()) for table in held]
        summaries = system.verify_cache.held_nodes(keywords)
        nodes = [summary[:3] for summary in summaries]
        rows = [summary[3:] for summary in summaries]
        query = KeywordQuery.parse(text)
        vo = system.process_query(query).vo
        sent = system.process_query(query, listed, nodes).vo
        vo_bytes = codec.encode(sent)
        assert len(vo_bytes) == sent.byte_size()
        assert vo_bytes == oracle.encode(vo, listed, nodes, None, [r[0] for r in rows])
        assert codec.decode(vo_bytes, held, rows) == oracle.decode(vo_bytes, held, rows) == vo
        shortened += any(
            isinstance(table, HeldNodeTable) and not table.arity
            for table in sent.multiproofs
        )
    assert shortened
    # A three-way join, no table held whole: its tables carry held rows.
    query = KeywordQuery.parse(SWEPT[1])
    summaries = system.verify_cache.held_nodes(sorted(query.all_keywords()))
    nodes = [summary[:3] for summary in summaries]
    rows = [summary[3:] for summary in summaries]
    vo = system.process_query(query).vo
    vo_bytes = codec.encode(system.process_query(query, (), nodes).vo)
    assert vo_bytes == oracle.encode(vo, (), nodes, None, [r[0] for r in rows])
    assert len(vo_bytes) < vo.byte_size() // 2
    assert codec.decode(vo_bytes, (), rows) == vo
    for mutant in single_byte_mutants(vo_bytes):
        assert outcome(lambda raw: codec.decode(raw, (), rows), mutant) == outcome(
            lambda raw: oracle.decode(raw, (), rows), mutant
        )
    system.close()
