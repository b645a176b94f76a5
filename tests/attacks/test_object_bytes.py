"""The client checks an answer's objects as bytes.

``verify_query`` hashes each returned object's encoding and then tests
the query on the encoded keyword list (``encoding_satisfies``), walking
its length prefixes: for every canonical object and DNF query that test
must be exactly ``query.matches`` over the parsed keyword set — a query
keyword inside another keyword, across a length prefix or in the content
matches nothing.  An honest answer is verified without parsing a single
object; the caller's first read of a field parses it, through the one
routine.  The checks raise on their own, so they hold under
``python -O`` too.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import DataObject, HybridStorageSystem, KeywordQuery
from repro.core import objects
from repro.core.objects import encoding_satisfies

#: Few letters, so keywords collide and nest; ``\\x01``-``\\x04`` look
#: like length prefixes, and ``é`` is two UTF-8 bytes.
LETTERS = "ab\x01\x02\x04é"

keyword = st.text(LETTERS, min_size=1, max_size=4)

canonical = st.builds(
    DataObject,
    object_id=st.integers(0, 2**64 - 1),
    keywords=st.lists(keyword, max_size=6).map(tuple),
    content=st.one_of(
        st.binary(max_size=24),
        st.lists(keyword, max_size=3).map(lambda ws: "".join(ws).encode()),
    ),
)

dnf = st.lists(
    st.frozensets(keyword, min_size=1, max_size=3), min_size=1, max_size=3
).map(lambda conjunctions: KeywordQuery(conjunctions=tuple(conjunctions)))


def byte_test(query: KeywordQuery, wire: bytes) -> bool:
    """The query tested on an encoding, as ``verify_query`` does."""
    conjunctions = tuple(
        frozenset(kw.encode() for kw in conj) for conj in query.conjunctions
    )
    return encoding_satisfies(wire, conjunctions, frozenset().union(*conjunctions))


def check(query: KeywordQuery, obj: DataObject) -> None:
    wire = obj.encoded()
    want = query.matches(DataObject.from_wire(wire).keyword_set())
    if byte_test(query, wire) != want:
        raise AssertionError(f"{query} on {wire!r}: the byte test is not {want}")


@settings(max_examples=600, deadline=None)
@given(obj=canonical, query=dnf)
def test_the_byte_test_is_the_set_test(obj, query):
    check(query, obj)


@settings(max_examples=200, deadline=None)
@given(obj=canonical, data=st.data())
def test_a_query_over_the_objects_own_keywords(obj, data):
    # Drawn from the object's keywords, so most of these match.
    if obj.keywords:
        conj = data.draw(st.frozensets(st.sampled_from(obj.keywords), min_size=1))
        other = data.draw(st.frozensets(keyword, min_size=1, max_size=2))
        check(KeywordQuery(conjunctions=(other, conj)), obj)
        check(KeywordQuery(conjunctions=(conj,)), obj)


def expect(text: str, obj: DataObject, want: bool) -> None:
    query = KeywordQuery.parse(text)
    check(query, obj)
    if byte_test(query, obj.encoded()) != want:
        raise AssertionError(f"{text!r} on {obj!r} is not {want}")


def test_a_keyword_inside_another_keyword_does_not_match():
    obj = DataObject(1, ("covid-19", "vaccine"), b"")
    expect("covid", obj, False)
    expect("accin", obj, False)
    expect("covid-19", obj, True)
    expect("covid OR vaccine", obj, True)


def test_a_keyword_whose_prefix_sits_inside_another_does_not_match():
    # ``a\x02bc`` encodes as ``04 61 02 62 63``: ``02 62 63`` is how
    # ``bc`` itself would be encoded, one byte into the keyword.
    obj = DataObject(2, ("a\x02bc",), b"")
    if b"\x02bc" not in obj.encoded()[10:]:
        raise AssertionError("the case does not hold the unaligned encoding")
    expect("bc", obj, False)
    expect("a\x02bc", obj, True)


def test_a_keyword_across_a_length_prefix_does_not_match():
    # ``ab`` then ``cd``: ``02 61 62 02 63 64`` holds ``b 02 c``.
    obj = DataObject(3, ("ab", "cd"), b"")
    expect("b\x02c", obj, False)
    expect("ab AND cd", obj, True)
    expect("ab AND bc", obj, False)


def test_a_keyword_only_in_the_content_does_not_match():
    obj = DataObject(4, ("x",), b"\x05covid" + b"\x00" * 3)
    expect("covid", obj, False)
    expect("x AND covid", obj, False)
    expect("covid OR x", obj, True)


def test_an_object_without_keywords_matches_nothing():
    expect("a", DataObject(5, (), b"\x01a"), False)


# -- end to end: an honest answer is verified unparsed ------------------------

VOCABULARY = ("alpha", "beta", "gamma")

DOCS = {
    oid: DataObject(
        oid,
        tuple(kw for bit, kw in enumerate(VOCABULARY) if oid % (bit + 2) == 0),
        b"doc %d" % oid,
    )
    for oid in range(2, 30)
}


def test_an_honest_answer_is_verified_without_parsing_an_object(monkeypatch):
    system = HybridStorageSystem(scheme="ci", seed=7, cvc_modulus_bits=512)
    system.add_objects(list(DOCS.values()))
    parsed: list[bytes] = []
    parse = objects._fields

    def counted(wire):
        parsed.append(wire)
        return parse(wire)

    monkeypatch.setattr(objects, "_fields", counted)
    query = KeywordQuery.parse("alpha OR beta OR gamma")
    result = system.query(str(query))
    want = [oid for oid, doc in DOCS.items() if query.matches(doc.keyword_set())]
    if result.result_ids != want:
        raise AssertionError(f"{result.result_ids} != {want}")
    if parsed:
        raise AssertionError(f"verification parsed {len(parsed)} objects")
    # The caller's first read parses the object, once, into what was stored.
    first = result.objects[want[0]]
    if (first.keywords, first.content) != (DOCS[want[0]].keywords, DOCS[want[0]].content):
        raise AssertionError("a returned object does not read back as stored")
    if len(parsed) != 1:
        raise AssertionError(f"reading one object parsed {len(parsed)} times")
    if [result.objects[oid] for oid in want] != [DOCS[oid] for oid in want]:
        raise AssertionError("the returned objects are not the stored ones")
    system.close()
