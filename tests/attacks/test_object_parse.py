"""One object parse, failing closed, whichever way an object is built.

``DataObject.from_wire`` parses an encoding at once; a ``deferred``
object reads only its ID and parses the rest the first time a field is
asked for — by the same routine.  For any encoding with a byte flipped,
inserted or dropped, cut short, or any bytes at all, both must give the
same fields or both raise :class:`~repro.errors.ReproError`; nothing
else may escape.  The checks raise on their own, so they hold under
``python -O`` too.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.objects import DataObject
from repro.errors import ReproError

keywords = st.lists(
    st.text(min_size=1, max_size=12).filter(lambda w: w.strip() and "\x00" not in w),
    max_size=5,
)

objects = st.builds(
    DataObject,
    object_id=st.integers(0, 2**64 - 1),
    keywords=keywords.map(tuple),
    content=st.binary(max_size=40),
)


@st.composite
def mutated(draw):
    """An object's encoding with one thing wrong, or arbitrary bytes."""
    wire = draw(objects).encoded()
    how = draw(st.sampled_from(["flip", "insert", "drop", "cut", "bytes"]))
    if how == "bytes":
        return draw(st.binary(max_size=64))
    at = draw(st.integers(0, len(wire) - 1))
    if how == "flip":
        mask = draw(st.sampled_from([0x01, 0x80, 0xFF]))
        return wire[:at] + bytes((wire[at] ^ mask,)) + wire[at + 1 :]
    if how == "insert":
        return wire[:at] + bytes((draw(st.integers(0, 255)),)) + wire[at:]
    if how == "drop":
        return wire[:at] + wire[at + 1 :]
    return wire[:at]


def parsed(wire: bytes):
    """``(id, keywords, content)`` as ``from_wire`` reads them, else None."""
    try:
        obj = DataObject.from_wire(wire)
    except ReproError:
        return None
    return obj.object_id, obj.keywords, obj.content


def deferred(wire: bytes, first: str):
    """The same, from a deferred object whose ``first`` field is read first."""
    try:
        obj = DataObject.deferred(wire)
        getattr(obj, first)
    except ReproError:
        return None
    return obj.object_id, obj.keywords, obj.content


@settings(max_examples=400, deadline=None)
@given(wire=mutated(), first=st.sampled_from(["keywords", "content"]))
def test_from_wire_and_deferred_parse_alike(wire, first):
    eager, lazy = parsed(wire), deferred(wire, first)
    if eager != lazy:
        raise AssertionError(f"{wire!r}: from_wire {eager!r}, deferred {lazy!r}")
    if eager is not None and DataObject.from_wire(wire).encoded() != wire:
        raise AssertionError("a parsed object does not keep the bytes it came from")


@settings(max_examples=100, deadline=None)
@given(obj=objects)
def test_honest_encodings_parse_to_the_object(obj):
    wire = obj.encoded()
    fields = (obj.object_id, obj.keywords, obj.content)
    for first in ("keywords", "content"):
        if not parsed(wire) == deferred(wire, first) == fields:
            raise AssertionError(f"{obj!r} does not parse back")
