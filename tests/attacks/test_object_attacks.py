"""Forged result objects: ``h(o)`` must pin every field boundary.

The digest used to be ``h(id || "\\0".join(keywords) || content)`` — no
length between the parts, and keywords could hold NUL.  A malicious SP
could then move bytes across a boundary (the last keyword's tail into
the content's head, or two keywords into one around a NUL) and return an
object the data owner never wrote under the digest the data owner did
publish; :class:`~repro.sp.protocol.RemoteClient` accepted it.  ``h(o)``
is now taken over the length-framed canonical encoding, and every such
forgery must fail verification — with a typed error, also under
``python -O``.

The second half is about *which* objects verification covers: the
client checks the object of every verified result ID, so a response must
carry exactly those objects — one per ID, in ID order — or an object the
SP slipped in beside them would reach the caller unchecked.
"""

import struct

import pytest

from repro import DataObject, HybridStorageSystem
from repro.errors import DatasetError, VerificationError
from repro.sp.protocol import QueryResponse, RemoteClient, StorageProviderServer

HONEST = DataObject(1, ("covid", "vaccine", "x"), b"safe and effective")


def wire_object(object_id: int, keywords: tuple[str, ...], content: bytes) -> DataObject:
    """An object exactly as sent: no constructor normalises or refuses it."""
    blobs = [kw.encode("utf-8") for kw in keywords]
    return DataObject.from_wire(
        struct.pack(">QH", object_id, len(blobs))
        + b"".join(bytes((len(blob),)) + blob for blob in blobs)
        + struct.pack(">I", len(content))
        + content
    )


FORGERIES = {
    # "x" || "safe..." re-cut as "xs" || "afe...": same concatenation.
    "boundary-shift": wire_object(
        1, ("covid", "vaccine", "xs"), b"afe and effective"
    ),
    # Two keywords fused around the separator the old digest joined with.
    "nul-split": wire_object(1, ("covid", "vaccine\x00x"), b"safe and effective"),
    # The content's head pulled into a new keyword.
    "content-to-keyword": wire_object(
        1, ("covid", "vaccine", "x", "safe"), b" and effective"
    ),
}


@pytest.fixture(scope="module", params=["smi", "ci"])
def deployment(request):
    system = HybridStorageSystem(
        scheme=request.param, cvc_modulus_bits=512, seed=8
    )
    system.add_objects([HONEST, DataObject(2, ("covid",), b"other")])
    yield system, StorageProviderServer(system)
    system.close()


def legacy_digest_preimage(obj: DataObject) -> bytes:
    """What the unframed digest hashed: the forgeries all collide on it."""
    return (
        obj.object_id.to_bytes(8, "big")
        + b"\x00".join(kw.encode("utf-8") for kw in obj.keywords)
        + obj.content
    )


@pytest.mark.parametrize("name", ["boundary-shift", "nul-split"])
def test_forgery_collided_under_the_unframed_digest(name):
    assert legacy_digest_preimage(FORGERIES[name]) == legacy_digest_preimage(HONEST)
    assert FORGERIES[name].digest() != HONEST.digest()


@pytest.mark.parametrize("name", sorted(FORGERIES))
def test_forged_object_is_rejected_by_the_remote_client(deployment, name):
    system, server = deployment

    def forging_transport(request: bytes) -> bytes:
        response = QueryResponse.decode(server.handle(request))
        response.objects = [
            FORGERIES[name] if obj.object_id == 1 else obj
            for obj in response.objects
        ]
        return response.encode()

    honest = RemoteClient(server.handle, system).query("covid")
    assert honest.result_ids == [1, 2]
    assert honest.objects[1] == HONEST
    with pytest.raises(VerificationError, match="does not hash"):
        RemoteClient(forging_transport, system).query("covid")


def test_nul_keyword_cannot_be_ingested():
    with pytest.raises(DatasetError, match="NUL"):
        DataObject(3, ("a\x00b",), b"")


def test_digest_is_injective_where_the_old_one_was_not():
    assert DataObject(1, ("ab",), b"cd").digest() != DataObject(1, ("abc",), b"d").digest()
    assert DataObject(1, ("a", "b"), b"").digest() != DataObject(1, ("ab",), b"").digest()
    assert DataObject(1, (), b"a").digest() != DataObject(1, ("a",), b"").digest()


# -- objects the verification would never look at ---------------------------------


def tampering_transport(server, edit):
    """The honest response with ``edit(response)`` applied before it is sent."""

    def transport(request: bytes) -> bytes:
        response = QueryResponse.decode(server.handle(request))
        edit(response)
        return response.encode()

    return transport


def extra_object(response):
    response.objects.append(DataObject(999999, ("covid",), b"never ingested"))


def extra_object_behind_a_repeated_id(response):
    """What the parent accepted: ``{1, 2, 999999}`` came back "verified"."""
    response.result_ids.append(response.result_ids[-1])
    response.objects.append(DataObject(999999, ("covid",), b"never ingested"))


def duplicate_object(response):
    response.objects.append(response.objects[0])


def duplicate_result_id(response):
    response.result_ids.append(response.result_ids[0])
    response.objects.append(response.objects[0])


def unsorted_result_ids(response):
    response.result_ids.reverse()
    response.objects.reverse()


def missing_object(response):
    del response.objects[-1]


@pytest.mark.parametrize(
    "edit",
    [
        extra_object,
        extra_object_behind_a_repeated_id,
        duplicate_object,
        duplicate_result_id,
        unsorted_result_ids,
        missing_object,
    ],
    ids=lambda edit: edit.__name__,
)
def test_only_verified_objects_reach_the_caller(deployment, edit):
    system, server = deployment
    honest = RemoteClient(server.handle, system).query("covid")
    assert sorted(honest.objects) == honest.result_ids == [1, 2]
    with pytest.raises(VerificationError):
        RemoteClient(tampering_transport(server, edit), system).query("covid")


def test_system_query_returns_only_verified_objects(deployment):
    """The facade is the same client: an object the SP pads its answer
    with cannot even cross the wire, because the server serialises one
    object per result ID.  The tampering tests above cover a response
    that carries one anyway."""
    system, _ = deployment
    honest = system._sp.process_query

    def padding(query, *held):
        answer = honest(query)
        answer.objects[999999] = DataObject(999999, ("covid",), b"never ingested")
        return answer

    system._sp.process_query = padding
    try:
        result = system.query("covid")
    finally:
        system._sp.process_query = honest
    assert sorted(result.objects) == result.result_ids == [1, 2]
