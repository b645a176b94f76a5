"""Tests for the SP query protocol (bytes-only boundary)."""

import pytest

from repro import DataObject, HybridStorageSystem
from repro.core.query.codec import VOCodec
from repro.sp.protocol import (
    ERR_BAD_REQUEST,
    ERR_INTERNAL,
    ERR_QUERY,
    QueryRequest,
    QueryResponse,
    RemoteClient,
    StorageProviderServer,
)
from repro.errors import QueryError, ReproError, VerificationError


@pytest.fixture(params=["smi", "ci*"], scope="module")
def deployment(request):
    docs = [
        DataObject(1, ("covid-19", "sars-cov-2"), b"a"),
        DataObject(2, ("covid-19",), b"b"),
        DataObject(4, ("covid-19", "symptom", "vaccine"), b"c"),
        DataObject(5, ("covid-19", "vaccine"), b"d"),
        DataObject(6, ("symptom",), b"e"),
    ]
    system = HybridStorageSystem(
        scheme=request.param, cvc_modulus_bits=512, seed=8
    )
    system.add_objects(docs)
    server = StorageProviderServer(system)
    client = RemoteClient(transport=server.handle, system=system)
    return system, server, client


class TestObjectEncoding:
    def test_roundtrip(self):
        obj = DataObject(42, ("alpha", "beta"), b"\x00\x01payload")
        decoded = DataObject.from_wire(obj.encoded())
        assert decoded == obj
        assert decoded.encoded() is obj.encoded()  # kept, not rebuilt
        assert decoded.digest() == obj.digest()


class TestRequestResponseEncoding:
    def test_request_roundtrip(self):
        req = QueryRequest(query_text='a AND "b c"')
        assert QueryRequest.decode(req.encode()) == req

    def test_request_version_check(self):
        payload = bytes([99]) + b"\x00\x01a"
        with pytest.raises(ReproError):
            QueryRequest.decode(payload)

    def test_error_response_roundtrip(self):
        resp = QueryResponse(
            result_ids=[],
            objects=[],
            vo_bytes=b"",
            error="bad query",
            error_code=ERR_QUERY,
        )
        decoded = QueryResponse.decode(resp.encode())
        assert decoded.error == "bad query"
        assert decoded.error_code == ERR_QUERY

    def test_error_without_code_defaults_to_internal(self):
        resp = QueryResponse(
            result_ids=[], objects=[], vo_bytes=b"", error="oops"
        )
        assert QueryResponse.decode(resp.encode()).error_code == ERR_INTERNAL

    def test_truncated_response(self):
        resp = QueryResponse(result_ids=[1], objects=[], vo_bytes=b"xx")
        with pytest.raises(ReproError):
            QueryResponse.decode(resp.encode()[:-1])


class TestEndToEnd:
    def test_verified_remote_query(self, deployment):
        _, _, client = deployment
        result = client.query("covid-19 AND vaccine")
        assert result.result_ids == [4, 5]
        assert result.vo_sp_bytes > 0
        assert result.vo_chain_bytes > 0

    def test_disjunctive_remote_query(self, deployment):
        _, _, client = deployment
        result = client.query("(covid-19 AND symptom) OR sars-cov-2")
        assert result.result_ids == [1, 4]

    def test_malformed_query_surfaces_sp_error(self, deployment):
        _, _, client = deployment
        with pytest.raises(QueryError):
            client.query("covid-19 AND NOT vaccine")

    def test_unparsable_query_reports_query_code(self, deployment):
        _, server, _ = deployment
        raw = server.handle(QueryRequest("covid-19 AND NOT x").encode())
        response = QueryResponse.decode(raw)
        assert response.error is not None
        assert response.error_code == ERR_QUERY

    def test_garbage_request_reports_bad_request_code(self, deployment):
        _, server, _ = deployment
        response = QueryResponse.decode(server.handle(b"\x99junk"))
        assert response.error is not None
        assert response.error_code == ERR_BAD_REQUEST

    def test_tampering_transport_detected(self, deployment):
        system, server, _ = deployment

        def evil_transport(request_bytes: bytes) -> bytes:
            response = QueryResponse.decode(server.handle(request_bytes))
            # Drop a result and its object: the VO no longer matches.
            response.result_ids = response.result_ids[:-1]
            response.objects = response.objects[:-1]
            return response.encode()

        client = RemoteClient(transport=evil_transport, system=system)
        with pytest.raises(VerificationError):
            client.query("covid-19 AND vaccine")

    def test_vo_substitution_detected(self, deployment):
        system, server, _ = deployment
        codec = VOCodec(value_bytes=system.value_bytes)

        def swap_transport(request_bytes: bytes) -> bytes:
            # Answer the real query but attach the VO of a different one.
            other = QueryRequest(query_text="symptom").encode()
            real = QueryResponse.decode(server.handle(request_bytes))
            fake = QueryResponse.decode(server.handle(other))
            real.vo_bytes = fake.vo_bytes
            return real.encode()

        client = RemoteClient(transport=swap_transport, system=system)
        with pytest.raises(VerificationError):
            client.query("covid-19 AND vaccine")
