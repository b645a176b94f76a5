"""Keyword byte-length limits across ingestion, codec and SP protocol.

The SP wire format stores each keyword behind a one-byte length prefix,
so 255 UTF-8 bytes is a protocol constant.  Before the fix, a >255-byte
keyword was accepted at ingestion and only blew up later as an
``OverflowError`` inside the object encoder; now it is rejected at the
door, ``DataObject.encoded`` double-checks defensively, and the SP
server answers over-long query keywords with ``ERR_BAD_REQUEST``.
"""

from __future__ import annotations

import pytest

from repro import DataObject, HybridStorageSystem
from repro.core.objects import MAX_KEYWORD_BYTES, normalise_keyword
from repro.core.query.parser import KeywordQuery
from repro.errors import DatasetError, ReproError
from repro.sp.protocol import (
    ERR_BAD_REQUEST,
    QueryRequest,
    QueryResponse,
    StorageProviderServer,
)

KW_255 = "k" * 255
KW_256 = "k" * 256
#: 128 two-byte UTF-8 code points: 128 characters but 256 bytes.
KW_MULTIBYTE_256 = "é" * 128


class TestIngestionBoundary:
    def test_255_byte_keyword_accepted(self):
        assert normalise_keyword(KW_255) == KW_255
        obj = DataObject(1, (KW_255,), b"x")
        assert obj.keywords == (KW_255,)

    def test_256_byte_keyword_rejected(self):
        with pytest.raises(DatasetError):
            normalise_keyword(KW_256)
        with pytest.raises(DatasetError):
            DataObject(1, (KW_256,), b"x")

    def test_limit_counts_utf8_bytes_not_characters(self):
        assert len(KW_MULTIBYTE_256) == 128  # well under 255 characters
        with pytest.raises(DatasetError):
            normalise_keyword(KW_MULTIBYTE_256)

    def test_query_parser_enforces_the_same_limit(self):
        with pytest.raises(DatasetError):
            KeywordQuery.parse(f'"{KW_256}"')
        parsed = KeywordQuery.parse(f'"{KW_255}"')
        assert parsed.all_keywords() == {KW_255}


class TestCodecBoundary:
    def test_roundtrip_at_the_limit(self):
        obj = DataObject(7, (KW_255, "small"), b"payload")
        assert DataObject.from_wire(obj.encoded()) == obj

    def test_codec_rejects_oversized_keyword_with_library_error(self):
        # Bypass DataObject validation to hit the codec's own guard.
        rogue = DataObject(7, ("ok",), b"payload")
        object.__setattr__(rogue, "keywords", (KW_256,))
        with pytest.raises(ReproError):
            rogue.encoded()


class TestServerBoundary:
    @pytest.fixture(scope="class")
    def server(self):
        system = HybridStorageSystem(
            scheme="smi", seed=13
        )
        system.add_object(DataObject(1, ("alpha", KW_255), b"a"))
        return StorageProviderServer(system)

    def test_query_at_the_limit_is_served(self, server):
        raw = server.handle(QueryRequest(f'"{KW_255}"').encode())
        response = QueryResponse.decode(raw)
        assert response.error is None
        assert response.result_ids == [1]

    def test_overlong_query_keyword_reports_bad_request(self, server):
        raw = server.handle(QueryRequest(f'"{KW_256}"').encode())
        response = QueryResponse.decode(raw)
        assert response.error is not None
        assert response.error_code == ERR_BAD_REQUEST
