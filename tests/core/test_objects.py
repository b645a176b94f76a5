"""Unit tests for data objects and meta-data."""

import pytest

from repro.core.objects import (
    DataObject,
    ObjectMetadata,
    ObjectStore,
    normalise_keyword,
)
from repro.errors import DatasetError


class TestNormalisation:
    def test_lowercase_and_strip(self):
        assert normalise_keyword("  COVID-19 ") == "covid-19"

    def test_rejects_empty(self):
        with pytest.raises(DatasetError):
            normalise_keyword("   ")


class TestDataObject:
    def test_keywords_normalised_and_deduped(self):
        obj = DataObject(1, ("Vaccine", "vaccine", " COVID-19"), b"x")
        assert obj.keywords == ("vaccine", "covid-19")

    def test_rejects_negative_id(self):
        with pytest.raises(DatasetError):
            DataObject(-1, ("a",), b"x")

    def test_digest_binds_all_fields(self):
        base = DataObject(1, ("a", "b"), b"content")
        assert base.digest() != DataObject(2, ("a", "b"), b"content").digest()
        assert base.digest() != DataObject(1, ("a",), b"content").digest()
        assert base.digest() != DataObject(1, ("a", "b"), b"other").digest()

    def test_digest_deterministic(self):
        a = DataObject(1, ("a",), b"x")
        b = DataObject(1, ("a",), b"x")
        assert a.digest() == b.digest()


class TestMetadata:
    def test_of_object(self):
        obj = DataObject(5, ("kw",), b"data")
        metadata = ObjectMetadata.of(obj)
        assert metadata.object_id == 5
        assert metadata.object_hash == obj.digest()

    def test_payload_bytes_shape(self):
        obj = DataObject(5, ("alpha", "beta"), b"data")
        payload = ObjectMetadata.of(obj).payload_bytes()
        # 8 id + 2 count + keywords + separator + 32 hash
        assert len(payload) == 8 + 2 + len(b"alpha\x00beta") + 32


class TestObjectStore:
    def test_put_get(self):
        store = ObjectStore()
        obj = DataObject(1, ("a",), b"x")
        store.put(obj)
        assert store.get(1) is obj
        assert 1 in store
        assert len(store) == 1

    def test_objects_immutable(self):
        store = ObjectStore()
        store.put(DataObject(1, ("a",), b"x"))
        with pytest.raises(DatasetError):
            store.put(DataObject(1, ("b",), b"y"))

    def test_missing_object(self):
        with pytest.raises(DatasetError):
            ObjectStore().get(42)

    def test_all_ids_sorted(self):
        store = ObjectStore()
        for oid in (3, 1, 2):
            store.put(DataObject(oid, ("a",), b"x"))
        assert store.all_ids() == [1, 2, 3]
