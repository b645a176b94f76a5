"""The ``verified`` flag must be earned, never asserted.

Regression tests for a bug where ``HybridStorageSystem.query`` returned
``verified=True`` unconditionally.  Now the flag is derived from the
actual verification outcome, and — more importantly — any tampering
with SP-side state surfaces as :class:`VerificationError` raised out of
``query()`` itself, for every scheme.
"""

from __future__ import annotations

import pytest

from repro import DataObject, HybridStorageSystem
from repro.errors import VerificationError

SCHEMES = ("mi", "smi", "ci", "ci*")

DOCS = [
    DataObject(1, ("covid-19", "sars-cov-2"), b"a"),
    DataObject(2, ("covid-19",), b"b"),
    DataObject(4, ("covid-19", "symptom", "vaccine"), b"c"),
    DataObject(5, ("covid-19", "vaccine"), b"d"),
    DataObject(6, ("symptom",), b"e"),
]


def build(scheme):
    system = HybridStorageSystem(scheme=scheme, cvc_modulus_bits=512, seed=9)
    system.add_objects(DOCS)
    return system


@pytest.mark.parametrize("scheme", SCHEMES)
class TestVerifiedFlag:
    def test_honest_query_reports_verified(self, scheme):
        system = build(scheme)
        result = system.query("covid-19 AND vaccine")
        assert result.verified is True
        assert result.result_ids == [4, 5]

    def test_swapped_object_content_raises(self, scheme):
        """SP substitutes an object's bytes: the digest check must fire
        inside query(), not silently return verified=True."""
        system = build(scheme)
        honest = system.store.get(4)
        system.store._objects[4] = DataObject(
            4, honest.keywords, b"forged-content"
        )
        with pytest.raises(VerificationError):
            system.query("covid-19 AND symptom")

    def test_dropped_index_entry_raises(self, scheme):
        """SP rebuilds its index with one posting missing: completeness
        verification must reject the shrunken answer."""
        system = build(scheme)
        truncated = [obj for obj in DOCS if obj.object_id != 4]
        fresh = HybridStorageSystem(
            scheme=scheme, cvc_modulus_bits=512, seed=9
        )
        fresh.add_objects(truncated)
        # Splice the truncated SP index under the original chain state.
        engine, truncated_engine = system._sp.engines[0], fresh._sp.engines[0]
        engine.index = truncated_engine.index
        engine.blooms = truncated_engine.blooms
        system.store = fresh.store
        with pytest.raises(VerificationError):
            system.query("covid-19 AND symptom")
