"""End-to-end observability: span trees and live gas counters per scheme."""

from __future__ import annotations

import pytest

from repro import DataObject, HybridStorageSystem, obs
from repro.sp.protocol import (
    ERR_QUERY,
    QueryRequest,
    QueryResponse,
    StorageProviderServer,
)

SCHEMES = ("mi", "smi", "ci", "ci*")

DOCS = [
    DataObject(1, ("covid-19", "sars-cov-2"), b"a"),
    DataObject(2, ("covid-19",), b"b"),
    DataObject(4, ("covid-19", "symptom", "vaccine"), b"c"),
    DataObject(5, ("covid-19", "vaccine"), b"d"),
    DataObject(6, ("symptom",), b"e"),
]


def _build(scheme: str) -> HybridStorageSystem:
    return HybridStorageSystem(scheme=scheme, cvc_modulus_bits=512, seed=8)


#: Maintenance span each scheme's contract must emit during inserts.
MAINTENANCE_SPANS = {
    "mi": "maintain.mi.insert",
    "smi": "maintain.smi.insert",
    "ci": "maintain.ci.insert",
    "ci*": "maintain.ci*.bloom",
}


@pytest.mark.parametrize("scheme", SCHEMES)
class TestPerScheme:
    def test_query_span_tree(self, scheme):
        system = _build(scheme)
        system.add_objects(DOCS)
        with obs.collect() as col:
            result = system.query("covid-19 AND vaccine")
        assert result.result_ids == [4, 5]
        by_name = {s.name: s for s in col.spans}
        root = by_name["query"]
        assert root.parent_id is None
        for phase in (
            "query.parse",
            "query.request",
            "query.chain",
            "query.vo_decode",
            "query.verify",
        ):
            span = by_name[phase]
            assert span.parent_id == root.span_id, phase
            assert span.duration_s > 0, phase
        # The SP's work runs behind the wire: request -> server -> SP.
        wire = ("query.request", "sp.request", "query.sp", "query.sp.join")
        for parent, child in zip(wire, wire[1:]):
            assert by_name[child].parent_id == by_name[parent].span_id, child
        assert root.attributes["scheme"] == scheme
        assert root.attributes["results"] == 2
        assert root.attributes["vo_bytes"] == result.vo_total_bytes

    def test_live_gas_counters_match_receipts(self, scheme):
        with obs.collect() as col:
            system = _build(scheme)
            reports = system.add_objects(DOCS)
            snap = col.metrics.snapshot()
        meter = system.maintenance_meter()
        # Receipt-derived Table III accounting == live counters, exactly.
        # (A category with zero charges never creates its counter: the CI
        # scheme performs no storage reads at all.)
        write = snap.get("gas.write", 0)
        read = snap.get("gas.read", 0)
        others = snap.get("gas.others", 0)
        assert write == meter.write_gas
        assert read == meter.read_gas
        assert others == meter.other_gas
        assert (
            write + read + others
            == snap["gas.total"]
            == meter.total
            == sum(r.gas for r in reports)
        )
        # The per-op split is also rebuilt exactly from gas.op.* counters.
        for op, amount in meter.by_operation.items():
            assert snap[f"gas.op.{op}"] == amount

    def test_maintenance_spans_emitted(self, scheme):
        with obs.collect() as col:
            system = _build(scheme)
            system.add_objects(DOCS)
        names = {s.name for s in col.spans}
        assert MAINTENANCE_SPANS[scheme] in names
        assert "insert" in names
        assert "chain.tx" in names
        # Every chain.tx span nests under an insert span.
        by_id = {s.span_id: s for s in col.spans}
        for span in col.spans:
            if span.name == "chain.tx":
                assert by_id[span.parent_id].name == "insert"

    def test_insert_metrics(self, scheme):
        with obs.collect() as col:
            system = _build(scheme)
            system.add_objects(DOCS)
            snap = col.metrics.snapshot()
        assert snap["insert.count"] == len(DOCS)
        assert snap["insert.gas"]["count"] == len(DOCS)
        assert snap["insert.gas"]["sum"] == snap["gas.total"]
        assert snap["chain.tx.count"] == len(DOCS) * (
            2 if scheme == "smi" else 1
        )

    def test_batched_insert_metrics(self, scheme):
        """A batch is one ``insert`` span and one observation, and counts
        every object it stored."""
        with obs.collect() as col:
            system = _build(scheme)
            report = system.add_objects_batched(DOCS)
            snap = col.metrics.snapshot()
        assert snap["insert.count"] == len(DOCS)
        assert snap["insert.seconds"]["count"] == 1
        assert snap["insert.gas"]["count"] == 1
        assert snap["insert.gas"]["sum"] == report.gas == snap["gas.total"]
        (span,) = [s for s in col.spans if s.name == "insert"]
        assert span.attributes["scheme"] == scheme
        assert span.attributes["count"] == len(DOCS)


class TestNullSinkPath:
    def test_system_runs_unobserved(self):
        assert obs.current() is None
        system = _build("ci*")
        system.add_objects(DOCS)
        result = system.query("covid-19 AND vaccine")
        assert result.result_ids == [4, 5]
        # Still null-sink afterwards; nothing was installed as a side effect.
        assert obs.current() is None
        assert obs.span("x") is obs.NULL_SPAN


class TestSPProtocolTelemetry:
    def test_request_counters_and_error_code(self):
        system = _build("smi")
        system.add_objects(DOCS)
        server = StorageProviderServer(system)
        with obs.collect() as col:
            ok = QueryResponse.decode(
                server.handle(QueryRequest("covid-19 AND vaccine").encode())
            )
            bad = QueryResponse.decode(
                server.handle(QueryRequest("covid-19 AND NOT x").encode())
            )
            snap = col.metrics.snapshot()
        assert ok.error is None
        assert bad.error is not None
        assert bad.error_code == ERR_QUERY
        assert snap["sp.requests"] == 2
        assert snap["sp.errors"] == 1
        assert snap["sp.request_bytes"] > 0
        assert snap["sp.response_bytes"] > 0
        spans = [s for s in col.spans if s.name == "sp.request"]
        assert len(spans) == 2
        assert any(s.attributes.get("error") == "query" for s in spans)
