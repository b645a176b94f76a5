"""End-to-end tests of the HybridStorageSystem facade, all four schemes."""

import gc
import weakref

import pytest

from repro import DataObject, HybridStorageSystem, Scheme
from repro.errors import DatasetError, ReproError

SCHEMES = ("mi", "smi", "ci", "ci*")


def small_system(scheme, docs):
    system = HybridStorageSystem(
        scheme=scheme, cvc_modulus_bits=512, seed=5
    )
    system.add_objects(docs)
    return system


class TestSchemeParsing:
    def test_accepts_strings_and_enum(self):
        assert Scheme.parse("CI*") is Scheme.CHAMELEON_STAR
        assert Scheme.parse(Scheme.MERKLE_INV) is Scheme.MERKLE_INV

    def test_rejects_unknown(self):
        with pytest.raises(ReproError):
            Scheme.parse("nope")


@pytest.mark.parametrize("scheme", SCHEMES)
class TestEndToEnd:
    def test_queries_match_brute_force(self, scheme, small_docs):
        system = small_system(scheme, small_docs)
        by_id = {obj.object_id: obj for obj in small_docs}
        for text in (
            "covid-19 AND symptom",
            "covid-19 AND vaccine",
            "symptom",
            "(covid-19 AND vaccine) OR (sars-cov-2 AND vaccine)",
            "covid-19 AND missing-keyword",
            "sars-cov-2",
        ):
            result = system.query(text)
            expected = sorted(
                oid
                for oid, obj in by_id.items()
                if result.query.matches(obj.keyword_set())
            )
            assert result.result_ids == expected, (scheme, text)

    def test_result_objects_returned(self, scheme, small_docs):
        system = small_system(scheme, small_docs)
        result = system.query("covid-19 AND symptom")
        assert set(result.objects) >= set(result.result_ids)

    def test_vo_sizes_positive(self, scheme, small_docs):
        system = small_system(scheme, small_docs)
        result = system.query("covid-19 AND symptom")
        assert result.vo_sp_bytes > 0
        assert result.vo_chain_bytes > 0
        assert result.vo_total_bytes == result.vo_sp_bytes + result.vo_chain_bytes

    def test_maintenance_gas_recorded(self, scheme, small_docs):
        system = small_system(scheme, small_docs)
        assert system.maintenance_meter().total > 0
        assert system.average_gas_per_object() > 0
        assert len(system) == len(small_docs)

    def test_duplicate_object_rejected(self, scheme, small_docs):
        system = small_system(scheme, small_docs)
        with pytest.raises(DatasetError):
            system.add_object(DataObject(1, ("x",), b"dup"))

    def test_a_dropped_system_is_freed_at_once(self, scheme, small_docs):
        """The system owns its client and SP server; neither may hold it
        strongly, or every system would wait for the cyclic collector."""
        system = small_system(scheme, small_docs)
        system.query("covid-19 AND vaccine")
        ref = weakref.ref(system)
        gc.disable()
        try:
            del system
            assert ref() is None
        finally:
            gc.enable()

    def test_blocks_mined_and_linked(self, scheme, small_docs):
        system = small_system(scheme, small_docs)
        assert system.chain.height == len(small_docs)
        assert system.chain.verify_chain()


class TestGasOrdering:
    def test_paper_cost_ranking(self, small_docs):
        """MI must cost the most; CI the least (Table II / Fig. 10)."""
        totals = {}
        for scheme in SCHEMES:
            system = small_system(scheme, small_docs)
            totals[scheme] = system.maintenance_meter().total
        assert totals["mi"] > totals["smi"]
        assert totals["smi"] > totals["ci"]
        assert totals["ci"] < totals["ci*"]

    def test_ci_write_cost_constant(self, small_docs):
        """The Chameleon index's storage writes do not grow with n."""
        system = HybridStorageSystem(scheme="ci", cvc_modulus_bits=512, seed=5)
        writes = []
        for obj in small_docs:
            before = system.maintenance_meter().write_gas
            system.add_object(obj)
            writes.append(system.maintenance_meter().write_gas - before)
        # Steady state (after keyword setups): writes track keyword count
        # only, never tree size.
        per_kw = [
            w / len(obj.keywords)
            for w, obj in zip(writes, small_docs)
        ]
        assert max(per_kw[-3:]) <= max(per_kw[:3])


class TestFanoutBound:
    """An MB-tree record counts its entries in one byte and holds
    ``fanout + 1`` of them before it splits, so 254 is the widest
    fan-out.  A wider one is refused when the system is built: the SP
    would first meet it after the chain had confirmed a root its trees
    cannot reach."""

    @pytest.mark.parametrize("scheme", ("mi", "smi"))
    @pytest.mark.parametrize("fanout", (2, 255, 256))
    def test_refused_before_any_transaction(self, scheme, fanout):
        with pytest.raises(ReproError, match="fan-out"):
            HybridStorageSystem(scheme=scheme, fanout=fanout)

    def test_widest_fanout_fills_a_leaf_and_verifies(self):
        system = HybridStorageSystem(scheme="smi", fanout=254)
        system.add_objects(
            DataObject(oid, ("kw",), b"o%d" % oid) for oid in range(1, 300)
        )
        assert system.sp_index.trees["kw"].height == 2
        assert system.query("kw").result_ids == list(range(1, 300))
