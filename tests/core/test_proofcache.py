"""Verification-cache behaviour: bounded LRU, metrics, and soundness.

The soundness property under test: a cache hit may only ever skip work
that already succeeded on the exact same proven tuple.  Tampering with
any component of an entry changes the key, misses the cache and fails
verification from scratch — a warm (or even poisoned) cache never turns
a failing proof into a passing one.
"""

from __future__ import annotations

import pickle

import pytest

from repro import DataObject, HybridStorageSystem, obs
from repro.core.proofcache import VerificationCache
from repro.errors import ParameterError, VerificationError

from tests.node_tables import change, forge
from tests.reference_codec import forge_merkle


class TestVerificationCacheUnit:
    def test_miss_then_hit(self):
        cache = VerificationCache(maxsize=4)
        assert not cache.seen("k")
        cache.add("k")
        assert cache.seen("k")
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_order(self):
        cache = VerificationCache(maxsize=2)
        cache.add("a")
        cache.add("b")
        assert cache.seen("a")  # refreshes "a"; "b" is now oldest
        cache.add("c")
        assert len(cache) == 2
        assert cache.seen("a")
        assert not cache.seen("b")

    @pytest.mark.parametrize("maxsize", (0, -1))
    def test_a_cache_holds_at_least_one_entry(self, maxsize):
        with pytest.raises(ParameterError):
            VerificationCache(maxsize=maxsize)

    def test_clear_resets(self):
        cache = VerificationCache(maxsize=4)
        cache.add("k")
        cache.seen("k")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0

    def test_node_index_follows_the_statements(self):
        """A node is indexed only while its statement is cached."""
        cache = VerificationCache(maxsize=3)
        keys = [cache.key(7, bytes((0x80 if p == 0 else 0, p)) * 3) for p in range(3)]
        for key in keys:
            cache.add(key)
        cache.index("kw", 11, 2, dict(enumerate(keys)))
        ((keyword, count, bitmap, statements, _),) = cache.held_nodes(["kw", "other"])
        assert (keyword, count, bitmap) == ("kw", 2, b"\x07")
        assert statements == {p: key.parts[1] for p, key in enumerate(keys)}
        cache.seen(keys[0])  # refreshed: position 1's statement is oldest
        cache.add(cache.key("table"), summary=True)
        ((_, _, bitmap, statements, _),) = cache.held_nodes(["kw"])
        assert bitmap == b"\x05" and sorted(statements) == [0, 2]
        # A table proven under another cnt starts the keyword's group over.
        cache.index("kw", 11, 3, {0: keys[0]})
        assert cache.held_nodes(["kw"])[0][1:3] == (3, b"\x01")
        cache.clear()
        assert cache.held_nodes(["kw"]) == []

    def test_pickle_roundtrip_for_process_pools(self):
        cache = VerificationCache(maxsize=4)
        cache.add("k")
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.seen("k")
        clone.add("j")  # the restored lock must be functional

    def test_metrics_exported(self):
        cache = VerificationCache(maxsize=4, metric_prefix="vc.verify")
        with obs.collect() as col:
            cache.seen("k")
            cache.add("k")
            cache.seen("k")
        snap = col.metrics.snapshot()
        assert snap["vc.verify.cache_miss"] == 1
        assert snap["vc.verify.cache_hit"] == 1


@pytest.fixture(params=["ci", "ci*", "smi"], scope="module")
def warm_deployment(request):
    docs = [
        DataObject(1, ("covid-19", "vaccine"), b"a"),
        DataObject(2, ("covid-19",), b"b"),
        DataObject(3, ("covid-19", "vaccine", "symptom"), b"c"),
        DataObject(4, ("vaccine",), b"d"),
    ]
    system = HybridStorageSystem(
        scheme=request.param, cvc_modulus_bits=512, seed=11
    )
    system.add_objects(docs)
    return system


def first_entry_lookups(system) -> int:
    """Cache lookups the table of one first-position entry costs.

    The Merkle family caches per table fold; the Chameleon family per
    CVC opening, and a node at position 1 has two — its slot 1 and the
    link that hangs it under the root.
    """
    return 2 if system.uses_cvc else 1


def first_table(system, keyword):
    """The keyword's table over its first entry alone."""
    view = system._sp_view(keyword)
    view.first()
    run = view.run()
    return run.tree.multiproof(run.keys)


def tampered(system, table, **fields):
    """``table`` with its one entry's ``object_id`` / ``object_hash`` forged."""
    if system.uses_cvc:
        return forge(table, {1: change(**fields)})
    object_id, object_hash = table.leaves[0]
    leaf = (fields.get("object_id", object_id), fields.get("object_hash", object_hash))
    return forge_merkle(table, leaves=(leaf,))


def verify_one(ps, keyword, table):
    """One table, opened, read and settled — ``verify_query`` in small."""
    ps.attach_multiproofs((table,))
    with ps.settling():
        ps.proven_run(keyword, 0).first()


class TestProofSystemCaching:
    def test_repeat_verification_hits_cache(self, warm_deployment):
        system = warm_deployment
        ps = system.chain_proof_system(frozenset({"covid-19"}))
        table = first_table(system, "covid-19")
        system.verify_cache.clear()
        verify_one(ps, "covid-19", table)
        assert system.verify_cache.hits == 0
        assert system.verify_cache.misses == first_entry_lookups(system)
        verify_one(ps, "covid-19", table)
        assert system.verify_cache.hits == first_entry_lookups(system)
        assert system.verify_cache.misses == first_entry_lookups(system)

    def test_cache_shared_across_proof_systems(self, warm_deployment):
        system = warm_deployment
        table = first_table(system, "vaccine")
        system.verify_cache.clear()
        verify_one(
            system.chain_proof_system(frozenset({"vaccine"})), "vaccine", table
        )
        # A later query builds a fresh proof system over the same chain
        # state; the expensive work must not repeat.
        verify_one(
            system.chain_proof_system(frozenset({"vaccine"})), "vaccine", table
        )
        assert system.verify_cache.hits == first_entry_lookups(system)

    def test_tampered_entry_misses_warm_cache_and_fails(self, warm_deployment):
        system = warm_deployment
        ps = system.chain_proof_system(frozenset({"covid-19"}))
        table = first_table(system, "covid-19")
        verify_one(ps, "covid-19", table)  # warm the cache
        evil = tampered(system, table, object_hash=b"\x13" * 32)
        hits_before = system.verify_cache.hits
        with pytest.raises(VerificationError):
            verify_one(ps, "covid-19", evil)
        # The forged slot-1 opening missed; the honest link that hangs
        # the node under the root is still remembered.
        assert system.verify_cache.hits - hits_before == (
            first_entry_lookups(system) - 1
        )

    def test_poisoned_cache_does_not_mask_other_proofs(self, warm_deployment):
        """Even a key injected behind the API's back only short-circuits
        that exact tuple: a forged entry still forms a different key and
        is rejected by real verification."""
        system = warm_deployment
        ps = system.chain_proof_system(frozenset({"covid-19"}))
        table = first_table(system, "covid-19")
        system.verify_cache.add(("bogus-poison-key",))
        forged = tampered(system, table, object_id=table.leaves[0][0] + 1000)
        with pytest.raises(VerificationError):
            verify_one(ps, "covid-19", forged)

    def test_failed_verifications_are_never_cached(self, warm_deployment):
        system = warm_deployment
        ps = system.chain_proof_system(frozenset({"covid-19"}))
        evil = tampered(
            system, first_table(system, "covid-19"), object_hash=b"\x77" * 32
        )
        system.verify_cache.clear()
        for _ in range(2):
            with pytest.raises(VerificationError):
                verify_one(ps, "covid-19", evil)
        # Both attempts were misses: the failure never entered the cache,
        # and neither did the honest opening settled in the same batch.
        assert system.verify_cache.hits == 0
        assert system.verify_cache.misses == 2 * first_entry_lookups(system)
        assert len(system.verify_cache) == 0

    def test_disabled_cache_end_to_end(self):
        docs = [DataObject(1, ("alpha",), b"a"), DataObject(2, ("alpha",), b"b")]
        system = HybridStorageSystem(scheme="ci", cvc_modulus_bits=512, seed=11)
        system.add_objects(docs)
        for _ in range(2):
            # A cleared cache is a cold client: every node is checked.
            system.verify_cache.clear()
            result = system.query("alpha")
            assert result.result_ids == [1, 2]
            assert system.verify_cache.hits == 0
            assert system.verify_cache.misses > 0

    def test_query_counters_exported(self, warm_deployment):
        system = warm_deployment
        system.verify_cache.clear()
        prefix = system.verify_cache.metric_prefix
        with obs.collect() as col:
            system.query("covid-19 AND vaccine")
            system.query("covid-19 AND vaccine")
        snap = col.metrics.snapshot()
        assert snap.get(f"{prefix}.cache_miss", 0) > 0
        assert snap.get(f"{prefix}.cache_hit", 0) > 0
