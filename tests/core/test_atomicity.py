"""Insertion atomicity: a failed transaction must leave no trace.

Regression tests for a bug where ``_add_objects_batched`` (and the
single-object chameleon path) mutated the object store and the data
owner's off-chain trees *before* the batched transaction was accepted.
After a gas-limit abort the system claimed the objects yet could not
prove them, so every later query on the touched keywords failed
verification.  Now all mutations are staged and rolled back on a failed
receipt, keeping the store, the DO and the chain in lockstep.
"""

from __future__ import annotations

import pytest

from repro import DataObject, HybridStorageSystem
from repro.errors import ChainError


def docs_stream(n, keywords_per_object=6, start=1):
    return [
        DataObject(
            oid,
            tuple(f"kw{(oid + j) % 40:02d}" for j in range(keywords_per_object)),
            b"content-%d" % oid,
        )
        for oid in range(start, start + n)
    ]


@pytest.mark.parametrize("scheme", ["ci", "ci*"])
class TestBatchedInsertAtomicity:
    def make_system(self, scheme):
        # Roomy enough for single inserts (~920k gas worst case for ci*
        # at 512 bits), far too small for a 15-object batch.
        return HybridStorageSystem(
            scheme=scheme, cvc_modulus_bits=512, seed=3, gas_limit=1_000_000
        )

    def test_failed_batch_rolls_back_everything(self, scheme):
        system = self.make_system(scheme)
        seeded = docs_stream(3)
        system.add_objects(seeded)
        tree_counts = {
            kw: tree.count for kw, tree in system._do.trees.items()
        }
        gas_before = system.maintenance_meter().total
        with pytest.raises(ChainError):
            system.add_objects_batched(docs_stream(15, start=4))
        # Nothing changed: not the store, the DO trees, nor the meter.
        assert len(system) == 3
        assert system.store.all_ids() == [1, 2, 3]
        assert {
            kw: tree.count for kw, tree in system._do.trees.items()
        } == tree_counts
        assert system.maintenance_meter().total == gas_before

    def test_queries_still_verify_after_failed_batch(self, scheme):
        system = self.make_system(scheme)
        system.add_objects(docs_stream(3))
        expected = system.query("kw04 AND kw05").result_ids
        with pytest.raises(ChainError):
            system.add_objects_batched(docs_stream(15, start=4))
        result = system.query("kw04 AND kw05")
        assert result.verified
        assert result.result_ids == expected

    def test_batch_retry_succeeds_after_rollback(self, scheme):
        system = self.make_system(scheme)
        system.add_objects(docs_stream(3))
        with pytest.raises(ChainError):
            system.add_objects_batched(docs_stream(15, start=4))
        # A batch that fits must now succeed from the rolled-back state.
        system.add_objects_batched(docs_stream(2, start=4))
        assert len(system) == 5
        result = system.query("kw05")
        assert result.verified
        assert 4 in result.result_ids

    def test_failed_batch_with_new_keywords_forgets_them(self, scheme):
        system = self.make_system(scheme)
        system.add_objects(docs_stream(2))
        fat = [
            DataObject(
                100 + i, tuple(f"fresh{i:02d}-{j}" for j in range(8)), b"x"
            )
            for i in range(12)
        ]
        with pytest.raises(ChainError):
            system.add_objects_batched(fat)
        assert all(not kw.startswith("fresh") for kw in system._do.trees)
        # The never-registered keyword reads as empty — and verifiably so.
        result = system.query("fresh00-0")
        assert result.verified
        assert result.result_ids == []


class TestRollbackIsExact:
    """A failed receipt costs an undo record per insertion, not tree copies,
    and leaves no trace a later batch could see."""

    @staticmethod
    def do_state(system):
        return {
            keyword: (
                tree.count,
                tree.root_commitment,
                dict(tree._aux),
                dict(tree._commitments),
            )
            for keyword, tree in system._do.trees.items()
        }

    @staticmethod
    def recorded_proofs(system, monkeypatch):
        """Every insertion proof the SP is handed from here on."""
        proofs = []
        apply = system._sp.apply_insertion

        def recording(keyword, proof):
            proofs.append((keyword, proof))
            apply(keyword, proof)

        monkeypatch.setattr(system._sp, "apply_insertion", recording)
        return proofs

    def make_system(self):
        return HybridStorageSystem(
            scheme="ci*", cvc_modulus_bits=512, seed=3, gas_limit=1_000_000
        )

    def test_overrun_chunk_leaves_the_do_bit_identical(self, monkeypatch):
        failed = self.make_system()
        clean = self.make_system()
        for system in (failed, clean):
            system.add_objects(docs_stream(3))
        before = self.do_state(failed)
        # Old keywords, keywords first seen in the chunk, and several
        # insertions into one tree — all taken back.
        with pytest.raises(ChainError):
            failed.add_objects_batched(docs_stream(15, start=4))
        assert self.do_state(failed) == before
        assert self.do_state(failed) == self.do_state(clean)

        proofs_failed = self.recorded_proofs(failed, monkeypatch)
        proofs_clean = self.recorded_proofs(clean, monkeypatch)
        for system in (failed, clean):
            system.add_objects_batched(docs_stream(2, start=4))
        assert proofs_failed and proofs_failed == proofs_clean
        assert self.do_state(failed) == self.do_state(clean)
        for text in ("kw04 AND kw05", "kw05"):
            assert failed.query(text).result_ids == clean.query(text).result_ids
            assert failed.query(text).verified

    def test_rollback_touches_only_the_batch(self):
        """No per-tree copy: untouched nodes are the very same objects."""
        system = self.make_system()
        system.add_objects(docs_stream(3))
        aux_ids = {
            (keyword, position): id(aux)
            for keyword, tree in system._do.trees.items()
            for position, aux in tree._aux.items()
        }
        dict_ids = {
            keyword: id(tree._aux) for keyword, tree in system._do.trees.items()
        }
        with pytest.raises(ChainError):
            system.add_objects_batched(docs_stream(15, start=4))
        assert {
            (keyword, position): id(aux)
            for keyword, tree in system._do.trees.items()
            for position, aux in tree._aux.items()
        } == aux_ids
        assert {
            keyword: id(tree._aux) for keyword, tree in system._do.trees.items()
        } == dict_ids


class TestSingleInsertAtomicity:
    def test_failed_single_insert_rolls_back(self):
        system = HybridStorageSystem(
            scheme="ci", cvc_modulus_bits=512, seed=3, gas_limit=1_000_000
        )
        system.add_objects(docs_stream(3))
        # 40 first-seen keywords cost far beyond the 1M block limit.
        monster = DataObject(
            99, tuple(f"huge{j:02d}" for j in range(40)), b"monster"
        )
        with pytest.raises(ChainError):
            system.add_object(monster)
        assert len(system) == 3
        assert 99 not in system.store
        assert all(not kw.startswith("huge") for kw in system._do.trees)
        result = system.query("kw04")
        assert result.verified

    def test_merkle_store_untouched_on_failure(self):
        system = HybridStorageSystem(scheme="smi", seed=3, gas_limit=30_000)
        obj = DataObject(1, ("alpha", "beta"), b"a")
        with pytest.raises(ChainError):
            system.add_object(obj)
        assert len(system) == 0
        assert 1 not in system.store
