"""Adversarial tests for the Merkle family (Definitions 1-2, Theorem 2).

Each test plays a malicious SP: it takes an honestly produced answer,
mutates it the way an attacker would, and asserts that client-side
verification rejects it with a :class:`VerificationError`.

The SP of today ships per-tree tables of proven leaves and the client
replays the join (``TestTableAttacks``): what is left to forge is which
leaves a table proves.  The walk-shaped attacks of the classes after it
— a dropped, reordered or mis-scheduled round, a join cut short — have
no representation in that frame; they are kept against the legacy
frame with rounds (``vo_version=2``), which the client still verifies.
"""

import dataclasses

import pytest

from repro import DataObject, HybridStorageSystem, KeywordQuery
from repro.core.multiproof import SLOT_HELPER, SLOT_LEAF
from repro.core.query.verify import verify_query
from repro.core.query.vo import ConjunctiveVO, QueryVO, ReplayVO
from repro.crypto.hashing import sha3
from repro.errors import VerificationError


@pytest.fixture()
def tables(small_docs):
    """A system whose SP answers with tables only (v5 frames)."""
    sys_ = HybridStorageSystem(scheme="smi", seed=5)
    sys_.add_objects(small_docs)
    return sys_


@pytest.fixture()
def system(small_docs):
    """A system whose SP still ships the walk (legacy v2 frames)."""
    sys_ = HybridStorageSystem(scheme="smi", seed=5, vo_version=2)
    sys_.add_objects(small_docs)
    return sys_


def honest_answer(system, text):
    query = KeywordQuery.parse(text)
    answer = system.process_query(query)
    ps = system.chain_proof_system(query.all_keywords())
    return query, answer, ps


def expect_rejection(query, answer, ps):
    with pytest.raises(VerificationError):
        verify_query(query, answer, ps)


def with_table(answer, index, table):
    """The answer with one of its tables swapped."""
    vo = answer.vo
    answer.vo = dataclasses.replace(
        vo, multiproofs=vo.multiproofs[:index] + (table,) + vo.multiproofs[index + 1 :]
    )


class TestTableAttacks:
    """Symptom = {4, 6, 9, 11}, covid-19 = {1, 2, 4, 5, 7, 8, 10, 12}:
    the join reads every symptom leaf and covid-19's 4, 5, 7, 8, 10, 12;
    the one result is object 4."""

    JOIN = "covid-19 AND symptom"

    def honest(self, tables, text=JOIN):
        query, answer, ps = honest_answer(tables, text)
        assert all(
            isinstance(conj.base, ReplayVO) for conj in answer.vo.conjuncts
        )
        return query, answer, ps

    def table_of(self, answer, keyword):
        base = answer.vo.conjuncts[0].base
        return base.runs[base.trees.index(keyword)]

    def test_honest_answer_verifies(self, tables):
        query, answer, ps = self.honest(tables)
        assert verify_query(query, answer, ps).ids == {4}

    def test_result_leaf_presented_as_helper(self, tables):
        """Hide result 4 of the symptom tree behind its entry digest: the
        table still folds to the root, but the first symptom leaf it
        proves is no longer the tree's first."""
        query, answer, ps = self.honest(tables)
        index = self.table_of(answer, "symptom")
        tree = tables.sp_index.trees["symptom"]
        hidden = tree.multiproof([6, 9, 11])
        assert hidden.fold_root() == tree.root_hash
        with_table(answer, index, hidden)
        answer.result_ids = []
        answer.objects = {}
        expect_rejection(query, answer, ps)

    def test_result_leaf_presented_as_helper_in_probed_tree(self, tables):
        """The same in the probed tree: 4 hidden between 2 and 5."""
        query, answer, ps = self.honest(tables)
        index = self.table_of(answer, "covid-19")
        tree = tables.sp_index.trees["covid-19"]
        with_table(answer, index, tree.multiproof([2, 5, 7, 8, 10, 12]))
        answer.result_ids = []
        answer.objects = {}
        expect_rejection(query, answer, ps)

    def test_dropped_boundary_leaf(self, tables):
        query, answer, ps = self.honest(tables)
        index = self.table_of(answer, "covid-19")
        tree = tables.sp_index.trees["covid-19"]
        with_table(answer, index, tree.multiproof([4, 5, 7, 10, 12]))
        expect_rejection(query, answer, ps)

    def test_truncated_table_tail(self, tables):
        """Cut the walk short by dropping the last leaves of a tree."""
        query, answer, ps = self.honest(tables)
        index = self.table_of(answer, "symptom")
        tree = tables.sp_index.trees["symptom"]
        with_table(answer, index, tree.multiproof([4, 6, 9]))
        expect_rejection(query, answer, ps)

    def test_full_scan_with_hidden_entry(self, tables):
        query, answer, ps = self.honest(tables, "symptom")
        tree = tables.sp_index.trees["symptom"]
        with_table(answer, 0, tree.multiproof([4, 6, 11]))
        answer.result_ids = [4, 6, 11]
        del answer.objects[9]
        expect_rejection(query, answer, ps)

    def test_other_keywords_table_under_the_conjunct(self, tables):
        query, answer, ps = self.honest(tables)
        conj = answer.vo.conjuncts[0]
        for runs in ((1, 0), (0, 0), (1, 1)):
            forged = dataclasses.replace(
                conj, base=dataclasses.replace(conj.base, runs=runs)
            )
            answer.vo = dataclasses.replace(answer.vo, conjuncts=(forged,))
            expect_rejection(query, answer, ps)
        # A third keyword's tree, honestly proven, under "symptom".
        vaccine = tables.sp_index.trees["vaccine"]
        with_table(answer, self.table_of(answer, "symptom"), vaccine.multiproof([4, 5, 8]))
        answer.vo = dataclasses.replace(answer.vo, conjuncts=(conj,))
        expect_rejection(query, answer, ps)

    def test_table_folded_to_a_stale_root(self, tables):
        """A response computed before new insertions must not verify."""
        query = KeywordQuery.parse(self.JOIN)
        stale_answer = tables.process_query(query)
        tables.add_object(
            DataObject(13, ("covid-19", "symptom"), b"new-arrival")
        )
        fresh_ps = tables.chain_proof_system(query.all_keywords())
        with pytest.raises(VerificationError):
            verify_query(query, stale_answer, fresh_ps)

    def test_leaf_hash_tampered(self, tables):
        query, answer, ps = self.honest(tables)
        index = self.table_of(answer, "symptom")
        table = answer.vo.multiproofs[index]
        key, _ = table.leaves[0]
        forged = dataclasses.replace(
            table, leaves=((key, sha3(b"evil")),) + table.leaves[1:]
        )
        with_table(answer, index, forged)
        expect_rejection(query, answer, ps)

    def test_leaf_code_flipped_to_helper(self, tables):
        """Re-labelling a proven leaf as a helper (its digest supplied)
        changes what is proven without changing the root."""
        query, answer, ps = self.honest(tables, "symptom")
        table = answer.vo.multiproofs[0]
        assert not table.helpers
        from repro.core.mbtree import entry_digest

        leaf_node = next(
            i for i, codes in enumerate(table.nodes) if SLOT_LEAF in codes
        )
        codes = list(table.nodes[leaf_node])
        codes[0] = SLOT_HELPER
        forged = dataclasses.replace(
            table,
            nodes=table.nodes[:leaf_node] + (tuple(codes),) + table.nodes[leaf_node + 1 :],
            helpers=(entry_digest(*table.leaves[0]),),
            leaves=table.leaves[1:],
        )
        tree = tables.sp_index.trees["symptom"]
        assert forged.fold_root() == tree.root_hash
        with_table(answer, 0, forged)
        answer.result_ids = answer.result_ids[1:]
        del answer.objects[table.leaves[0][0]]
        expect_rejection(query, answer, ps)

    def test_extra_result_injected(self, tables):
        query, answer, ps = self.honest(tables)
        answer.result_ids = sorted(set(answer.result_ids) | {5})
        answer.objects[5] = tables.store.get(5)
        expect_rejection(query, answer, ps)

    def test_result_object_substituted(self, tables):
        query, answer, ps = self.honest(tables)
        answer.objects[4] = DataObject(4, ("covid-19", "symptom"), b"FORGED")
        expect_rejection(query, answer, ps)

    def test_result_dropped_from_the_claim(self, tables):
        query, answer, ps = self.honest(tables)
        answer.result_ids = []
        answer.objects = {}
        expect_rejection(query, answer, ps)

    def test_false_empty_keyword_claim(self, tables):
        query, answer, ps = self.honest(tables)
        forged_conj = ConjunctiveVO(
            keywords=answer.vo.conjuncts[0].keywords,
            empty_keyword="symptom",
        )
        answer.vo = QueryVO(conjuncts=(forged_conj,))
        answer.result_ids = []
        answer.objects = {}
        expect_rejection(query, answer, ps)

    def test_join_over_a_keyword_the_chain_shows_empty(self, tables):
        """A tree the walk does not reach needs no table — but not
        because it does not exist."""
        tables.add_object(DataObject(20, ("late",), b"after everything"))
        query = KeywordQuery.parse("late AND sars-cov-2 AND ghost")
        answer = tables.process_query(query)
        assert answer.vo.conjuncts[0].empty_keyword == "ghost"
        ps = tables.chain_proof_system(query.all_keywords())
        # Late = {20}, sars-cov-2 = {1, 3}: the honest walk over
        # (late, sars-cov-2, X) ends at its first probe, X unread.
        honest = tables.process_query(
            KeywordQuery.parse("late AND sars-cov-2 AND vaccine")
        )
        base = honest.vo.conjuncts[0].base
        assert base.trees == ("late", "sars-cov-2", "vaccine")
        assert base.runs == (0, 1, None)
        forged = ConjunctiveVO(
            keywords=("ghost", "late", "sars-cov-2"),
            base=dataclasses.replace(
                base, trees=base.trees[:-1] + ("ghost",)
            ),
        )
        answer.vo = dataclasses.replace(honest.vo, conjuncts=(forged,))
        expect_rejection(query, answer, ps)
        # Over the real third keyword the same VO is the honest answer.
        real = KeywordQuery.parse("late AND sars-cov-2 AND vaccine")
        assert (
            verify_query(
                real, honest, tables.chain_proof_system(real.all_keywords())
            ).ids
            == set()
        )

    def test_unread_leaf_in_a_table(self, tables):
        """One valid VO per query, plan and state: a table that proves
        more than the walk reads is refused, although every leaf of it
        is authentic (decided in DESIGN.md §6.3)."""
        query, answer, ps = self.honest(tables)
        index = self.table_of(answer, "covid-19")
        tree = tables.sp_index.trees["covid-19"]
        honest = answer.vo.multiproofs[index]
        assert [key for key, _ in honest.leaves] == [4, 5, 7, 8, 10, 12]
        with_table(answer, index, tree.multiproof([1, 4, 5, 7, 8, 10, 12]))
        with pytest.raises(VerificationError, match="no probe reads"):
            verify_query(query, answer, ps)

    def test_unused_table(self, tables):
        query, answer, ps = self.honest(tables)
        vaccine = tables.sp_index.trees["vaccine"]
        answer.vo = dataclasses.replace(
            answer.vo,
            multiproofs=answer.vo.multiproofs + (vaccine.multiproof([4]),),
        )
        with pytest.raises(VerificationError, match="used by no conjunct"):
            verify_query(query, answer, ps)

    def test_wrong_plan_for_the_tables(self, tables):
        """The plan is the SP's to choose, but it has to be the plan the
        tables were read under."""
        text = "covid-19 AND symptom AND vaccine"
        query, answer, ps = self.honest(tables, text)
        conj = answer.vo.conjuncts[0]
        assert conj.base.plan == "cyclic"
        forged = dataclasses.replace(
            conj, base=dataclasses.replace(conj.base, plan="semijoin")
        )
        answer.vo = dataclasses.replace(answer.vo, conjuncts=(forged,))
        expect_rejection(query, answer, ps)
        # ... and a two-tree join has one plan only.
        query, answer, ps = self.honest(tables)
        conj = answer.vo.conjuncts[0]
        forged = dataclasses.replace(
            conj, base=dataclasses.replace(conj.base, plan="semijoin")
        )
        answer.vo = dataclasses.replace(answer.vo, conjuncts=(forged,))
        expect_rejection(query, answer, ps)

    def test_duplicate_tree_list_rejected(self, tables):
        query, answer, ps = self.honest(tables)
        conj = answer.vo.conjuncts[0]
        first = conj.base.trees[0]
        forged = dataclasses.replace(
            conj,
            base=dataclasses.replace(conj.base, trees=(first, first)),
            keywords=(first,),
        )
        answer.vo = dataclasses.replace(answer.vo, conjuncts=(forged,))
        with pytest.raises(VerificationError):
            verify_query(KeywordQuery.parse(first), answer, ps)
        expect_rejection(query, answer, ps)


class TestSoundnessAttacks:
    def test_extra_result_injected(self, system):
        query, answer, ps = honest_answer(system, "covid-19 AND symptom")
        answer.result_ids = sorted(set(answer.result_ids) | {5})
        answer.objects[5] = system.store.get(5)
        expect_rejection(query, answer, ps)

    def test_result_object_substituted(self, system):
        query, answer, ps = honest_answer(system, "covid-19 AND symptom")
        answer.objects[4] = DataObject(4, ("covid-19", "symptom"), b"FORGED")
        expect_rejection(query, answer, ps)

    def test_entry_hash_tampered(self, system):
        query, answer, ps = honest_answer(system, "covid-19 AND symptom")
        base = answer.vo.conjuncts[0].base
        rnd = base.rounds[0]
        assert rnd.lower is not None
        forged_round = dataclasses.replace(
            rnd,
            lower=dataclasses.replace(rnd.lower, object_hash=sha3(b"evil")),
        )
        forged_base = dataclasses.replace(
            base, rounds=(forged_round,) + base.rounds[1:]
        )
        forged_conj = dataclasses.replace(
            answer.vo.conjuncts[0], base=forged_base
        )
        answer.vo = QueryVO(conjuncts=(forged_conj,))
        expect_rejection(query, answer, ps)


class TestCompletenessAttacks:
    def test_dropped_result_round(self, system):
        """Omitting the round that matched object 4 must be detected."""
        query, answer, ps = honest_answer(system, "covid-19 AND symptom")
        base = answer.vo.conjuncts[0].base
        match_index = next(
            i
            for i, rnd in enumerate(base.rounds)
            if rnd.lower is not None and rnd.lower.object_id == 4
        )
        pruned = base.rounds[:match_index] + base.rounds[match_index + 1 :]
        forged_base = dataclasses.replace(base, rounds=pruned)
        forged_conj = dataclasses.replace(
            answer.vo.conjuncts[0], base=forged_base
        )
        answer.vo = QueryVO(conjuncts=(forged_conj,))
        answer.result_ids = []
        answer.objects = {}
        expect_rejection(query, answer, ps)

    def test_truncated_join_without_terminal(self, system):
        query, answer, ps = honest_answer(system, "covid-19 AND symptom")
        base = answer.vo.conjuncts[0].base
        forged_base = dataclasses.replace(base, rounds=base.rounds[:1])
        forged_conj = dataclasses.replace(
            answer.vo.conjuncts[0], base=forged_base
        )
        answer.vo = QueryVO(conjuncts=(forged_conj,))
        expect_rejection(query, answer, ps)

    def test_false_empty_keyword_claim(self, system):
        query, answer, ps = honest_answer(system, "covid-19 AND symptom")
        forged_conj = ConjunctiveVO(
            keywords=answer.vo.conjuncts[0].keywords,
            empty_keyword="symptom",
        )
        answer.vo = QueryVO(conjuncts=(forged_conj,))
        answer.result_ids = []
        answer.objects = {}
        expect_rejection(query, answer, ps)

    def test_full_scan_with_dropped_entry(self, system):
        query, answer, ps = honest_answer(system, "symptom")
        scan = answer.vo.conjuncts[0].base
        pruned = dataclasses.replace(
            scan, entries=scan.entries[:1] + scan.entries[2:]
        )
        forged_conj = dataclasses.replace(answer.vo.conjuncts[0], base=pruned)
        answer.vo = QueryVO(conjuncts=(forged_conj,))
        answer.result_ids = [e.object_id for e in pruned.entries]
        answer.objects = {
            oid: system.store.get(oid) for oid in answer.result_ids
        }
        expect_rejection(query, answer, ps)

    def test_full_scan_truncated_tail(self, system):
        query, answer, ps = honest_answer(system, "symptom")
        scan = answer.vo.conjuncts[0].base
        pruned = dataclasses.replace(scan, entries=scan.entries[:-1])
        forged_conj = dataclasses.replace(answer.vo.conjuncts[0], base=pruned)
        answer.vo = QueryVO(conjuncts=(forged_conj,))
        answer.result_ids = [e.object_id for e in pruned.entries]
        answer.objects = {
            oid: system.store.get(oid) for oid in answer.result_ids
        }
        expect_rejection(query, answer, ps)

    def test_semi_join_probe_omitted(self, small_docs):
        system = HybridStorageSystem(
            scheme="smi", seed=5, join_plan="semijoin", vo_version=2
        )
        system.add_objects(small_docs)
        query, answer, ps = honest_answer(
            system, "covid-19 AND symptom AND vaccine"
        )
        conj = answer.vo.conjuncts[0]
        assert conj.stages, "expected a 3-way join with a semi-join stage"
        stage = conj.stages[0]
        pruned_stage = dataclasses.replace(stage, probes=stage.probes[:-1])
        forged_conj = dataclasses.replace(conj, stages=(pruned_stage,))
        answer.vo = QueryVO(conjuncts=(forged_conj,))
        expect_rejection(query, answer, ps)

    def test_stale_index_answer_rejected(self, system):
        """A response computed before new insertions must not verify."""
        query = KeywordQuery.parse("covid-19 AND symptom")
        stale_answer = system.process_query(query)
        # New matching object arrives on-chain after the SP answered.
        system.add_object(
            DataObject(13, ("covid-19", "symptom"), b"new-arrival")
        )
        fresh_ps = system.chain_proof_system(query.all_keywords())
        with pytest.raises(VerificationError):
            verify_query(query, stale_answer, fresh_ps)


class TestWalkScheduleAttacks:
    """The cyclic walk's deterministic schedule is itself enforced."""

    def test_wrong_probe_tree_rejected(self, system):
        query, answer, ps = honest_answer(
            system, "covid-19 AND symptom AND vaccine"
        )
        base = answer.vo.conjuncts[0].base
        rnd = base.rounds[0]
        forged_round = dataclasses.replace(
            rnd, probe_tree=(rnd.probe_tree + 1) % len(base.trees)
        )
        forged_base = dataclasses.replace(
            base, rounds=(forged_round,) + base.rounds[1:]
        )
        forged_conj = dataclasses.replace(
            answer.vo.conjuncts[0], base=forged_base
        )
        answer.vo = QueryVO(conjuncts=(forged_conj,))
        expect_rejection(query, answer, ps)

    def test_reordered_rounds_rejected(self, system):
        query, answer, ps = honest_answer(system, "covid-19 AND symptom")
        base = answer.vo.conjuncts[0].base
        if len(base.rounds) < 3:
            import pytest as _pytest

            _pytest.skip("walk too short to reorder")
        swapped = (
            (base.rounds[1], base.rounds[0]) + base.rounds[2:]
        )
        forged_base = dataclasses.replace(base, rounds=swapped)
        forged_conj = dataclasses.replace(
            answer.vo.conjuncts[0], base=forged_base
        )
        answer.vo = QueryVO(conjuncts=(forged_conj,))
        expect_rejection(query, answer, ps)

    def test_duplicate_tree_list_rejected(self, system):
        query, answer, ps = honest_answer(system, "covid-19 AND symptom")
        base = answer.vo.conjuncts[0].base
        forged_base = dataclasses.replace(
            base, trees=(base.trees[0], base.trees[0])
        )
        forged_conj = dataclasses.replace(
            answer.vo.conjuncts[0],
            base=forged_base,
            keywords=(base.trees[0],),
        )
        answer.vo = QueryVO(conjuncts=(forged_conj,))
        other = KeywordQuery.parse(base.trees[0])
        with pytest.raises(VerificationError):
            verify_query(other, answer, ps)
