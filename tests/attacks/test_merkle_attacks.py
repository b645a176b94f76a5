"""Adversarial tests for the Merkle family (Definitions 1-2, Theorem 2).

Each test plays a malicious SP: it takes an honestly produced answer,
mutates it the way an attacker would, and asserts that client-side
verification rejects it with a :class:`VerificationError`.

The SP ships per-tree tables of proven leaves and the client replays
the join (``TestTableAttacks``, on SMI): what is left to forge is which
leaves a table proves, the order of the trees and the plan.  The
walk-shaped attacks of the classes after it — a dropped, reordered or
mis-scheduled round, a join cut short — have no representation in a
frame without rounds; each is played (on MI) as the table-level forgery
an SP with the same intent is left with.
"""

import dataclasses

import pytest

from repro import DataObject, HybridStorageSystem, KeywordQuery
from repro.core.multiproof import SLOT_HELPER, SLOT_LEAF
from repro.core.query.verify import verify_query
from repro.core.query.vo import ConjunctiveVO, QueryVO, ReplayVO
from repro.crypto.hashing import sha3
from repro.errors import VerificationError
from tests.reference_codec import forge_merkle, merkle_parts


@pytest.fixture()
def tables(small_docs):
    """The SMI system of ``TestTableAttacks``."""
    sys_ = HybridStorageSystem(scheme="smi", seed=5)
    sys_.add_objects(small_docs)
    return sys_


@pytest.fixture()
def system(small_docs):
    """The MI system of the walk-shaped attacks."""
    sys_ = HybridStorageSystem(scheme="mi", seed=5)
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
        assert hidden.fold()[0] == tree.root_hash
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
        forged = forge_merkle(
            table, leaves=((key, sha3(b"evil")),) + table.leaves[1:]
        )
        with_table(answer, index, forged)
        expect_rejection(query, answer, ps)

    def test_leaf_code_flipped_to_helper(self, tables):
        """Re-labelling a proven leaf as a helper (its digest supplied)
        changes what is proven without changing the root."""
        query, answer, ps = self.honest(tables, "symptom")
        table = answer.vo.multiproofs[0]
        parts = merkle_parts(table)
        assert not parts.helpers
        from repro.core.mbtree import entry_digest

        leaf_node = next(
            i for i, codes in enumerate(parts.nodes) if SLOT_LEAF in codes
        )
        codes = list(parts.nodes[leaf_node])
        codes[0] = SLOT_HELPER
        forged = forge_merkle(
            table,
            nodes=parts.nodes[:leaf_node] + (tuple(codes),) + parts.nodes[leaf_node + 1 :],
            helpers=(entry_digest(*table.leaves[0]),),
            leaves=table.leaves[1:],
        )
        tree = tables.sp_index.trees["symptom"]
        assert forged.fold()[0] == tree.root_hash
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
        tables were read under (where the two read the same leaves,
        either name is the truth)."""
        # a = b = {1, 2, 3, 10}, c = {10, ..., 14}: the cyclic walk jumps
        # from 1 to c's first entry, the semi-join's base pair reads on.
        docs = [DataObject(i, ("a", "b"), b"ab") for i in (1, 2, 3)]
        docs.append(DataObject(10, ("a", "b", "c"), b"abc"))
        docs += [DataObject(i, ("c",), b"c") for i in (11, 12, 13, 14)]
        other = HybridStorageSystem(scheme="smi", seed=5)
        other.add_objects(docs)
        query, answer, ps = self.honest(other, "a AND b AND c")
        assert verify_query(query, answer, ps).ids == {10}
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


def table_index(answer, keyword, conjunct=0):
    base = answer.vo.conjuncts[conjunct].base
    return base.runs[base.trees.index(keyword)]


def reprove(system, answer, keyword, keys):
    """Swap the keyword's table for an honest proof of other keys."""
    tree = system.sp_index.trees[keyword]
    with_table(answer, table_index(answer, keyword), tree.multiproof(keys))


def claim(system, answer, result_ids):
    answer.result_ids = list(result_ids)
    answer.objects = {oid: system.store.get(oid) for oid in result_ids}


class TestSoundnessAttacks:
    def test_extra_result_injected(self, system):
        query, answer, ps = honest_answer(system, "covid-19 AND symptom")
        claim(system, answer, sorted(set(answer.result_ids) | {5}))
        expect_rejection(query, answer, ps)

    def test_result_object_substituted(self, system):
        query, answer, ps = honest_answer(system, "covid-19 AND symptom")
        answer.objects[4] = DataObject(4, ("covid-19", "symptom"), b"FORGED")
        expect_rejection(query, answer, ps)

    def test_entry_hash_tampered(self, system):
        query, answer, ps = honest_answer(system, "covid-19 AND symptom")
        index = table_index(answer, "covid-19")
        table = answer.vo.multiproofs[index]
        key, _ = table.leaves[0]
        with_table(
            answer,
            index,
            forge_merkle(
                table, leaves=((key, sha3(b"evil")),) + table.leaves[1:]
            ),
        )
        expect_rejection(query, answer, ps)


class TestCompletenessAttacks:
    """Symptom = {4, 6, 9, 11}, covid-19 = {1, 2, 4, 5, 7, 8, 10, 12}."""

    def test_dropped_result_round(self, system):
        """Omitting what the probe that matched object 4 read must be
        detected: the probed tree's table goes on without 4."""
        query, answer, ps = honest_answer(system, "covid-19 AND symptom")
        reprove(system, answer, "covid-19", [5, 7, 8, 10, 12])
        claim(system, answer, [])
        expect_rejection(query, answer, ps)

    def test_truncated_join_without_terminal(self, system):
        """The walk stopped after its first probe: both tables end there."""
        query, answer, ps = honest_answer(system, "covid-19 AND symptom")
        reprove(system, answer, "symptom", [4, 6])
        reprove(system, answer, "covid-19", [4, 5])
        expect_rejection(query, answer, ps)

    def test_false_empty_keyword_claim(self, system):
        query, answer, ps = honest_answer(system, "covid-19 AND symptom")
        forged_conj = ConjunctiveVO(
            keywords=answer.vo.conjuncts[0].keywords,
            empty_keyword="symptom",
        )
        answer.vo = QueryVO(conjuncts=(forged_conj,))
        claim(system, answer, [])
        expect_rejection(query, answer, ps)

    def test_full_scan_with_dropped_entry(self, system):
        query, answer, ps = honest_answer(system, "symptom")
        reprove(system, answer, "symptom", [4, 9, 11])
        claim(system, answer, [4, 9, 11])
        expect_rejection(query, answer, ps)

    def test_full_scan_truncated_tail(self, system):
        query, answer, ps = honest_answer(system, "symptom")
        reprove(system, answer, "symptom", [4, 6, 9])
        claim(system, answer, [4, 6, 9])
        expect_rejection(query, answer, ps)

    def test_semi_join_probe_omitted(self, small_docs):
        system = HybridStorageSystem(scheme="mi", seed=5, join_plan="semijoin")
        system.add_objects(small_docs)
        query, answer, ps = honest_answer(
            system, "covid-19 AND symptom AND vaccine"
        )
        base = answer.vo.conjuncts[0].base
        assert base.plan == "semijoin" and base.trees[2] == "covid-19"
        # The stage probes the base pair's one candidate, 4, in covid-19.
        index = table_index(answer, "covid-19")
        assert [k for k, _ in answer.vo.multiproofs[index].leaves] == [4, 5]
        forged = dataclasses.replace(base, runs=base.runs[:2] + (None,))
        answer.vo = dataclasses.replace(
            answer.vo,
            conjuncts=(dataclasses.replace(answer.vo.conjuncts[0], base=forged),),
            multiproofs=answer.vo.multiproofs[:index]
            + answer.vo.multiproofs[index + 1 :],
        )
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
    """The walk's schedule is computed by the client, not read: tables
    cut for another schedule do not fit it."""

    def reordered(self, answer, order):
        conj = answer.vo.conjuncts[0]
        base = conj.base
        forged = dataclasses.replace(
            base,
            trees=tuple(base.trees[i] for i in order),
            runs=tuple(base.runs[i] for i in order),
        )
        answer.vo = dataclasses.replace(
            answer.vo, conjuncts=(dataclasses.replace(conj, base=forged),)
        )

    def test_wrong_probe_tree_rejected(self, system):
        """Each tree keeps its own table, but the trees are listed in
        another order than they were walked in: the first target is
        probed in the wrong tree."""
        query, answer, ps = honest_answer(
            system, "covid-19 AND symptom AND vaccine"
        )
        assert verify_query(query, answer, ps).ids == {4}
        self.reordered(answer, (0, 2, 1))
        expect_rejection(query, answer, ps)

    def test_reordered_rounds_rejected(self, system):
        query, answer, ps = honest_answer(system, "covid-19 AND symptom")
        self.reordered(answer, (1, 0))
        expect_rejection(query, answer, ps)

    def test_duplicate_tree_list_rejected(self, system):
        query, answer, ps = honest_answer(system, "covid-19 AND symptom")
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
