"""Adversarial tests for the Chameleon family (Section VI, Theorem 2).

The attacks on the answer's *shape* (rounds, boundaries, counts) run
against the default compressed VO; the attacks on the fields of a
per-entry :class:`MembershipProof` run against a ``vo_version=2`` system,
which still ships that form, and the ones on the node table that
replaced it follow in :class:`TestNodeTableAttacks`.
"""

import dataclasses

import pytest

from repro import DataObject, HybridStorageSystem, KeywordQuery
from repro.core.chameleon import MembershipProof, NodeRef
from repro.core.query.codec import VOCodec
from repro.core.query.verify import verify_query
from repro.core.query.vo import JoinRound, QueryVO
from repro.errors import ReproError, VerificationError


@pytest.fixture(scope="module")
def ci_system():
    sys_ = HybridStorageSystem(scheme="ci", cvc_modulus_bits=512, seed=5)
    _fill(sys_)
    return sys_


@pytest.fixture(scope="module")
def legacy_system():
    sys_ = HybridStorageSystem(
        scheme="ci", cvc_modulus_bits=512, seed=5, vo_version=2
    )
    _fill(sys_)
    return sys_


@pytest.fixture(scope="module")
def cis_system():
    sys_ = HybridStorageSystem(
        scheme="ci*", cvc_modulus_bits=512, seed=5, bloom_capacity=4
    )
    _fill(sys_)
    return sys_


def _fill(system):
    table = {
        1: ("covid-19", "sars-cov-2"),
        2: ("covid-19",),
        4: ("covid-19", "symptom", "vaccine"),
        5: ("covid-19", "vaccine"),
        6: ("symptom",),
        7: ("covid-19",),
        8: ("covid-19", "vaccine"),
        9: ("symptom",),
        10: ("covid-19",),
        11: ("symptom",),
        12: ("covid-19",),
    }
    for oid, kws in table.items():
        system.add_object(DataObject(oid, kws, b"c%d" % oid))


def honest_answer(system, text):
    query = KeywordQuery.parse(text)
    answer = system.process_query(query)
    ps = system.chain_proof_system(query.all_keywords())
    return query, answer, ps


def replace_round(answer, index, new_round):
    base = answer.vo.conjuncts[0].base
    rounds = base.rounds[:index] + (new_round,) + base.rounds[index + 1 :]
    forged_base = dataclasses.replace(base, rounds=rounds)
    forged_conj = dataclasses.replace(answer.vo.conjuncts[0], base=forged_base)
    answer.vo = QueryVO(
        conjuncts=(forged_conj,), multiproofs=answer.vo.multiproofs
    )


class TestChameleonSoundness:
    def test_forged_entry_hash(self, ci_system):
        query, answer, ps = honest_answer(ci_system, "covid-19 AND symptom")
        base = answer.vo.conjuncts[0].base
        rnd = base.rounds[0]
        forged = dataclasses.replace(
            rnd,
            lower=dataclasses.replace(
                rnd.lower, object_hash=b"\x13" * 32
            ),
        )
        replace_round(answer, 0, forged)
        with pytest.raises(VerificationError):
            verify_query(query, answer, ps)

    def test_forged_position_claim(self, legacy_system):
        query, answer, ps = honest_answer(
            legacy_system, "covid-19 AND symptom"
        )
        base = answer.vo.conjuncts[0].base
        rnd = base.rounds[0]
        proof = rnd.lower.proof
        assert isinstance(proof, MembershipProof)
        forged_proof = dataclasses.replace(proof, position=proof.position + 1)
        forged = dataclasses.replace(
            rnd,
            lower=dataclasses.replace(rnd.lower, proof=forged_proof),
        )
        replace_round(answer, 0, forged)
        with pytest.raises(VerificationError):
            verify_query(query, answer, ps)

    def test_commitment_substitution(self, legacy_system):
        query, answer, ps = honest_answer(
            legacy_system, "covid-19 AND symptom"
        )
        base = answer.vo.conjuncts[0].base
        rnd = base.rounds[0]
        proof = rnd.lower.proof
        forged_proof = dataclasses.replace(
            proof, entry_commitment=proof.entry_commitment + 1
        )
        forged = dataclasses.replace(
            rnd, lower=dataclasses.replace(rnd.lower, proof=forged_proof)
        )
        replace_round(answer, 0, forged)
        with pytest.raises(VerificationError):
            verify_query(query, answer, ps)


class TestNodeTableAttacks:
    """A malicious SP rewrites the shared table instead of one proof."""

    QUERY = "covid-19 AND symptom"

    def forge_table(self, answer, index, nodes):
        table = dataclasses.replace(
            answer.vo.multiproofs[index], nodes=tuple(nodes)
        )
        tables = list(answer.vo.multiproofs)
        tables[index] = table
        answer.vo = dataclasses.replace(answer.vo, multiproofs=tuple(tables))

    def test_honest_answer_is_compressed(self, ci_system):
        query, answer, ps = honest_answer(ci_system, self.QUERY)
        assert len(answer.vo.multiproofs) == 2
        assert isinstance(
            answer.vo.conjuncts[0].base.first_target.proof, NodeRef
        )
        assert verify_query(query, answer, ps).ids == {4}

    def test_commitment_substitution_in_the_table(self, ci_system):
        """One forged row poisons every entry below it — and is caught
        at the first of them."""
        query, answer, ps = honest_answer(ci_system, self.QUERY)
        nodes = answer.vo.multiproofs[0].nodes
        forged = dataclasses.replace(nodes[0], commitment=nodes[0].commitment + 1)
        self.forge_table(answer, 0, (forged,) + nodes[1:])
        with pytest.raises(VerificationError):
            verify_query(query, answer, ps)

    def test_swapped_sibling_rows(self, ci_system):
        """Positions are the addresses: two honest rows under each
        other's position open the wrong slots of their parent."""
        query, answer, ps = honest_answer(ci_system, self.QUERY)
        for index, table in enumerate(answer.vo.multiproofs):
            by_pos = table.index()
            if 1 in by_pos and 2 in by_pos:
                break
        else:
            pytest.skip("no sibling pair in this answer")
        one, two = by_pos[1], by_pos[2]
        swapped = [
            dataclasses.replace(two, position=1),
            dataclasses.replace(one, position=2),
        ] + [node for node in table.nodes if node.position > 2]
        self.forge_table(answer, index, swapped)
        with pytest.raises(VerificationError):
            verify_query(query, answer, ps)

    def test_table_served_for_the_other_keyword(self, ci_system):
        """Swapping the two trees' tables re-hangs every entry under the
        other keyword's root commitment."""
        query, answer, ps = honest_answer(ci_system, self.QUERY)
        first, second = answer.vo.multiproofs
        answer.vo = dataclasses.replace(
            answer.vo, multiproofs=(second, first)
        )
        with pytest.raises(VerificationError):
            verify_query(query, answer, ps)

    def test_one_table_cannot_serve_two_keywords(self, ci_system):
        """Chains walked to one c_0 are not evidence under another."""
        query, answer, ps = honest_answer(ci_system, self.QUERY)
        ps.attach_multiproofs(answer.vo.multiproofs)
        base = answer.vo.conjuncts[0].base
        ps.verify_entry(base.trees[0], base.first_target)
        with pytest.raises(VerificationError, match="different tree"):
            ps.verify_entry(base.trees[1], base.first_target)

    def test_forged_table_does_not_survive_the_wire_either(self, ci_system):
        query, answer, ps = honest_answer(ci_system, self.QUERY)
        nodes = answer.vo.multiproofs[0].nodes
        self.forge_table(answer, 0, nodes[1:])  # drop a root child
        codec = VOCodec(value_bytes=ci_system.value_bytes)
        try:
            answer.vo = codec.decode(codec.encode(answer.vo))
        except ReproError:
            return  # rejected as malformed before verification
        with pytest.raises(VerificationError):
            verify_query(query, answer, ps)


class TestChameleonCompleteness:
    def test_stale_count_detected(self, ci_system):
        """An answer over an outdated cnt fails the termination check."""
        query = KeywordQuery.parse("covid-19 AND vaccine")
        stale = ci_system.process_query(query)
        ci_system.add_object(
            DataObject(20, ("covid-19", "vaccine"), b"late")
        )
        fresh_ps = ci_system.chain_proof_system(query.all_keywords())
        with pytest.raises(VerificationError):
            verify_query(query, stale, fresh_ps)

    def test_skipped_boundary_positions(self, ci_system):
        """Boundaries must be positionally adjacent (no hidden results)."""
        query, answer, ps = honest_answer(ci_system, "covid-19 AND symptom")
        base = answer.vo.conjuncts[0].base
        # Find a probe round with both boundaries, then widen the gap by
        # replacing the lower boundary with its predecessor's proof.
        sp_index = ci_system.sp_index
        for i, rnd in enumerate(base.rounds):
            if rnd.lower is None or rnd.upper is None:
                continue
            probed_kw = base.trees[rnd.probe_tree]
            tree = sp_index.trees[probed_kw]
            pos = rnd.lower.proof.position
            if pos < 2:
                continue
            entry = tree.entry_at(pos - 1)
            proof = tree.prove_membership(pos - 1)
            forged = dataclasses.replace(
                rnd,
                lower=dataclasses.replace(
                    rnd.lower,
                    object_id=entry.key,
                    object_hash=entry.value_hash,
                    proof=proof,
                ),
            )
            replace_round(answer, i, forged)
            with pytest.raises(VerificationError):
                verify_query(query, answer, ps)
            return
        pytest.skip("no widenable round in this corpus")


class TestBloomSkipAttacks:
    def test_false_absence_claim_rejected(self, cis_system):
        """A skip round for a PRESENT target must fail the Bloom check."""
        query, answer, ps = honest_answer(cis_system, "covid-19 AND symptom")
        base = answer.vo.conjuncts[0].base
        # Object 4 is in both trees; forge a skip round claiming it is
        # absent from the probed tree at the round where it is a target.
        target_kw = base.trees[0]
        sp_index = cis_system.sp_index
        tree = sp_index.trees[target_kw]
        first = answer.vo.conjuncts[0].base.first_target
        succ_pos = first.proof.position + 1
        if succ_pos <= tree.count:
            entry = tree.entry_at(succ_pos)
            nxt = dataclasses.replace(
                first,
                object_id=entry.key,
                object_hash=entry.value_hash,
                proof=tree.prove_membership(succ_pos),
            )
        else:
            nxt = None
        forged = JoinRound(kind="skip", next_target=nxt)
        replace_round(answer, 0, forged)
        with pytest.raises(VerificationError):
            verify_query(query, answer, ps)

    def test_queries_verify_with_blooms(self, cis_system):
        """Sanity: honest CI* answers with skip rounds pass end to end."""
        result = cis_system.query("covid-19 AND symptom")
        assert result.result_ids == [4]
        result = cis_system.query("sars-cov-2 AND vaccine")
        assert result.result_ids == []
