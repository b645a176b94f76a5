"""End-to-end tests for Chameleon node-table VO compression (v4 frames).

The SP ships one :class:`ChameleonMultiproof` per keyword tree — every
node any proven entry needs, once — and rewrites each entry's proof into
a :class:`NodeRef`; the client walks each chain once inside
``verify_query`` and settles every distinct opening it does not remember
in one ``vc.verify_batch``.  These tests pin the compression win, the
round trip, the opening count, and — most importantly — that every
tamper vector fails closed.
"""

import dataclasses

import pytest

from repro import DataObject, HybridStorageSystem, KeywordQuery, obs
from repro.core.chameleon import ChameleonMultiproof, MembershipProof, NodeRef
from repro.core.multiproof import _map_vo_entries, compress_query_vo
from repro.core.query.codec import VOCodec
from repro.core.query.verify import verify_query
from repro.core.query.vo import iter_proven_entries
from repro.crypto import vc
from repro.errors import ReproError, VerificationError

#: Same corpus as the Merkle twin: "hot" on every object, "warm" on
#: every 2nd, "cool" every 3rd, "rare" every 13th.
DNF = "(hot AND warm) OR (hot AND cool)"
SPARSE = "hot AND rare"
SCAN = "warm"


def corpus(n=40):
    docs = []
    for i in range(n):
        kws = ["hot"]
        if i % 2 == 0:
            kws.append("warm")
        if i % 3 == 0:
            kws.append("cool")
        if i % 13 == 0:
            kws.append("rare")
        docs.append(DataObject(i, tuple(kws), f"payload-{i}".encode()))
    return docs


def build(scheme="ci", **kwargs):
    system = HybridStorageSystem(
        scheme=scheme, cvc_modulus_bits=512, seed=5, **kwargs
    )
    system.add_objects_batched(corpus())
    return system


@pytest.fixture(scope="module")
def v3_system():
    return build()


@pytest.fixture(scope="module")
def v2_system():
    return build(vo_version=2)


@pytest.fixture(scope="module")
def star_system():
    return build("ci*", bloom_capacity=4)


def answer_for(system, text=DNF):
    return system.process_query(KeywordQuery.parse(text))


def reverify(system, answer, text=DNF):
    query = KeywordQuery.parse(text)
    ps = system.chain_proof_system(query.all_keywords())
    return verify_query(query, answer, ps)


def with_table(vo, index, **changes):
    table = dataclasses.replace(vo.multiproofs[index], **changes)
    tables = vo.multiproofs[:index] + (table,) + vo.multiproofs[index + 1 :]
    return dataclasses.replace(vo, multiproofs=tables)


def with_nodes(vo, index, nodes):
    return with_table(vo, index, nodes=tuple(nodes))


def deep_ref(vo):
    """A NodeRef entry that has an ancestor below the root."""
    for entry in iter_proven_entries(vo):
        ref = entry.proof
        if isinstance(ref, NodeRef) and ref.position > 2:
            return entry
    pytest.skip("no entry below the first level")


def repoint(vo, victim, **changes):
    forged = dataclasses.replace(victim.proof, **changes)
    return _map_vo_entries(
        vo,
        lambda e: dataclasses.replace(e, proof=forged) if e is victim else e,
    )


class TestCompression:
    def test_one_table_per_tree_each_node_once(self, v3_system):
        vo = answer_for(v3_system).vo
        assert len(vo.multiproofs) == 3  # hot, warm, cool
        for table in vo.multiproofs:
            assert isinstance(table, ChameleonMultiproof)
            positions = [node.position for node in table.nodes]
            assert positions == sorted(set(positions))
        assert all(
            isinstance(entry.proof, NodeRef)
            for entry in iter_proven_entries(vo)
        )

    def test_table_is_parent_closed_and_minimal(self, v3_system):
        vo = answer_for(v3_system, SPARSE).vo
        for index, table in enumerate(vo.multiproofs):
            wanted = set()
            for entry in iter_proven_entries(vo):
                if entry.proof.table_index != index:
                    continue
                pos = entry.proof.position
                while pos:
                    wanted.add(pos)
                    pos = (pos - 1) // table.arity
            assert {node.position for node in table.nodes} == wanted

    def test_identical_results_and_shrink_vs_v2(self, v3_system, v2_system):
        a3 = answer_for(v3_system)
        a2 = answer_for(v2_system)
        assert a3.result_ids == a2.result_ids
        assert not a2.vo.multiproofs
        codec = VOCodec(value_bytes=v3_system.value_bytes)
        assert len(codec.encode(a3.vo)) * 2 <= len(codec.encode(a2.vo))
        vb = v3_system.value_bytes
        assert a3.vo.proof_byte_size(vb) * 2 <= a2.vo.proof_byte_size(vb)

    @pytest.mark.parametrize("text", [DNF, SPARSE, SCAN, "rare", "hot AND ghost"])
    def test_never_larger_than_the_per_entry_form(
        self, v3_system, v2_system, text
    ):
        """No size gate: the table ships each node once, the per-entry
        form at least once (and the entry's own commitment twice)."""
        codec = VOCodec(value_bytes=v3_system.value_bytes)
        assert len(codec.encode(answer_for(v3_system, text).vo)) <= len(
            codec.encode(answer_for(v2_system, text).vo)
        )

    def test_both_versions_verify(self, v3_system, v2_system):
        for system in (v3_system, v2_system):
            assert reverify(system, answer_for(system)).ids == {
                i for i in range(40) if i % 2 == 0 or i % 3 == 0
            }

    def test_bloom_skip_rounds_compress_and_verify(self, star_system):
        answer = answer_for(star_system, SPARSE)
        base = answer.vo.conjuncts[0].base
        assert any(rnd.kind == "skip" for rnd in base.rounds)
        assert len(answer.vo.multiproofs) == 2
        assert reverify(star_system, answer, SPARSE).ids == {0, 13, 26, 39}

    def test_proofs_without_a_tree_stay_per_entry(self, v2_system):
        """A proof that does not say which tree it came from (one decoded
        from a legacy frame) passes through compression untouched."""
        codec = VOCodec(value_bytes=v2_system.value_bytes)
        legacy = codec.decode(codec.encode(answer_for(v2_system).vo))
        assert compress_query_vo(legacy) is legacy


class TestRoundTrip:
    @pytest.mark.parametrize("text", [DNF, SPARSE, SCAN])
    def test_v4_decode_encode_identity(self, v3_system, text):
        codec = VOCodec(value_bytes=v3_system.value_bytes)
        vo = answer_for(v3_system, text).vo
        payload = codec.encode(vo)
        assert payload[0] == 0xF4
        assert codec.decode(payload) == vo
        assert codec.encode(codec.decode(payload)) == payload

    def test_decoded_v4_vo_still_verifies(self, v3_system):
        codec = VOCodec(value_bytes=v3_system.value_bytes)
        answer = answer_for(v3_system)
        answer.vo = codec.decode(codec.encode(answer.vo))
        assert reverify(v3_system, answer).ids

    @pytest.mark.parametrize("scheme_fixture", ["v3_system", "star_system"])
    @pytest.mark.parametrize("text", [DNF, SPARSE, SCAN, "hot AND ghost"])
    def test_byte_size_matches_wire(self, request, scheme_fixture, text):
        system = request.getfixturevalue(scheme_fixture)
        vb = system.value_bytes
        codec = VOCodec(value_bytes=vb)
        vo = answer_for(system, text).vo
        assert vo.byte_size(vb) == len(codec.encode(vo))

    def test_table_and_ref_byte_sizes_match_their_wire_delta(self, v3_system):
        """Dropping one table row, or one ref's table, moves the frame by
        exactly what ``byte_size`` says."""
        vb = v3_system.value_bytes
        codec = VOCodec(value_bytes=vb)
        vo = answer_for(v3_system, SCAN).vo
        table = vo.multiproofs[0]
        last = table.nodes[-1]
        shorter = with_nodes(vo, 0, table.nodes[:-1])
        assert table.byte_size(vb) - shorter.multiproofs[0].byte_size(vb) == (
            last.byte_size(vb)
        )
        # One kind tag per table on top of the table body.
        framed = len(codec.encode(vo))
        bare = len(codec.encode(dataclasses.replace(vo, multiproofs=())))
        assert framed - bare == 1 + table.byte_size(vb)
        ref = vo.conjuncts[0].base.entries[0]
        assert ref.byte_size(vb) == 1 + 1 + 8 + 32 + ref.proof.byte_size(vb)


class Spy:
    """What one verification cost, as calls into ``repro.crypto.vc``."""

    def __init__(self):
        self.verify = []  # openings checked one by one
        self.batches = []  # openings of each ``verify_batch`` call
        self.full_width = 0  # exponentiations by a slot prime

    def clear(self):
        self.__init__()

    @property
    def batched(self):
        return [opening for batch in self.batches for opening in batch]


class TestOpeningCount:
    """The properties the table and the batch exist for, as counts: no
    opening is checked one by one, and none is checked twice."""

    @pytest.fixture()
    def spy(self, monkeypatch):
        spy = Spy()
        real_verify, real_batch, real_exp = (
            vc.verify,
            vc.verify_batch,
            vc.multi_exp,
        )

        def verify(pp, *opening):
            spy.verify.append(opening)
            return real_verify(pp, *opening)

        def verify_batch(pp, openings):
            spy.batches.append(list(openings))
            return real_batch(pp, openings)

        def multi_exp(pairs, modulus, tables=None):
            for index, (_, exponent) in enumerate(pairs):
                if (tables is None or tables[index] is None) and (
                    exponent.bit_length() > 2 * vc.BATCH_COEFFICIENT_BITS
                ):
                    spy.full_width += 1
            return real_exp(pairs, modulus, tables=tables)

        monkeypatch.setattr(vc, "verify", verify)
        monkeypatch.setattr(vc, "verify_batch", verify_batch)
        monkeypatch.setattr(vc, "multi_exp", multi_exp)
        return spy

    def test_cold_scan_costs_two_openings_per_entry(self, v3_system, spy):
        """... all in one batch: no ``vc.verify`` call, and one
        full-width exponentiation per slot whatever the list's length."""
        v3_system.verify_cache.clear()
        result = v3_system.query(SCAN)
        n = len(result.result_ids)
        assert n == 20
        assert spy.verify == []
        assert [len(batch) for batch in spy.batches] == [2 * n]
        assert len(set(spy.batched)) == 2 * n  # and no opening twice
        assert spy.full_width <= v3_system.arity + 1
        assert v3_system.verify_cache.misses == 2 * n
        assert v3_system.verify_cache.hits == 0
        assert len(v3_system.verify_cache) == 2 * n

    def test_second_query_over_the_tree_costs_none(self, v3_system, spy):
        v3_system.verify_cache.clear()
        v3_system.query(SCAN)
        spy.clear()
        assert v3_system.query(SCAN).verified
        assert v3_system.query("warm AND cool").verified
        # The join touches "cool" for the first time; nothing of "warm".
        warm_root = v3_system.sp_index.trees["warm"].root_commitment
        warm = {
            node.commitment
            for node in answer_for(v3_system, SCAN).vo.multiproofs[0].nodes
        } | {warm_root}
        assert spy.verify == []
        assert len(spy.batches) == 1  # the warm scan had nothing to settle
        assert not [opening for opening in spy.batched if opening[0] in warm]

    def test_join_shares_ancestors_within_one_query(self, v3_system, spy):
        """Entries of one tree owe each shared ancestor link once and an
        entry met in two conjuncts owes its slot 1 once, with or without
        the LRU; the whole DNF query settles as one batch."""
        answer = answer_for(v3_system, DNF)
        query = KeywordQuery.parse(DNF)
        ps = v3_system.chain_proof_system(query.all_keywords())
        ps.cache = None
        verify_query(query, answer, ps)
        links = sum(len(table.nodes) for table in answer.vo.multiproofs)
        slot1 = {
            (e.proof.table_index, e.proof.position)
            for e in iter_proven_entries(answer.vo)
        }
        occurrences = sum(1 for _ in iter_proven_entries(answer.vo))
        assert occurrences > len(slot1)
        assert spy.verify == []
        assert [len(batch) for batch in spy.batches] == [links + len(slot1)]
        assert len(set(spy.batched)) == links + len(slot1)

    def test_legacy_entries_share_the_same_opening_keys(
        self, v3_system, v2_system, spy
    ):
        """A per-entry proof is expanded into the same rows and checked
        by the same routine: verifying the v2 answer warms exactly the
        openings the v4 answer needs."""
        v2_answer = answer_for(v2_system, SCAN)
        query = KeywordQuery.parse(SCAN)
        ps = v3_system.chain_proof_system(query.all_keywords())
        v3_system.verify_cache.clear()
        verify_query(query, v2_answer, ps)
        # Every per-entry chain repeats its ancestors' links; each is
        # owed once all the same.
        assert [len(batch) for batch in spy.batches] == [
            2 * len(v2_answer.result_ids)
        ]
        spy.clear()
        assert v3_system.query(SCAN).verified
        assert spy.batches == [] and spy.verify == []

    def test_tampered_link_next_to_a_cached_one_misses_and_fails(
        self, v3_system, spy
    ):
        assert v3_system.query(SCAN).verified  # everything cached
        answer = answer_for(v3_system, SCAN)
        table = answer.vo.multiproofs[0]
        victim = table.nodes[len(table.nodes) // 2]
        forged = dataclasses.replace(victim, link_proof=victim.link_proof ^ 1)
        answer.vo = with_nodes(
            answer.vo,
            0,
            [forged if node is victim else node for node in table.nodes],
        )
        spy.clear()
        hits = v3_system.verify_cache.hits
        size = len(v3_system.verify_cache)
        with pytest.raises(VerificationError):
            reverify(v3_system, answer, SCAN)
        # The forged opening differs from its cached twin in one bit of
        # one component: it alone was owed, failed, and was not stored.
        assert [opening[3] for opening in spy.batched] == [forged.link_proof]
        assert {opening[3] for opening in spy.verify} == {forged.link_proof}
        with pytest.raises(VerificationError):
            reverify(v3_system, answer, SCAN)
        assert [len(batch) for batch in spy.batches] == [1, 1]
        assert v3_system.verify_cache.hits > hits  # the rest still hit
        assert len(v3_system.verify_cache) == size

    def test_two_tampered_links_go_to_the_batch_alone_and_fail(
        self, v3_system, spy
    ):
        """Only what the cache does not hold is sent to the batch; the
        batch fails, and the one-by-one pass names a culprit."""
        assert v3_system.query(SCAN).verified
        answer = answer_for(v3_system, SCAN)
        table = answer.vo.multiproofs[0]
        victims = {table.nodes[3], table.nodes[11]}
        answer.vo = with_nodes(
            answer.vo,
            0,
            [
                dataclasses.replace(node, link_proof=node.link_proof ^ 1)
                if node in victims
                else node
                for node in table.nodes
            ],
        )
        spy.clear()
        with obs.collect() as collector:
            with pytest.raises(VerificationError, match="parent link"):
                reverify(v3_system, answer, SCAN)
        assert [len(batch) for batch in spy.batches] == [2]
        assert len(spy.verify) == 1  # stops at the first that fails
        counters = collector.metrics.snapshot()
        assert counters["vc.verify.batches"] == 1
        assert counters["vc.verify.batched_openings"] == 2
        assert counters["vc.verify.batch_fallbacks"] == 1


class TestFailClosed:
    """Every tamper vector must raise, never mis-verify."""

    def test_dropped_ancestor(self, v3_system):
        answer = answer_for(v3_system, SPARSE)
        victim = deep_ref(answer.vo)
        index = victim.proof.table_index
        table = answer.vo.multiproofs[index]
        parent = (victim.proof.position - 1) // table.arity
        answer.vo = with_nodes(
            answer.vo,
            index,
            [node for node in table.nodes if node.position != parent],
        )
        with pytest.raises(VerificationError):
            reverify(v3_system, answer, SPARSE)

    def test_duplicated_position_with_conflicting_commitment(self, v3_system):
        answer = answer_for(v3_system, SPARSE)
        table = answer.vo.multiproofs[0]
        twin = dataclasses.replace(
            table.nodes[0], commitment=table.nodes[0].commitment + 1
        )
        for nodes in (
            (twin,) + table.nodes,  # the forged row shadows the honest one
            table.nodes[:1] + (twin,) + table.nodes[1:],
        ):
            answer.vo = with_nodes(answer.vo, 0, nodes)
            with pytest.raises(VerificationError):
                reverify(v3_system, answer, SPARSE)

    def test_node_spliced_from_another_keywords_tree(self, v3_system):
        answer = answer_for(v3_system, SPARSE)
        victim_table, donor_table = answer.vo.multiproofs[:2]
        donor = donor_table.node(victim_table.nodes[0].position)
        assert donor != victim_table.nodes[0]
        answer.vo = with_nodes(
            answer.vo, 0, (donor,) + victim_table.nodes[1:]
        )
        with pytest.raises(VerificationError):
            reverify(v3_system, answer, SPARSE)

    def test_ref_repointed_to_a_sibling_position(self, v3_system):
        answer = answer_for(v3_system, SCAN)
        vo = answer.vo
        victim = vo.conjuncts[0].base.entries[4]
        sibling = victim.proof.position + 1
        assert sibling in vo.multiproofs[0].index()
        answer.vo = repoint(vo, victim, position=sibling)
        with pytest.raises(VerificationError):
            reverify(v3_system, answer, SCAN)

    def test_ref_repointed_to_another_trees_table(self, v3_system):
        answer = answer_for(v3_system, SPARSE)
        vo = answer.vo
        victim = next(iter(iter_proven_entries(vo)))
        other = (victim.proof.table_index + 1) % len(vo.multiproofs)
        answer.vo = repoint(vo, victim, table_index=other, position=1)
        with pytest.raises(VerificationError):
            reverify(v3_system, answer, SPARSE)

    def test_ref_out_of_range(self, v3_system):
        answer = answer_for(v3_system, SPARSE)
        victim = next(iter(iter_proven_entries(answer.vo)))
        answer.vo = repoint(answer.vo, victim, table_index=99)
        with pytest.raises(VerificationError):
            reverify(v3_system, answer, SPARSE)

    def test_position_beyond_the_count(self, v3_system):
        """A node past ``cnt`` cannot be proven even with honest openings
        (here: the real last node, against a digest one entry short)."""
        answer = answer_for(v3_system, SCAN)
        query = KeywordQuery.parse(SCAN)
        ps = v3_system.chain_proof_system(query.all_keywords())
        commitment, count = ps.digests["warm"]
        ps.digests["warm"] = (commitment, count - 1)
        with pytest.raises(VerificationError, match="outside the committed"):
            verify_query(query, answer, ps)

    def test_stale_count(self):
        """An answer assembled before an insert fails the termination
        check against the fresh on-chain ``cnt``."""
        system = build()
        stale = answer_for(system, SCAN)
        system.add_object(DataObject(100, ("warm",), b"late"))
        with pytest.raises(VerificationError):
            reverify(system, stale, SCAN)

    def test_reordered_table(self, v3_system):
        answer = answer_for(v3_system, SPARSE)
        nodes = answer.vo.multiproofs[0].nodes
        answer.vo = with_nodes(answer.vo, 0, nodes[1:] + nodes[:1])
        with pytest.raises(VerificationError):
            reverify(v3_system, answer, SPARSE)
        codec = VOCodec(value_bytes=v3_system.value_bytes)
        with pytest.raises(ReproError):
            codec.encode(answer.vo)

    def test_wrong_arity(self, v3_system):
        answer = answer_for(v3_system, SPARSE)
        answer.vo = with_table(answer.vo, 0, arity=3)
        with pytest.raises(VerificationError):
            reverify(v3_system, answer, SPARSE)

    def test_tampered_slot1_opening(self, v3_system):
        answer = answer_for(v3_system, SPARSE)
        victim = next(iter(iter_proven_entries(answer.vo)))
        answer.vo = repoint(
            answer.vo, victim, slot1_proof=victim.proof.slot1_proof ^ 1
        )
        with pytest.raises(VerificationError):
            reverify(v3_system, answer, SPARSE)

    def test_merkle_proof_system_rejects_node_tables(self, v3_system):
        """Tables of the other family never verify."""
        smi = HybridStorageSystem(scheme="smi", seed=5)
        smi.add_objects(corpus(6))
        answer = answer_for(v3_system, SCAN)
        query = KeywordQuery.parse(SCAN)
        ps = smi.chain_proof_system(query.all_keywords())
        with pytest.raises(VerificationError):
            verify_query(query, answer, ps)


class TestFrameRobustness:
    def test_v2_pin_refuses_the_table(self, v3_system):
        for version in (2, 3):
            codec = VOCodec(value_bytes=v3_system.value_bytes, version=version)
            with pytest.raises(ReproError):
                codec.encode(answer_for(v3_system).vo)

    def test_v4_pin_carries_a_legacy_vo(self, v2_system):
        vb = v2_system.value_bytes
        vo = answer_for(v2_system, SPARSE).vo
        payload = VOCodec(value_bytes=vb, version=4).encode(vo)
        assert payload[0] == 0xF4
        decoded = VOCodec(value_bytes=vb).decode(payload)
        assert decoded == vo
        assert all(
            isinstance(entry.proof, MembershipProof)
            for entry in iter_proven_entries(decoded)
        )

    def test_truncated_v4_frame(self, v3_system):
        codec = VOCodec(value_bytes=v3_system.value_bytes)
        payload = codec.encode(answer_for(v3_system).vo)
        for cut in (1, 2, 7, len(payload) // 2, len(payload) - 1):
            with pytest.raises(ReproError):
                codec.decode(payload[:cut])

    def test_malformed_tables_are_rejected_by_the_decoder(self, v3_system):
        """Hand-assembled frames: each defect is a ReproError at decode."""
        vb = v3_system.value_bytes
        codec = VOCodec(value_bytes=vb)
        element = (7).to_bytes(vb, "big")

        def frame(arity, positions, tail=b"\x00"):
            rows = b"".join(bytes([p]) + element * 2 for p in positions)
            return (
                bytes([0xF4, 1, 1, arity, len(positions)]) + rows + tail
            )

        assert codec.decode(frame(2, [1, 3])).multiproofs[0].arity == 2
        for bad in (
            frame(2, [3, 1]),  # unsorted
            frame(2, [1, 1]),  # duplicate
            frame(2, [0, 1]),  # the root is never a row
            frame(2, [1, 5]),  # 5's parent (2) is absent
            frame(0, [1]),  # no such arity
            bytes([0xF4, 1, 2, 2, 0, 0]),  # unknown table kind
            bytes([0xF4, 1, 1, 2, 0xFF, 0xFF, 0x03]) + b"\x00",  # oversize
        ):
            with pytest.raises(ReproError):
                codec.decode(bad)

    def test_ref_to_an_absent_node_is_rejected_by_the_decoder(self, v3_system):
        vb = v3_system.value_bytes
        codec = VOCodec(value_bytes=vb)
        vo = answer_for(v3_system, SCAN).vo
        victim = vo.conjuncts[0].base.entries[-1]
        table = vo.multiproofs[0]
        missing = table.nodes[-1].position + 1
        for changes in (
            {"position": missing},
            {"table_index": len(vo.multiproofs)},
        ):
            payload = codec.encode(repoint(vo, victim, **changes))
            with pytest.raises(ReproError):
                codec.decode(payload)
