"""End-to-end tests for multiproof VOs (v5 frames, and v3 as read).

The SP ships one deduplicated :class:`TreeMultiproof` per
``(tree, commitment)`` and nothing else: the client folds every table
once inside ``verify_query`` and replays the join over them.  A v3
frame — the same tables under the walk's rounds, each entry a
:class:`LeafRef` — is what an older SP sent; it is built here with the
reference compressor and codec, and must still decode and verify.
These tests pin the compression win, the round trips, and — most
importantly — that every tamper vector fails closed.
"""

import dataclasses

import pytest

from repro import DataObject, HybridStorageSystem, KeywordQuery
from repro.core.query.codec import VOCodec
from repro.core.query.verify import verify_query
from repro.core.query.vo import LeafRef, ReplayVO, iter_proven_entries
from repro.errors import ReproError, VerificationError

from tests.reference_codec import ReferenceVOCodec
from tests.reference_multiproof import compress_v3

#: High-selectivity DNF: "hot" matches every object, "warm" every 2nd,
#: "cool" every 3rd — three trees, three multiproofs, heavy path overlap.
DNF = "(hot AND warm) OR (hot AND cool)"
#: Sparse join: "rare" matches 4 of 40 objects, so the probed "hot"
#: tree's multiproof covers a thin slice and needs helper digests —
#: the interesting shape for helper-tampering tests.
SPARSE = "hot AND rare"


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


def build(scheme="smi", **kwargs):
    system = HybridStorageSystem(
        scheme=scheme, cvc_modulus_bits=512, seed=5, **kwargs
    )
    system.add_objects(corpus())
    return system


@pytest.fixture(scope="module")
def v3_system():
    return build()


@pytest.fixture(scope="module")
def v2_system():
    return build(vo_version=2)


def answer_for(system, text=DNF):
    return system.process_query(KeywordQuery.parse(text))


def v3_answer_for(v2_system, text=DNF):
    """The answer as an SP of the v3 vintage assembled it."""
    answer = answer_for(v2_system, text)
    answer.vo = compress_v3(answer.vo)
    return answer


def v3_frame(system, vo) -> bytes:
    return ReferenceVOCodec(value_bytes=system.value_bytes).encode(vo)


def reverify(system, answer, text=DNF):
    query = KeywordQuery.parse(text)
    ps = system.chain_proof_system(query.all_keywords())
    return verify_query(query, answer, ps)


class TestCompression:
    def test_one_multiproof_per_tree(self, v3_system):
        answer = answer_for(v3_system)
        assert len(answer.vo.multiproofs) == 3  # hot, warm, cool

    def test_identical_results_and_shrink_vs_v2(self, v3_system, v2_system):
        a3 = answer_for(v3_system)
        a2 = answer_for(v2_system)
        assert a3.result_ids == a2.result_ids
        assert not a2.vo.multiproofs
        codec = VOCodec(value_bytes=v3_system.value_bytes)
        wire3 = len(codec.encode(a3.vo))
        wire2 = len(codec.encode(a2.vo))
        assert wire3 * 2 <= wire2
        vb = v3_system.value_bytes
        assert a3.vo.proof_byte_size(vb) * 2 <= a2.vo.proof_byte_size(vb)

    def test_both_versions_verify(self, v3_system, v2_system):
        for system in (v3_system, v2_system):
            answer = answer_for(system)
            assert reverify(system, answer).ids == {
                i for i in range(40) if i % 2 == 0 or i % 3 == 0
            }

    def test_low_yield_cases_are_not_larger_than_v3(self, v2_system):
        """What the v3 frame's per-group size gate was written for:
        near-empty keywords and singleton boundary proofs, where a table
        cost more than the paths *plus* inline entries it replaced.
        With no entry left to ship the table always wins — on each such
        case the v5 frame is not larger than the v3 one."""
        docs = corpus(12) + [
            DataObject(100, ("solo",), b"only"),
            DataObject(101, ("solo", "pair", "hot"), b"both"),
            DataObject(102, ("pair",), b"two"),
        ]
        v5 = HybridStorageSystem(scheme="smi", seed=5)
        v2 = HybridStorageSystem(scheme="smi", seed=5, vo_version=2)
        for system in (v5, v2):
            system.add_objects(docs)
        codec = VOCodec(value_bytes=v5.value_bytes)
        gate_refused = 0
        for text in (
            "hot AND ghost",  # empty keyword: no proof at all
            "solo",  # scans of 1-3 leaf trees
            "pair",
            "rare",
            "solo AND pair",  # joins between such trees
            "solo AND hot",  # one boundary pair in a larger tree
            "rare AND pair",
            "pair AND hot AND solo",
            "(solo AND hot) OR pair OR (rare AND cool)",
        ):
            a5 = answer_for(v5, text)
            a3 = v3_answer_for(v2, text)
            assert a5.result_ids == a3.result_ids
            gate_refused += any(
                not isinstance(entry.proof, LeafRef)
                for entry in iter_proven_entries(a3.vo)
            )
            assert len(codec.encode(a5.vo)) <= len(v3_frame(v2, a3.vo)), text
            assert reverify(v5, a5, text).ids == set(a5.result_ids)
        assert gate_refused >= 3  # the cases do include what the gate refused
        assert not answer_for(v5, "hot AND ghost").vo.multiproofs


class TestRoundTrip:
    def test_v5_decode_encode_identity(self, v3_system):
        codec = VOCodec(value_bytes=v3_system.value_bytes)
        vo = answer_for(v3_system).vo
        assert all(isinstance(c.base, ReplayVO) for c in vo.conjuncts)
        payload = codec.encode(vo)
        assert payload[0] == 0xF5
        assert codec.decode(payload) == vo
        answer = answer_for(v3_system)
        answer.vo = codec.decode(payload)
        assert reverify(v3_system, answer).ids

    def test_v3_decode_encode_identity(self, v2_system):
        """A v3 frame decodes to what its SP assembled; it is read-only,
        so re-encoding it is refused rather than silently re-framed."""
        codec = VOCodec(value_bytes=v2_system.value_bytes)
        vo = v3_answer_for(v2_system).vo
        payload = v3_frame(v2_system, vo)
        assert payload[0] == 0xF3
        assert codec.decode(payload) == vo
        with pytest.raises(ReproError, match="read-only"):
            codec.encode(vo)

    def test_decoded_v3_vo_still_verifies(self, v2_system):
        codec = VOCodec(value_bytes=v2_system.value_bytes)
        answer = v3_answer_for(v2_system)
        answer.vo = codec.decode(v3_frame(v2_system, answer.vo))
        assert reverify(v2_system, answer).ids == {
            i for i in range(40) if i % 2 == 0 or i % 3 == 0
        }


class TestFailClosed:
    """Every tamper vector must raise, never mis-verify.

    Built on the SPARSE join so the probed tree's multiproof actually
    carries helper digests (a full-cover proof has none and is immune
    to helper tampering by construction).
    """

    @staticmethod
    def helpered(vo, minimum=1):
        """Index of the first multiproof with ``minimum``+ helpers."""
        for index, mp in enumerate(vo.multiproofs):
            if len(mp.helpers) >= minimum:
                return index
        pytest.skip("no multiproof with enough helpers")

    def mutate_mp(self, vo, index, **changes):
        mp = dataclasses.replace(vo.multiproofs[index], **changes)
        table = (
            vo.multiproofs[:index] + (mp,) + vo.multiproofs[index + 1 :]
        )
        return dataclasses.replace(vo, multiproofs=table)

    def test_dropped_helper(self, v3_system):
        answer = answer_for(v3_system, SPARSE)
        index = self.helpered(answer.vo)
        answer.vo = self.mutate_mp(
            answer.vo, index, helpers=answer.vo.multiproofs[index].helpers[:-1]
        )
        with pytest.raises(VerificationError):
            reverify(v3_system, answer, SPARSE)

    def test_duplicated_helper(self, v3_system):
        answer = answer_for(v3_system, SPARSE)
        index = self.helpered(answer.vo)
        helpers = answer.vo.multiproofs[index].helpers
        answer.vo = self.mutate_mp(
            answer.vo, index, helpers=helpers + helpers[:1]
        )
        with pytest.raises(VerificationError):
            reverify(v3_system, answer, SPARSE)

    def test_reordered_helpers(self, v3_system):
        answer = answer_for(v3_system, SPARSE)
        index = self.helpered(answer.vo, minimum=2)
        helpers = answer.vo.multiproofs[index].helpers
        if helpers[0] == helpers[1]:
            pytest.skip("helper digests coincide")
        swapped = (helpers[1], helpers[0]) + helpers[2:]
        answer.vo = self.mutate_mp(answer.vo, index, helpers=swapped)
        with pytest.raises(VerificationError):
            reverify(v3_system, answer, SPARSE)

    def test_cross_tree_helper_splicing(self, v3_system):
        """Grafting another tree's digests into a multiproof must not
        fold to the victim tree's root."""
        answer = answer_for(v3_system, SPARSE)
        index = self.helpered(answer.vo)
        victim = answer.vo.multiproofs[index].helpers
        donor_mp = answer.vo.multiproofs[
            (index + 1) % len(answer.vo.multiproofs)
        ]
        donor = donor_mp.helpers or tuple(h for _, h in donor_mp.leaves)
        assert donor
        spliced = (donor[0],) + victim[1:]
        if spliced == victim:
            pytest.skip("digests coincide")
        answer.vo = self.mutate_mp(answer.vo, index, helpers=spliced)
        with pytest.raises(VerificationError):
            reverify(v3_system, answer, SPARSE)

    def test_table_substitution_between_trees(self, v3_system):
        """Naming another tree's table under a keyword must fail: one
        fold has one root, and it is not this keyword's."""
        answer = answer_for(v3_system, SPARSE)
        conj = answer.vo.conjuncts[0]
        assert conj.base.runs == (0, 1)
        swapped = dataclasses.replace(conj.base, runs=(1, 0))
        answer.vo = dataclasses.replace(
            answer.vo, conjuncts=(dataclasses.replace(conj, base=swapped),)
        )
        with pytest.raises(VerificationError):
            reverify(v3_system, answer, SPARSE)
        for runs in ((0, 0), (0, 7), (0, None)):
            answer.vo = dataclasses.replace(
                answer.vo,
                conjuncts=(
                    dataclasses.replace(
                        conj, base=dataclasses.replace(conj.base, runs=runs)
                    ),
                ),
            )
            with pytest.raises(VerificationError):
                reverify(v3_system, answer, SPARSE)

    def test_gindex_substitution_between_trees(self, v2_system):
        """(v3) Re-pointing a LeafRef at a different tree's multiproof
        must fail: one fold has one root, and it is not this keyword's."""
        answer = v3_answer_for(v2_system, SPARSE)
        vo = answer.vo
        entries = [
            e
            for e in iter_proven_entries(vo)
            if isinstance(e.proof, LeafRef)
        ]
        assert entries
        victim = entries[0]
        other = (victim.proof.proof_index + 1) % len(vo.multiproofs)
        swapped = dataclasses.replace(
            victim.proof, proof_index=other, ordinal=0
        )

        def rewrite(entry):
            if entry is victim:
                return dataclasses.replace(entry, proof=swapped)
            return entry

        answer.vo = _map_entries(vo, rewrite)
        with pytest.raises(VerificationError):
            reverify(v2_system, answer, SPARSE)

    def test_leafref_out_of_range(self, v2_system):
        answer = v3_answer_for(v2_system, SPARSE)
        vo = answer.vo
        victim = next(
            e
            for e in iter_proven_entries(vo)
            if isinstance(e.proof, LeafRef)
        )
        bad = dataclasses.replace(victim.proof, proof_index=99)
        answer.vo = _map_entries(
            vo,
            lambda e: dataclasses.replace(e, proof=bad)
            if e is victim
            else e,
        )
        with pytest.raises(VerificationError):
            reverify(v2_system, answer, SPARSE)

    def test_tampered_leaf_binding(self, v3_system):
        """Corrupting a leaf-table hash breaks the fold against the
        on-chain root."""
        answer = answer_for(v3_system, SPARSE)
        mp = answer.vo.multiproofs[0]
        key, _ = mp.leaves[0]
        answer.vo = self.mutate_mp(
            answer.vo, 0, leaves=((key, bytes(32)),) + mp.leaves[1:]
        )
        with pytest.raises(VerificationError):
            reverify(v3_system, answer, SPARSE)

    def test_multiproofs_rejected_without_capable_proof_system(
        self, v3_system
    ):
        """A proof system lacking ``attach_multiproofs`` (the Chameleon
        family) must reject a VO that carries a table."""

        class NoMultiproofPS:
            def chain_digest_bytes(self):
                return 0

        answer = answer_for(v3_system, SPARSE)
        query = KeywordQuery.parse(DNF)
        with pytest.raises(VerificationError):
            verify_query(query, answer, NoMultiproofPS())


class TestFrameRobustness:
    def test_truncated_v3_frame(self, v3_system, v2_system):
        codec = VOCodec(value_bytes=v3_system.value_bytes)
        for payload in (
            codec.encode(answer_for(v3_system).vo),
            v3_frame(v2_system, v3_answer_for(v2_system).vo),
        ):
            for cut in (1, 7, len(payload) // 2, len(payload) - 1):
                with pytest.raises(ReproError):
                    codec.decode(payload[:cut])

    def test_unknown_frame_version_rejected(self, v3_system):
        codec = VOCodec(value_bytes=v3_system.value_bytes)
        payload = codec.encode(answer_for(v3_system).vo)
        assert payload[0] == 0xF5
        with pytest.raises(ReproError, match="unsupported VO frame"):
            codec.decode(bytes([0xF6]) + payload[1:])

    def test_v2_pin_refuses_compressed_vo(self, v3_system):
        codec = VOCodec(value_bytes=v3_system.value_bytes, version=2)
        with pytest.raises(ReproError):
            codec.encode(answer_for(v3_system).vo)


def _map_entries(vo, fn):
    """Rebuild a QueryVO with ``fn`` applied to every ProvenEntry."""
    from repro.core.query.vo import FullScanVO, MultiWayJoinVO

    def entry(e):
        return None if e is None else fn(e)

    conjuncts = []
    for conj in vo.conjuncts:
        base = conj.base
        if isinstance(base, MultiWayJoinVO):
            rounds = tuple(
                dataclasses.replace(
                    r,
                    lower=entry(r.lower),
                    upper=entry(r.upper),
                    next_target=entry(r.next_target),
                )
                for r in base.rounds
            )
            base = dataclasses.replace(
                base, first_target=fn(base.first_target), rounds=rounds
            )
        elif isinstance(base, FullScanVO):
            base = dataclasses.replace(
                base, entries=tuple(fn(e) for e in base.entries)
            )
        stages = tuple(
            dataclasses.replace(
                stage,
                probes=tuple(
                    dataclasses.replace(
                        p, lower=entry(p.lower), upper=entry(p.upper)
                    )
                    for p in stage.probes
                ),
            )
            for stage in conj.stages
        )
        conjuncts.append(
            dataclasses.replace(conj, base=base, stages=stages)
        )
    return dataclasses.replace(vo, conjuncts=tuple(conjuncts))
