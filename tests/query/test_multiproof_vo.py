"""End-to-end tests for multiproof VOs (the Merkle family's tables).

The SP ships one deduplicated :class:`TreeMultiproof` per
``(tree, commitment)`` and nothing else: the client folds every table
once inside ``verify_query`` and replays the join over them.  MI and SMI
differ on chain only, so both run through the same checks here.  These
tests pin the win over per-entry paths (which ``MBTree.prove`` still
mints, for the range and update proofs — the yardstick), the round
trips, and — most importantly — that every tamper vector fails closed.
"""

import dataclasses

import pytest

from repro import DataObject, HybridStorageSystem, KeywordQuery
from repro.core.query.codec import VOCodec
from repro.core.query.verify import verify_query
from repro.core.query.vo import ReplayVO, iter_proven_entries
from repro.errors import ReproError, VerificationError
from tests.reference_codec import forge_merkle, merkle_parts
from tests.reference_multiproof import prove_path

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
    """The other Merkle scheme: same SP trees, same client."""
    return build("mi")


def answer_for(system, text=DNF):
    return system.process_query(KeywordQuery.parse(text))


def path_bytes(system, vo):
    """What the VO's leaves would cost as per-entry paths: per table the
    proof bytes alone, and as entries written inline (presence byte,
    ``id + hash``, proof tag, path — once each, however often a walk
    would have repeated them)."""
    sizes = []
    keywords = {}
    for conj in vo.conjuncts:
        for tree, run in zip(conj.base.trees, conj.base.runs):
            if run is not None:
                keywords[run] = tree
    for index, table in enumerate(vo.multiproofs):
        tree = system.sp_index.trees[keywords[index]]
        paths = sum(
            prove_path(tree, key)[1].byte_size() for key, _ in table.leaves
        )
        sizes.append((paths, paths + 42 * len(table.leaves)))
    return sizes


def reverify(system, answer, text=DNF):
    query = KeywordQuery.parse(text)
    ps = system.chain_proof_system(query.all_keywords())
    return verify_query(query, answer, ps)


class TestCompression:
    def test_one_multiproof_per_tree(self, v3_system):
        answer = answer_for(v3_system)
        assert len(answer.vo.multiproofs) == 3  # hot, warm, cool

    def test_identical_results_and_shrink_vs_v2(self, v3_system, v2_system):
        """The tables against one path per entry (what a VO of rounds
        shipped): at least twice smaller, proof bytes and all."""
        a3 = answer_for(v3_system)
        a2 = answer_for(v2_system)
        assert a3.result_ids == a2.result_ids
        assert a3.vo == a2.vo  # MI and SMI keep identical trees
        sizes = path_bytes(v3_system, a3.vo)
        assert a3.vo.proof_byte_size() * 2 <= sum(paths for paths, _ in sizes)
        assert a3.vo.byte_size() * 2 <= sum(inline for _, inline in sizes)

    def test_both_versions_verify(self, v3_system, v2_system):
        for system in (v3_system, v2_system):
            answer = answer_for(system)
            assert reverify(system, answer).ids == {
                i for i in range(40) if i % 2 == 0 or i % 3 == 0
            }

    def test_low_yield_cases_are_not_larger_than_v3(self):
        """What a per-group size gate was once written for: near-empty
        keywords and singleton boundary proofs, where a table could cost
        more than the paths *plus* inline entries it replaced.  With no
        entry left to ship inline the table always wins."""
        docs = corpus(12) + [
            DataObject(100, ("solo",), b"only"),
            DataObject(101, ("solo", "pair", "hot"), b"both"),
            DataObject(102, ("pair",), b"two"),
        ]
        system = HybridStorageSystem(scheme="smi", seed=5)
        system.add_objects(docs)
        for text in (
            "solo",  # scans of 1-3 leaf trees
            "pair",
            "rare",
            "solo AND pair",  # joins between such trees
            "solo AND hot",  # one boundary pair in a larger tree
            "rare AND pair",
            "pair AND hot AND solo",
            "(solo AND hot) OR pair OR (rare AND cool)",
        ):
            answer = answer_for(system, text)
            sizes = path_bytes(system, answer.vo)
            for table, (_, inline) in zip(answer.vo.multiproofs, sizes):
                assert table.byte_size() <= inline, text
            assert reverify(system, answer, text).ids == set(answer.result_ids)
        assert not answer_for(system, "hot AND ghost").vo.multiproofs


class TestRoundTrip:
    def test_v5_decode_encode_identity(self, v3_system):
        codec = VOCodec(value_bytes=v3_system.value_bytes)
        vo = answer_for(v3_system).vo
        assert all(isinstance(c.base, ReplayVO) for c in vo.conjuncts)
        payload = codec.encode(vo)
        assert payload[0] == 0xF6
        assert codec.decode(payload) == vo
        answer = answer_for(v3_system)
        answer.vo = codec.decode(payload)
        assert reverify(v3_system, answer).ids

    def test_v3_decode_encode_identity(self, v2_system):
        """Tables that carry helper digests round-trip as well."""
        codec = VOCodec(value_bytes=v2_system.value_bytes)
        vo = answer_for(v2_system, SPARSE).vo
        assert any(merkle_parts(table).helpers for table in vo.multiproofs)
        payload = codec.encode(vo)
        assert codec.decode(payload) == vo
        assert codec.encode(codec.decode(payload)) == payload

    def test_decoded_v3_vo_still_verifies(self, v2_system):
        codec = VOCodec(value_bytes=v2_system.value_bytes)
        answer = answer_for(v2_system)
        answer.vo = codec.decode(codec.encode(answer.vo))
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
            if len(merkle_parts(mp).helpers) >= minimum:
                return index
        pytest.skip("no multiproof with enough helpers")

    def mutate_mp(self, vo, index, **changes):
        mp = forge_merkle(vo.multiproofs[index], **changes)
        table = (
            vo.multiproofs[:index] + (mp,) + vo.multiproofs[index + 1 :]
        )
        return dataclasses.replace(vo, multiproofs=table)

    def test_dropped_helper(self, v3_system):
        answer = answer_for(v3_system, SPARSE)
        index = self.helpered(answer.vo)
        answer.vo = self.mutate_mp(
            answer.vo,
            index,
            helpers=merkle_parts(answer.vo.multiproofs[index]).helpers[:-1],
        )
        with pytest.raises(VerificationError):
            reverify(v3_system, answer, SPARSE)

    def test_duplicated_helper(self, v3_system):
        answer = answer_for(v3_system, SPARSE)
        index = self.helpered(answer.vo)
        helpers = merkle_parts(answer.vo.multiproofs[index]).helpers
        answer.vo = self.mutate_mp(
            answer.vo, index, helpers=helpers + helpers[:1]
        )
        with pytest.raises(VerificationError):
            reverify(v3_system, answer, SPARSE)

    def test_reordered_helpers(self, v3_system):
        answer = answer_for(v3_system, SPARSE)
        index = self.helpered(answer.vo, minimum=2)
        helpers = merkle_parts(answer.vo.multiproofs[index]).helpers
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
        victim = merkle_parts(answer.vo.multiproofs[index]).helpers
        donor_mp = answer.vo.multiproofs[
            (index + 1) % len(answer.vo.multiproofs)
        ]
        donor = merkle_parts(donor_mp).helpers or tuple(
            h for _, h in donor_mp.leaves
        )
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

    def test_gindex_substitution_between_trees(self, v3_system):
        """One conjunct of a DNF naming the table another conjunct's
        tree was proven in: one fold has one root, and it is not this
        keyword's."""
        answer = answer_for(v3_system)
        first, second = answer.vo.conjuncts
        assert first.base.trees != second.base.trees
        theirs = set(first.base.runs) - set(second.base.runs)
        mine = set(second.base.runs) - set(first.base.runs)
        assert len(theirs) == len(mine) == 1
        runs = tuple(
            theirs.copy().pop() if run in mine else run
            for run in second.base.runs
        )
        forged = dataclasses.replace(
            second, base=dataclasses.replace(second.base, runs=runs)
        )
        answer.vo = dataclasses.replace(answer.vo, conjuncts=(first, forged))
        with pytest.raises(VerificationError):
            reverify(v3_system, answer)

    def test_leafref_out_of_range(self, v3_system):
        """A conjunct naming a table the VO does not hold."""
        answer = answer_for(v3_system, SPARSE)
        conj = answer.vo.conjuncts[0]
        forged = dataclasses.replace(
            conj, base=dataclasses.replace(conj.base, runs=(0, 99))
        )
        answer.vo = dataclasses.replace(answer.vo, conjuncts=(forged,))
        with pytest.raises(VerificationError, match="out of range"):
            reverify(v3_system, answer, SPARSE)
        with pytest.raises(ReproError, match="lacks"):
            list(iter_proven_entries(answer.vo))
        codec = VOCodec(value_bytes=v3_system.value_bytes)
        with pytest.raises(ReproError, match="names table"):
            codec.decode(codec.encode(answer.vo))

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
        """The other family's proof system refuses a Merkle table."""
        ci = HybridStorageSystem(scheme="ci", cvc_modulus_bits=512, seed=5)
        ci.add_objects(corpus(14))
        answer = answer_for(v3_system, SPARSE)
        query = KeywordQuery.parse(SPARSE)
        ps = ci.chain_proof_system(query.all_keywords())
        with pytest.raises(VerificationError, match="another kind"):
            verify_query(query, answer, ps)


class TestFrameRobustness:
    def test_truncated_v3_frame(self, v3_system):
        codec = VOCodec(value_bytes=v3_system.value_bytes)
        for payload in (
            codec.encode(answer_for(v3_system).vo),
            codec.encode(answer_for(v3_system, SPARSE).vo),
        ):
            for cut in (1, 7, len(payload) // 2, len(payload) - 1):
                with pytest.raises(ReproError):
                    codec.decode(payload[:cut])

    def test_unknown_frame_version_rejected(self, v3_system):
        codec = VOCodec(value_bytes=v3_system.value_bytes)
        payload = codec.encode(answer_for(v3_system).vo)
        assert payload[0] == 0xF6
        for marker in (0xF5, 0xF7, 0x02):
            with pytest.raises(ReproError, match="unsupported VO frame"):
                codec.decode(bytes([marker]) + payload[1:])

    def test_v2_pin_refuses_compressed_vo(self, v3_system):
        """There is one frame: the codec takes no version to pin."""
        with pytest.raises(TypeError):
            VOCodec(value_bytes=v3_system.value_bytes, version=2)
