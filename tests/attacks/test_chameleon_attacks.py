"""Adversarial tests for the Chameleon family (Section VI, Theorem 2).

The attacks on the answer's *shape* (rounds, boundaries, counts) run
against the default compressed VO; the attacks on the fields of a
per-entry :class:`MembershipProof` run against a ``vo_version=2`` system,
which still ships that form, and the ones on the node table that
replaced it follow in :class:`TestNodeTableAttacks`.

Since PR 16 no opening is checked on its own: a query's openings settle as
one ``vc.verify_batch`` (DESIGN.md §6.1).  :class:`TestBatchedOpenings`
attacks that step — forgeries built to cancel each other, signs, the
cache — and :class:`TestEveryPathSettles` shows that no caller can use a
verdict the batch has not confirmed; :func:`refuse_all` repeats the
forgeries under ``python -O`` and with the fast path off.
"""

import dataclasses
import math
import pathlib
import subprocess
import sys

import pytest

from repro import DataObject, HybridStorageSystem, KeywordQuery
from repro.core.chameleon import MembershipProof, NodeRef
from repro.core.multiproof import _map_vo_entries
from repro.core.query.codec import VOCodec
from repro.core.query.verify import verify_query
from repro.core.query.vo import JoinRound, QueryVO
from repro.crypto import vc
from repro.errors import ReproError, VerificationError
from repro.sp.protocol import RemoteClient, StorageProviderServer
from repro.sp.warmer import CacheWarmer


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
        with pytest.raises(VerificationError, match="different tree"):
            with ps.settling():
                ps.verify_entry(base.trees[0], base.first_target)
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


SCAN = "covid-19"


def forge_slot1(answer, transforms):
    """Rewrite the slot-1 proof of the scan's entries, by entry index."""
    entries = answer.vo.conjuncts[0].base.entries
    forged = {
        id(entries[index]): dataclasses.replace(
            entries[index],
            proof=dataclasses.replace(
                entries[index].proof,
                slot1_proof=change(entries[index].proof.slot1_proof),
            ),
        )
        for index, change in transforms.items()
    }
    answer.vo = _map_vo_entries(answer.vo, lambda e: forged.get(id(e), e))
    return answer


def forge_links(answer, transforms, table=0):
    """Rewrite rows of one node table, by position."""
    nodes = tuple(
        transforms.get(node.position, lambda n: n)(node)
        for node in answer.vo.multiproofs[table].nodes
    )
    tables = list(answer.vo.multiproofs)
    tables[table] = dataclasses.replace(tables[table], nodes=nodes)
    answer.vo = dataclasses.replace(answer.vo, multiproofs=tuple(tables))
    return answer


def link(change):
    return lambda node: dataclasses.replace(
        node, link_proof=change(node.link_proof)
    )


def forgeries(system):
    """``(name, answer)``: a full scan with one thing wrong each."""
    n = system.chain_proof_system(frozenset()).pp.modulus
    g = 3
    while math.gcd(g, n) != 1:
        g += 2
    flip = lambda proof: proof ^ 1  # noqa: E731
    negate = lambda proof: n - proof  # noqa: E731

    def scan():
        return honest_answer(system, SCAN)[1]

    last = len(scan().vo.conjuncts[0].base.entries) - 1
    yield "bit flip in the first slot-1 proof", forge_slot1(scan(), {0: flip})
    yield "bit flip in the last slot-1 proof", forge_slot1(scan(), {last: flip})
    yield "bit flip in a link proof", forge_links(scan(), {4: link(flip)})
    yield "one negated slot-1 proof", forge_slot1(scan(), {2: negate})
    yield "three negated proofs", forge_links(
        forge_slot1(scan(), {1: negate}), {2: link(negate), 5: link(negate)}
    )
    # Positions 1 and 3 are both first children: same slot, same prime.
    yield "a cancelling pair in one slot", forge_links(
        scan(),
        {
            1: link(lambda proof: proof * g % n),
            3: link(lambda proof: proof * pow(g, -1, n) % n),
        },
    )
    yield "a commitment replaced in the table", forge_links(
        scan(),
        {3: lambda node: dataclasses.replace(node, commitment=node.commitment + 1)},
    )
    yield "a commitment negated in the table", forge_links(
        scan(),
        {3: lambda node: dataclasses.replace(node, commitment=n - node.commitment)},
    )
    wrong_message = scan()
    wrong_message.vo = _map_vo_entries(
        wrong_message.vo,
        lambda e: dataclasses.replace(e, object_hash=b"\x13" * 32),
    )
    yield "an opening for another message", wrong_message
    rows = scan().vo.multiproofs[0].index()
    yield "a proof presented under its sibling's slot", forge_links(
        scan(),
        {
            1: lambda node: dataclasses.replace(rows[2], position=1),
            2: lambda node: dataclasses.replace(rows[1], position=2),
        },
    )


def refuse_all(system):
    """Every forgery must end in ``VerificationError`` (no ``assert``:
    this also runs under ``python -O``)."""
    query = KeywordQuery.parse(SCAN)
    for name, answer in forgeries(system):
        ps = system.chain_proof_system(query.all_keywords())
        try:
            verify_query(query, answer, ps)
        except VerificationError:
            if ps._pending is not None:
                raise RuntimeError(f"{name}: openings left pending")
            continue
        raise RuntimeError(f"accepted: {name}")


class TestBatchedOpenings:
    """Attacks on the settle step of a query's openings."""

    def test_every_forgery_is_refused_cold_and_warm(self, ci_system):
        ci_system.verify_cache.clear()
        refuse_all(ci_system)
        assert len(ci_system.verify_cache) == 0  # failed batches store nothing
        assert ci_system.query(SCAN).verified
        refuse_all(ci_system)

    def test_every_forgery_is_refused_by_the_reference_arithmetic(
        self, ci_system
    ):
        ci_system.verify_cache.clear()
        with vc.fastpath(False):
            refuse_all(ci_system)
            # ... where two negated proofs are refused as well.
            query, answer, ps = honest_answer(ci_system, SCAN)
            n = ps.pp.modulus
            forge_slot1(answer, {0: lambda p: n - p, 3: lambda p: n - p})
            with pytest.raises(VerificationError):
                verify_query(query, answer, ps)

    def test_cancelling_pair_never_slips_through(self, ci_system):
        ci_system.verify_cache.clear()
        query = KeywordQuery.parse(SCAN)
        answer = dict(forgeries(ci_system))["a cancelling pair in one slot"]
        for _ in range(30):  # fresh coefficients each time
            ps = ci_system.chain_proof_system(query.all_keywords())
            with pytest.raises(VerificationError):
                verify_query(query, answer, ps)

    @pytest.mark.parametrize("place", ["first", "middle", "last"])
    def test_the_failing_opening_is_the_one_named(self, ci_system, place):
        ci_system.verify_cache.clear()
        query, answer, ps = honest_answer(ci_system, SCAN)
        entries = answer.vo.conjuncts[0].base.entries
        index = {"first": 0, "middle": len(entries) // 2, "last": -1}[place]
        victim = entries[index].object_id
        forge_slot1(answer, {index % len(entries): lambda proof: proof ^ 1})
        with pytest.raises(
            VerificationError,
            match=rf"slot-1 opening .* \(entry {victim} of keyword 'covid-19'\)",
        ):
            verify_query(query, answer, ps)

    def test_a_failing_link_names_the_first_entry_that_needed_it(
        self, ci_system
    ):
        ci_system.verify_cache.clear()
        query, answer, ps = honest_answer(ci_system, SCAN)
        forge_links(answer, {2: link(lambda proof: proof ^ 1)})
        # Position 2 hangs in the root's second child slot; the scan
        # reaches it through its own entry, the second of the list.
        second = answer.vo.conjuncts[0].base.entries[1].object_id
        with pytest.raises(
            VerificationError,
            match=rf"parent link in child slot 2 .* \(entry {second} of",
        ):
            verify_query(query, answer, ps)

    def test_nothing_from_a_failed_batch_is_cached(self, ci_system):
        """... not even the honest openings settled with the bad one, and
        the next honest query verifies (and stores) from scratch."""
        ci_system.verify_cache.clear()
        query, answer, ps = honest_answer(ci_system, SCAN)
        n = len(answer.vo.conjuncts[0].base.entries)
        forge_slot1(answer, {n - 1: lambda proof: proof ^ 1})
        with pytest.raises(VerificationError):
            verify_query(query, answer, ps)
        assert len(ci_system.verify_cache) == 0
        assert ci_system.verify_cache.misses == 2 * n
        query, answer, ps = honest_answer(ci_system, SCAN)
        assert len(verify_query(query, answer, ps).ids) == n
        assert len(ci_system.verify_cache) == 2 * n

    def test_two_sign_flips_pass_the_batch_and_certify_only_true_statements(
        self, ci_system
    ):
        """The one documented difference from per-opening verdicts
        (DESIGN.md §6.1 item 3).  Two negated proofs pass; what the
        client concluded — the entries, their hashes, their positions —
        is what the honest answer says, and each negated proof is a
        valid one again once negated back."""
        ci_system.verify_cache.clear()
        query, honest, ps = honest_answer(ci_system, SCAN)
        want = verify_query(query, honest, ps)
        ci_system.verify_cache.clear()
        n = ps.pp.modulus
        query, answer, ps = honest_answer(ci_system, SCAN)
        forge_slot1(answer, {0: lambda p: n - p})
        forge_links(answer, {4: link(lambda p: n - p)})
        got = verify_query(query, answer, ps)
        assert (got.ids, got.hashes) == (want.ids, want.hashes)
        entry = answer.vo.conjuncts[0].base.entries[0]
        row = answer.vo.multiproofs[0].node(entry.proof.position)
        from repro.core.mbtree import entry_digest

        statement = (
            row.commitment,
            1,
            entry_digest(entry.object_id, entry.object_hash),
        )
        assert not vc.verify(ps.pp, *statement, entry.proof.slot1_proof)
        assert vc.verify(ps.pp, *statement, n - entry.proof.slot1_proof)
        # One of the two alone is refused — unless the cache remembers
        # the pair, and then it certifies the same true statement.
        ci_system.verify_cache.clear()
        query, answer, ps = honest_answer(ci_system, SCAN)
        forge_slot1(answer, {0: lambda p: n - p})
        with pytest.raises(VerificationError):
            verify_query(query, answer, ps)


@pytest.fixture()
def flipping_system():
    """A CI system whose SP flips one bit of one opening in every answer."""
    system = HybridStorageSystem(scheme="ci", cvc_modulus_bits=512, seed=5)
    _fill(system)
    honest = system._sp.process_query

    def flipping(query):
        answer = honest(query)
        if answer.vo.multiproofs:
            forge_links(answer, {1: link(lambda proof: proof ^ 1)})
        return answer

    system._sp.process_query = flipping
    return system


class TestEveryPathSettles:
    """No result, ``verified=True``, cache entry or warmed count comes
    from a proof system whose openings were only recorded."""

    def test_verify_query(self, flipping_system):
        query = KeywordQuery.parse(SCAN)
        answer = flipping_system.process_query(query)
        ps = flipping_system.chain_proof_system(query.all_keywords())
        with pytest.raises(VerificationError):
            verify_query(query, answer, ps)
        assert ps._pending is None

    def test_system_query(self, flipping_system):
        with pytest.raises(VerificationError):
            flipping_system.query(SCAN)
        with pytest.raises(VerificationError):
            flipping_system.query("covid-19 AND symptom")
        assert len(flipping_system.verify_cache) == 0

    def test_remote_client(self, flipping_system):
        server = StorageProviderServer(flipping_system)
        client = RemoteClient(server.handle, flipping_system)
        with pytest.raises(VerificationError):
            client.query(SCAN)
        assert len(flipping_system.verify_cache) == 0

    def test_cache_warmer(self, ci_system):
        ci_system.verify_cache.clear()
        genuine = ci_system._sp_view(SCAN).all_proven()
        bad = dataclasses.replace(
            genuine[2].proof, slot1_proof=genuine[2].proof.slot1_proof ^ 1
        )
        entries = list(genuine)
        entries[2] = dataclasses.replace(entries[2], proof=bad)
        warmer = CacheWarmer(
            prove=lambda kw: entries,
            proof_system=ci_system.chain_proof_system,
            hot_threshold=0,
        )
        warmer.note_insert([SCAN])
        assert warmer.warm(SCAN) == len(entries) - 1
        assert SCAN in warmer.pending()
        cached = {key.parts[-1] for key in ci_system.verify_cache._entries}
        assert bad.slot1_proof not in cached
        assert genuine[1].proof.slot1_proof in cached

    def test_entries_cannot_be_verified_outside_a_scope(self, ci_system):
        """The guard that makes a forgotten settle loud instead of
        silent: it is not a ``VerificationError`` a caller might expect."""
        query, answer, ps = honest_answer(ci_system, SCAN)
        ps.attach_multiproofs(answer.vo.multiproofs)
        entry = answer.vo.conjuncts[0].base.entries[0]
        with pytest.raises(ReproError) as caught:
            ps.verify_entry(SCAN, entry)
        assert not isinstance(caught.value, VerificationError)
        with ps.settling():
            with pytest.raises(ReproError, match="do not nest"):
                with ps.settling():
                    pass

    def test_no_way_out_of_a_scope_leaves_a_check_behind(self, ci_system):
        ci_system.verify_cache.clear()
        query, answer, ps = honest_answer(ci_system, SCAN)
        stale = dict(ps.digests)
        commitment, count = ps.digests[SCAN]
        ps.digests[SCAN] = (commitment, count - 1)
        # A structural failure mid-walk: openings were recorded, none
        # is checked, none is kept.
        with pytest.raises(VerificationError, match="outside the committed"):
            verify_query(query, answer, ps)
        assert ps._pending is None
        assert len(ci_system.verify_cache) == 0
        ps.digests = stale
        assert verify_query(query, answer, ps).ids  # the same ps, reused
        assert ps._pending is None


_OPTIMIZED_SCRIPT = """
import sys
assert False, "asserts must be stripped in this run"
sys.path.insert(0, {tests_root!r})
from repro import HybridStorageSystem
from repro.crypto import vc
from tests.attacks.test_chameleon_attacks import SCAN, _fill, refuse_all
system = HybridStorageSystem(scheme="ci", cvc_modulus_bits=512, seed=5)
_fill(system)
refuse_all(system)
if len(system.verify_cache):
    raise RuntimeError("a failed batch reached the cache")
if not system.query(SCAN).verified:
    raise RuntimeError("honest scan refused")
refuse_all(system)
with vc.fastpath(False):
    refuse_all(system)
print("closed")
"""


def test_forgeries_are_refused_under_python_O():
    """No check on the settle path may be an ``assert``."""
    repo = pathlib.Path(__file__).resolve().parents[2]
    result = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT.format(tests_root=str(repo))],
        capture_output=True,
        text=True,
        timeout=300,
        env={"PYTHONPATH": str(repo / "src"), "PATH": ""},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "closed"


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
