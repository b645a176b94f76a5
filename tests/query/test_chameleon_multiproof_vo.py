"""End-to-end tests for Chameleon node-table VOs.

The SP ships one :class:`ChameleonMultiproof` per keyword tree — every
node the query needs, once: an entry row per ``<id, h(o)>`` a probe
read, a node row per further ancestor — and nothing else; the client
authenticates each table's rows once inside ``verify_query``, settles
every distinct opening it does not remember in one ``vc.verify_batch``,
and replays the join over the entry rows.  These tests pin the win over
one membership proof per entry, the round trip, the opening count, and
— most importantly — that every tamper vector fails closed.
"""

import dataclasses

import pytest

from repro import DataObject, HybridStorageSystem, KeywordQuery, obs
from repro.core.chameleon import ChameleonMultiproof
from repro.core.multiproof import compress_query_vo
from repro.core.query.codec import VOCodec
from repro.core.query.verify import verify_query
from repro.core.query.vo import iter_proven_entries
from repro.crypto import vc
from repro.errors import ReproError, VerificationError
from tests.node_tables import change, forge, rows_of, table_of

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
def star_system():
    return build("ci*", bloom_capacity=4)


def answer_for(system, text=DNF):
    return system.process_query(KeywordQuery.parse(text))


def reverify(system, answer, text=DNF):
    query = KeywordQuery.parse(text)
    ps = system.chain_proof_system(query.all_keywords())
    return verify_query(query, answer, ps)


def with_table(vo, index, table):
    tables = vo.multiproofs[:index] + (table,) + vo.multiproofs[index + 1 :]
    return dataclasses.replace(vo, multiproofs=tables)


def forged(vo, index, edits):
    return with_table(vo, index, forge(vo.multiproofs[index], edits))


def per_entry_bytes(vo, value_bytes):
    """The VO's entry rows as one membership proof each, written inline:
    presence + id + hash + tag, then position, commitment, slot-1 opening
    and a link (child index, commitment, opening) per level."""
    total = 0
    for table in vo.multiproofs:
        for row in rows_of(table):
            if not row.is_entry:
                continue
            depth, position = 0, row.position
            while position:
                depth += 1
                position = (position - 1) // table.arity
            total += 42 + 9 + 2 * value_bytes + depth * (1 + 2 * value_bytes)
    return total


def link(edit):
    return lambda row: change(link_proof=edit(row.link_proof))(row)


class TestCompression:
    def test_one_table_per_tree_each_node_once(self, v3_system):
        vo = answer_for(v3_system).vo
        assert len(vo.multiproofs) == 3  # hot, warm, cool
        for table in vo.multiproofs:
            assert isinstance(table, ChameleonMultiproof)
            positions = [row.position for row in rows_of(table)]
            assert positions == sorted(set(positions))
            assert table.count == len(positions)
        assert all(conj.base.runs for conj in vo.conjuncts)

    def test_table_is_parent_closed_and_minimal(self, v3_system):
        vo = answer_for(v3_system, SPARSE).vo
        for table in vo.multiproofs:
            rows = rows_of(table)
            wanted = set()
            for row in rows:
                pos = row.position if row.is_entry else 0
                while pos:
                    wanted.add(pos)
                    pos = (pos - 1) // table.arity
            assert {row.position for row in rows} == wanted
        assert any(
            not row.is_entry for table in vo.multiproofs for row in rows_of(table)
        )

    def test_identical_results_and_shrink_vs_v2(self, v3_system, star_system):
        """Against one membership proof per entry (what a VO of rounds
        shipped, at least once per entry): at least twice smaller."""
        a3 = answer_for(v3_system)
        star = answer_for(star_system)
        assert a3.result_ids == star.result_ids
        vb = v3_system.value_bytes
        assert a3.vo.byte_size() * 2 <= per_entry_bytes(a3.vo, vb)
        assert star.vo.byte_size() * 2 <= per_entry_bytes(star.vo, vb)

    @pytest.mark.parametrize("text", [DNF, SPARSE, SCAN, "rare", "hot AND ghost"])
    def test_never_larger_than_the_per_entry_form(self, v3_system, text):
        """No size gate: the table ships each node once, the per-entry
        form at least once (and the entry's own commitment twice)."""
        vo = answer_for(v3_system, text).vo
        framing = vo.byte_size() - sum(t.byte_size() for t in vo.multiproofs)
        assert vo.byte_size() <= framing + per_entry_bytes(vo, v3_system.value_bytes)

    def test_both_versions_verify(self, v3_system, star_system):
        for system in (v3_system, star_system):
            assert reverify(system, answer_for(system)).ids == {
                i for i in range(40) if i % 2 == 0 or i % 3 == 0
            }

    def test_bloom_skip_rounds_compress_and_verify(self, v3_system, star_system):
        """Where the filters exclude a target the walk skips the probe —
        on both sides — and the probed tree's table is the thinner for
        it."""
        answer = answer_for(star_system, SPARSE)
        plain = answer_for(v3_system, SPARSE)
        assert len(answer.vo.multiproofs) == 2

        def entries(vo, keyword):
            base = vo.conjuncts[0].base
            table = vo.multiproofs[base.runs[base.trees.index(keyword)]]
            return len(table.leaves)

        assert entries(answer.vo, "rare") < entries(plain.vo, "rare") or entries(
            answer.vo, "hot"
        ) != entries(plain.vo, "hot")
        assert reverify(star_system, answer, SPARSE).ids == {0, 13, 26, 39}

    def test_proofs_without_a_tree_stay_per_entry(self, v3_system):
        """A finished VO (say, one decoded from the wire) has no located
        run left and passes through the prove step untouched."""
        codec = VOCodec(value_bytes=v3_system.value_bytes)
        finished = codec.decode(codec.encode(answer_for(v3_system).vo))
        assert compress_query_vo(finished) is finished


class TestRoundTrip:
    @pytest.mark.parametrize("text", [DNF, SPARSE, SCAN])
    def test_v4_decode_encode_identity(self, v3_system, text):
        codec = VOCodec(value_bytes=v3_system.value_bytes)
        vo = answer_for(v3_system, text).vo
        payload = codec.encode(vo)
        assert payload[0] == 0xF6
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
        codec = VOCodec(value_bytes=system.value_bytes)
        vo = answer_for(system, text).vo
        assert vo.byte_size() == len(codec.encode(vo))

    def test_table_and_ref_byte_sizes_match_their_wire_delta(self, v3_system):
        """Dropping one row, or one table, moves the frame by exactly
        what ``byte_size`` says."""
        vb = v3_system.value_bytes
        codec = VOCodec(value_bytes=vb)
        vo = answer_for(v3_system, SCAN).vo
        table = vo.multiproofs[0]
        rows = rows_of(table)
        assert all(row.is_entry for row in rows)  # a scan reads every node
        shorter = table_of(rows[:-1], table)
        last = 1 + 1 + 8 + 32 + 3 * vb  # position + flag, id + hash, c, pi, rho
        assert table.byte_size() - shorter.byte_size() == last
        # One kind tag per table on top of the table body.
        framed = len(codec.encode(vo))
        bare = len(codec.encode(dataclasses.replace(vo, multiproofs=())))
        assert framed - bare == 1 + table.byte_size()
        # A node row is a position, a flag and two elements.
        sparse = answer_for(v3_system, SPARSE).vo.multiproofs
        nodes = [r for t in sparse for r in rows_of(t) if not r.is_entry]
        assert nodes
        thinner = table_of([r for r in rows_of(sparse[1]) if r.is_entry], sparse[1])
        dropped = sum(1 for r in rows_of(sparse[1]) if not r.is_entry)
        assert sparse[1].byte_size() - thinner.byte_size() == dropped * (2 + 2 * vb)


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
            row.commitment
            for row in rows_of(answer_for(v3_system, SCAN).vo.multiproofs[0])
        } | {warm_root}
        assert spy.verify == []
        assert len(spy.batches) == 1  # the warm scan had nothing to settle
        assert not [opening for opening in spy.batched if opening[0] in warm]

    def test_join_shares_ancestors_within_one_query(self, v3_system, spy):
        """Every row owes its link once and every entry row its slot 1
        once — however many probes read it, and although one table is
        named by two conjuncts — with or without the LRU; the whole DNF
        query settles as one batch."""
        answer = answer_for(v3_system, DNF)
        query = KeywordQuery.parse(DNF)
        ps = v3_system.chain_proof_system(query.all_keywords())
        ps.cache = None
        verify_query(query, answer, ps)
        links = sum(table.count for table in answer.vo.multiproofs)
        slot1 = sum(len(table.leaves) for table in answer.vo.multiproofs)
        occurrences = sum(1 for _ in iter_proven_entries(answer.vo))
        assert occurrences > slot1  # "hot" is read by both conjuncts
        assert spy.verify == []
        assert [len(batch) for batch in spy.batches] == [links + slot1]
        assert len(set(spy.batched)) == links + slot1

    def test_legacy_entries_share_the_same_opening_keys(self, v3_system, spy):
        """Opening a keyword's scan table and reading it whole settles
        exactly the openings a query's rows ask for: one spelling of an
        opening, whoever presents it."""
        (table,) = answer_for(v3_system, SCAN).vo.multiproofs
        ps = v3_system.chain_proof_system(frozenset((SCAN,)))
        v3_system.verify_cache.clear()
        ps.attach_multiproofs((table,))
        with ps.settling():
            ps.proven_run(SCAN, 0).scan()
        assert [len(batch) for batch in spy.batches] == [2 * table.count]
        spy.clear()
        assert v3_system.query(SCAN).verified
        assert v3_system.query("warm AND cool").verified
        warm = {row.commitment for row in rows_of(table)}
        assert not [opening for opening in spy.batched if opening[0] in warm]
        assert spy.verify == []

    def test_tampered_link_next_to_a_cached_one_misses_and_fails(
        self, v3_system, spy
    ):
        assert v3_system.query(SCAN).verified  # everything cached
        answer = answer_for(v3_system, SCAN)
        table = answer.vo.multiproofs[0]
        victim = rows_of(table)[table.count // 2]
        bad_link = victim.link_proof ^ 1
        answer.vo = forged(answer.vo, 0, {victim.position: link(lambda p: p ^ 1)})
        spy.clear()
        hits = v3_system.verify_cache.hits
        size = len(v3_system.verify_cache)
        with pytest.raises(VerificationError):
            reverify(v3_system, answer, SCAN)
        # The forged opening differs from its cached twin in one bit of
        # one component: it alone was owed, failed, and was not stored.
        assert [opening[3] for opening in spy.batched] == [bad_link]
        assert {opening[3] for opening in spy.verify} == {bad_link}
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
        flip = link(lambda p: p ^ 1)
        answer.vo = forged(answer.vo, 0, {4: flip, 12: flip})
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


def deep_entry(table):
    """An entry row with an ancestor row below the root."""
    for row in rows_of(table):
        if row.is_entry and row.position > table.arity:
            return row
    pytest.skip("no entry below the first level")


def with_runs(vo, runs):
    conj = vo.conjuncts[0]
    forged_conj = dataclasses.replace(
        conj, base=dataclasses.replace(conj.base, runs=runs)
    )
    return dataclasses.replace(vo, conjuncts=(forged_conj,))


class TestFailClosed:
    """Every tamper vector must raise, never mis-verify."""

    def test_dropped_ancestor(self, v3_system):
        answer = answer_for(v3_system, SPARSE)
        table = answer.vo.multiproofs[1]
        victim = deep_entry(table)
        parent = (victim.position - 1) // table.arity
        answer.vo = forged(answer.vo, 1, {parent: lambda _: None})
        with pytest.raises(VerificationError, match="lacks the parent"):
            reverify(v3_system, answer, SPARSE)

    def test_duplicated_position_with_conflicting_commitment(self, v3_system):
        answer = answer_for(v3_system, SPARSE)
        table = answer.vo.multiproofs[0]
        rows = rows_of(table)
        twin = dataclasses.replace(rows[0], commitment=rows[0].commitment + 1)
        for mutant in (
            [twin] + rows,  # the forged row shadows the honest one
            rows[:1] + [twin] + rows[1:],
        ):
            answer.vo = with_table(answer.vo, 0, table_of(mutant, table))
            with pytest.raises(VerificationError, match="strictly ascending"):
                reverify(v3_system, answer, SPARSE)

    def test_node_spliced_from_another_keywords_tree(self, v3_system):
        answer = answer_for(v3_system, SPARSE)
        victim_table, donor_table = answer.vo.multiproofs[:2]
        donor = {row.position: row for row in rows_of(donor_table)}
        victim = rows_of(victim_table)[0]
        spliced = dataclasses.replace(
            victim,
            commitment=donor[victim.position].commitment,
            link_proof=donor[victim.position].link_proof,
        )
        assert spliced != victim
        answer.vo = forged(answer.vo, 0, {victim.position: lambda _: spliced})
        with pytest.raises(VerificationError):
            reverify(v3_system, answer, SPARSE)

    def test_ref_repointed_to_a_sibling_position(self, v3_system):
        """An entry row presented one position over: under arity 2 its
        sibling or its cousin — the wrong child slot of a parent, or the
        wrong parent."""
        answer = answer_for(v3_system, SCAN)
        table = answer.vo.multiproofs[0]
        rows = rows_of(table)
        last = rows[-1]
        assert (last.position + 1 - 1) // table.arity in {r.position for r in rows}
        answer.vo = forged(
            answer.vo, 0, {last.position: change(position=last.position + 1)}
        )
        query = KeywordQuery.parse(SCAN)
        ps = v3_system.chain_proof_system(query.all_keywords())
        commitment, count = ps.digests[SCAN]
        ps.digests[SCAN] = (commitment, count + 1)  # not "beyond cnt": misplaced
        with pytest.raises(VerificationError):
            verify_query(query, answer, ps)

    def test_ref_repointed_to_another_trees_table(self, v3_system):
        answer = answer_for(v3_system, SPARSE)
        assert answer.vo.conjuncts[0].base.runs == (0, 1)
        answer.vo = with_runs(answer.vo, (1, 0))
        with pytest.raises(VerificationError):
            reverify(v3_system, answer, SPARSE)
        answer.vo = with_runs(answer.vo, (0, 0))
        with pytest.raises(VerificationError, match="different tree"):
            reverify(v3_system, answer, SPARSE)

    def test_ref_out_of_range(self, v3_system):
        answer = answer_for(v3_system, SPARSE)
        answer.vo = with_runs(answer.vo, (0, 99))
        with pytest.raises(VerificationError, match="out of range"):
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
        with pytest.raises(VerificationError, match="full scan"):
            reverify(system, stale, SCAN)

    def test_reordered_table(self, v3_system):
        answer = answer_for(v3_system, SPARSE)
        table = answer.vo.multiproofs[0]
        rows = rows_of(table)
        answer.vo = with_table(answer.vo, 0, table_of(rows[1:] + rows[:1], table))
        with pytest.raises(VerificationError):
            reverify(v3_system, answer, SPARSE)
        codec = VOCodec(value_bytes=v3_system.value_bytes)
        with pytest.raises(ReproError):
            codec.decode(codec.encode(answer.vo))

    def test_wrong_arity(self, v3_system):
        answer = answer_for(v3_system, SPARSE)
        answer.vo = with_table(
            answer.vo, 0, dataclasses.replace(answer.vo.multiproofs[0], arity=3)
        )
        with pytest.raises(VerificationError):
            reverify(v3_system, answer, SPARSE)
        # Even where arity 3 happens to leave the rows parent-closed.
        one = v3_system.sp_index.trees["rare"].multiproof((1,))
        ps = v3_system.chain_proof_system(frozenset(("rare",)))
        ps.attach_multiproofs((dataclasses.replace(one, arity=3),))
        with pytest.raises(VerificationError, match="not the scheme's"):
            with ps.settling():
                ps.proven_run("rare", 0)

    def test_tampered_slot1_opening(self, v3_system):
        answer = answer_for(v3_system, SPARSE)
        victim = next(r for r in rows_of(answer.vo.multiproofs[0]) if r.is_entry)
        answer.vo = forged(
            answer.vo,
            0,
            {victim.position: change(slot1_proof=victim.slot1_proof ^ 1)},
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
        with pytest.raises(VerificationError, match="another kind"):
            verify_query(query, answer, ps)


class TestFrameRobustness:
    def test_v2_pin_refuses_the_table(self, v3_system):
        """There is one frame, so nothing to pin; what a codec can refuse
        is a table of another element width than its own."""
        with pytest.raises(TypeError):
            VOCodec(value_bytes=v3_system.value_bytes, version=2)
        with pytest.raises(ReproError, match="-byte elements"):
            VOCodec(value_bytes=128).encode(answer_for(v3_system).vo)

    def test_v4_pin_carries_a_legacy_vo(self, v3_system):
        """The width is not on the wire: read at another one, the same
        bytes are a malformed frame or rows that authenticate nothing."""
        vb = v3_system.value_bytes
        answer = answer_for(v3_system, SPARSE)
        payload = VOCodec(value_bytes=vb).encode(answer.vo)
        for width in (32, 48, 128):
            try:
                answer.vo = VOCodec(value_bytes=width).decode(payload)
            except ReproError:
                continue
            with pytest.raises(VerificationError):
                reverify(v3_system, answer, SPARSE)

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

        def row(position, flag=1):
            entry = (position + 10).to_bytes(8, "big") + bytes(32)
            return (
                bytes([position, flag])
                + (entry if flag else b"")
                + element * (3 if flag else 2)
            )

        def frame(arity, rows, tail=b"\x00"):
            return bytes([0xF6, 1, 1, arity, len(rows)]) + b"".join(rows) + tail

        table = codec.decode(frame(2, [row(1, 0), row(3)])).multiproofs[0]
        assert (table.arity, table.count, table.leaves) == (2, 2, [(13, bytes(32))])
        for bad in (
            frame(2, [row(3), row(1)]),  # unsorted
            frame(2, [row(1), row(1)]),  # duplicate
            frame(2, [row(0), row(1)]),  # the root is never a row
            frame(2, [row(1), row(5)]),  # 5's parent (2) is absent
            frame(2, [row(1), row(3, 0)]),  # a node row that hangs nothing
            frame(2, [row(1, 2)]),  # no such flag
            frame(0, [row(1)]),  # no such arity
            frame(2, [row(1), row(3)[:-1]]),  # a row cut short
            bytes([0xF6, 1, 2, 2, 0, 0]),  # unknown table kind
            bytes([0xF6, 1, 1, 2, 0xFF, 0xFF, 0x03]) + b"\x00",  # oversize
        ):
            with pytest.raises(ReproError):
                codec.decode(bad)

    def test_ref_to_an_absent_node_is_rejected_by_the_decoder(self, v3_system):
        """A conjunct naming a table the frame does not hold."""
        codec = VOCodec(value_bytes=v3_system.value_bytes)
        vo = answer_for(v3_system, SCAN).vo
        payload = codec.encode(with_runs(vo, (len(vo.multiproofs),)))
        with pytest.raises(ReproError, match="names table"):
            codec.decode(payload)
        with pytest.raises(ReproError, match="lacks"):
            list(iter_proven_entries(with_runs(vo, (5,))))
