"""Adversarial tests for the Chameleon family (Section VI, Theorem 2).

A Chameleon answer is its node tables: the client authenticates every
node under the on-chain ``<c_0, cnt>`` — one opening of its whole vector
each — and replays the join over the read rows, so what is left to
forge is the nodes — a field, an opening, a position, which rows are
there and which children are shipped — the order of the trees, the plan
and the claimed results.  :func:`table_attacks` plays each of those; the
classes below keep the names the attacks had while the SP still shipped
its walk as rounds, and later while an entry carried a slot-1 and a link
opening, each now in its table form.

No opening is checked on its own: a query's statements settle as one
``vc.verify_batch`` (DESIGN.md §6.1).
:class:`TestBatchedOpenings` attacks that step — forgeries built to
cancel each other, signs, the cache — and :class:`TestEveryPathSettles`
shows that no caller can use a verdict the batch has not confirmed;
:func:`refuse_all` repeats every forgery cold, warm, under ``python -O``
and with the fast path off.
"""

import dataclasses
import math
import pathlib
import subprocess
import sys

import pytest

from repro import DataObject, HybridStorageSystem, KeywordQuery
from repro.core.mbtree import entry_digest
from repro.core.query.codec import VOCodec
from repro.core.query.verify import verify_query
from repro.core.query.vo import ConjunctiveVO, QueryVO, ReplayVO
from repro.crypto import vc
from repro.errors import ReproError, VerificationError
from repro.sp.protocol import RemoteClient, StorageProviderServer
from tests.node_tables import (
    change,
    demote,
    forge,
    root_of,
    rows_of,
    table_of,
    with_table,
)
from tests.reference_arithmetic import builtin_pow, per_opening_batches


@pytest.fixture(scope="module")
def ci_system():
    sys_ = HybridStorageSystem(scheme="ci", cvc_modulus_bits=512, seed=5)
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
    """covid-19 = {1, 2, 4, 5, 7, 8, 10, 12} (positions 1-8), symptom =
    {4, 6, 9, 11}, vaccine = {4, 5, 8}, sars-cov-2 = {1}."""
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


def table_index(answer, keyword):
    base = answer.vo.conjuncts[0].base
    return base.runs[base.trees.index(keyword)]


def forge_rows(answer, keyword, edits):
    """Rewrite rows of the keyword's table, by position."""
    index = table_index(answer, keyword)
    with_table(answer, index, forge(answer.vo.multiproofs[index], edits))
    return answer


def reprove(system, answer, keyword, positions):
    """Swap the keyword's table for an honest one over other positions."""
    tree = system.sp_index.trees[keyword]
    with_table(
        answer, table_index(answer, keyword), tree.multiproof(tuple(positions))
    )
    return answer


def claim(system, answer, result_ids):
    answer.result_ids = list(result_ids)
    answer.objects = {oid: system.get_object(oid) for oid in result_ids}
    return answer


def with_base(answer, **fields):
    conj = answer.vo.conjuncts[0]
    forged = dataclasses.replace(
        conj, base=dataclasses.replace(conj.base, **fields)
    )
    answer.vo = dataclasses.replace(answer.vo, conjuncts=(forged,))
    return answer


JOIN = "covid-19 AND symptom"
SCAN = "covid-19"
#: Reads covid-19 at positions 1 and 2 only: rows 1 and 2 ship their
#: children (3-6) and the sars-cov-2 table is its one row under a root
#: whose second child would lie beyond ``cnt``.
POINT = "covid-19 AND sars-cov-2"


def stale_opening(system, keyword, position):
    """Node ``position``'s opening from before its last child was hung.

    The data owner's trapdoor undoes the collision that filled the
    node's last filled child slot: what the SP held back then.
    """
    tree = system._do.trees[keyword]
    last = min(position * tree.arity + tree.arity, tree.count)
    aux = tree.cvc.collide(
        tree._commitments[position],
        last - position * tree.arity + 1,
        tree._commitments[last],
        None,
        tree.aux_at(position),
    )
    return tree.cvc.open_vector(aux)


def table_attacks(system):
    """``(name, query, answer, ps)``: an honest answer with one thing wrong.

    The honest join walks symptom (all four entries) against covid-19
    (positions 3-8: keys 4, 5, 7, 8, 10, 12; node rows 1 and 2 above
    them) and finds object 4.
    """

    def join(text=JOIN):
        return honest_answer(system, text)

    query, answer, ps = join()
    yield "tampered hash", query, forge_rows(
        answer, "covid-19", {5: change(object_hash=b"\x13" * 32)}
    ), ps
    query, answer, ps = join()
    yield "tampered ID", query, forge_rows(
        answer, "covid-19", {5: change(object_id=6)}
    ), ps
    query, answer, ps = join()
    yield "tampered opening", query, forge_rows(
        answer, "symptom", {2: lam(lambda opening: opening ^ 1)}
    ), ps
    # The root's opening is what hangs rows 1 and 2 under c_0.
    query, answer, ps = join()
    yield "tampered link", query, forge_rows(
        answer, "covid-19", {0: lam(lambda opening: opening ^ 1)}
    ), ps
    query, answer, ps = join()
    covid = {row.position: row for row in rows_of(
        answer.vo.multiproofs[table_index(answer, "covid-19")]
    )}
    yield "row re-hung at another position", query, forge_rows(
        answer,
        "covid-19",
        {7: lambda _: change(position=7)(covid[8]),
         8: lambda _: change(position=8)(covid[7])},
    ), ps
    query, answer, ps = join()
    yield "dropped boundary row", query, forge_rows(
        answer, "covid-19", {5: lambda _: None}
    ), ps
    query, answer, ps = join()
    yield "truncated tail", query, reprove(
        system, answer, "symptom", (1, 2, 3)
    ), ps
    query, answer, ps = join("symptom")
    yield "hidden scan entry", query, claim(
        system, reprove(system, answer, "symptom", (1, 2, 4)), [4, 6, 11]
    ), ps
    query, answer, ps = join()
    runs = answer.vo.conjuncts[0].base.runs
    yield "other keyword's table", query, with_base(answer, runs=runs[::-1]), ps
    query, answer, ps = join()
    index = table_index(answer, "covid-19")
    table = answer.vo.multiproofs[index]
    with_table(
        answer, index, table_of(rows_of(table) + [change(position=9)(covid[8])], table)
    )
    yield "position beyond cnt", query, answer, ps
    # The walk ends where symptom does; one more symptom entry on the
    # chain and the table no longer shows the tree's last.
    query, answer, ps = join()
    commitment, count = ps.digests["symptom"]
    ps.digests["symptom"] = (commitment, count + 1)
    yield "stale cnt", query, answer, ps
    query, answer, ps = join()
    yield "entry flag flipped", query, forge_rows(
        answer, "covid-19", {3: demote}
    ), ps
    query, answer, ps = join()
    yield "injected result", query, claim(system, answer, [4, 5]), ps
    query, answer, ps = join()
    answer.objects[4] = DataObject(4, ("covid-19", "symptom"), b"FORGED")
    yield "substituted result", query, answer, ps
    query, answer, ps = join()
    yield "dropped result", query, claim(system, answer, []), ps
    query, answer, ps = join()
    answer.vo = QueryVO(
        conjuncts=(
            ConjunctiveVO(
                keywords=answer.vo.conjuncts[0].keywords, empty_keyword="symptom"
            ),
        )
    )
    yield "false empty claim", query, claim(system, answer, []), ps
    query, answer, ps = join()
    yield "unread row", query, reprove(
        system, answer, "covid-19", (1, 3, 4, 5, 6, 7, 8)
    ), ps
    # vaccine = {4, 5, 8} against symptom reads symptom's positions 1-3.
    query, answer, ps = join("symptom AND vaccine")
    index = table_index(answer, "symptom")
    full = system.sp_index.trees["symptom"].multiproof((1, 2, 3, 4))
    with_table(answer, index, forge(full, {4: demote}))
    yield "childless node row", query, answer, ps
    # What the whole-vector openings add: which children a node shows.
    query, answer, ps = join(POINT)
    yield "shipped child swapped with its sibling", query, forge_rows(
        answer,
        "covid-19",
        {1: lambda r: change(shipped={1: r.shipped[2], 2: r.shipped[1]})(r)},
    ), ps
    query, answer, ps = join(POINT)
    covid = {row.position: row for row in rows_of(
        answer.vo.multiproofs[table_index(answer, "covid-19")]
    )}
    yield "row child also flagged as shipped", query, forge_rows(
        answer,
        "covid-19",
        {0: change(shipped={1: covid[1].commitment})},
    ), ps
    query, answer, ps = join(POINT)
    yield "child within cnt neither a row nor shipped", query, forge_rows(
        answer, "covid-19", {1: lambda r: change(shipped={1: r.shipped[1]})(r)}
    ), ps
    query, answer, ps = join(POINT)
    yield "child shipped beyond cnt", query, forge_rows(
        answer,
        "sars-cov-2",
        {0: change(shipped={2: covid[2].commitment})},
    ), ps
    query, answer, ps = join()
    yield "stale opening", query, forge_rows(
        answer, "covid-19", {3: change(opening=stale_opening(system, "covid-19", 3))}
    ), ps
    query, answer, ps = join()
    covid = {row.position: row for row in rows_of(
        answer.vo.multiproofs[table_index(answer, "covid-19")]
    )}
    yield "sibling's opening", query, forge_rows(
        answer, "covid-19", {3: change(opening=covid[4].opening)}
    ), ps
    query, answer, ps = join()
    other_root = root_of(answer.vo.multiproofs[table_index(answer, "symptom")])
    yield "forged root opening", query, forge_rows(
        answer, "covid-19", {0: change(opening=other_root.opening)}
    ), ps
    query, answer, ps = join()
    spare = system.sp_index.trees["vaccine"].multiproof((1,))
    answer.vo = dataclasses.replace(
        answer.vo, multiproofs=answer.vo.multiproofs + (spare,)
    )
    yield "unused table", query, answer, ps
    query, answer, ps = join()
    yield "wrong plan", query, with_base(answer, plan="semijoin"), ps
    query, answer, ps = join()
    conj = answer.vo.conjuncts[0]
    first = conj.base.trees[0]
    answer.vo = dataclasses.replace(
        answer.vo,
        conjuncts=(
            dataclasses.replace(
                conj,
                keywords=(first,),
                base=dataclasses.replace(conj.base, trees=(first, first)),
            ),
        ),
    )
    yield "duplicate trees", KeywordQuery.parse(first), answer, ps


def lam(edit):
    """An edit of a node's opening (the root's at position 0)."""
    return lambda row: change(opening=edit(row.opening))(row)


def forgeries(system):
    """``(name, answer)``: a full scan with one thing wrong each."""
    n = system.chain_proof_system(frozenset()).pp.modulus
    g = 3
    while math.gcd(g, n) != 1:
        g += 2
    flip = lambda proof: proof ^ 1  # noqa: E731
    negate = lambda proof: n - proof  # noqa: E731

    def scan(edits):
        return forge_rows(honest_answer(system, SCAN)[1], SCAN, edits)

    last = system.sp_index.trees[SCAN].count
    yield "bit flip in the first opening", scan({1: lam(flip)})
    yield "bit flip in the last opening", scan({last: lam(flip)})
    yield "bit flip in the root's opening", scan({0: lam(flip)})
    yield "one negated opening", scan({3: lam(negate)})
    yield "three negated openings", scan(
        {0: lam(negate), 2: lam(negate), 5: lam(negate)}
    )
    # Every statement is raised to the one exponent E: any two openings
    # can be made to cancel in an unweighted product.
    yield "a cancelling pair", scan(
        {
            1: lam(lambda proof: proof * g % n),
            6: lam(lambda proof: proof * pow(g, -1, n) % n),
        }
    )
    yield "a commitment replaced in the table", scan(
        {3: lambda r: change(commitment=r.commitment + 1)(r)}
    )
    yield "a commitment negated in the table", scan(
        {3: lambda r: change(commitment=n - r.commitment)(r)}
    )
    yield "an opening for another message", scan(
        {p: change(object_hash=b"\x13" * 32) for p in range(1, last + 1)}
    )
    rows = {
        row.position: row
        for row in rows_of(honest_answer(system, SCAN)[1].vo.multiproofs[0])
    }
    yield "an opening presented under its sibling's slot", scan(
        {
            1: lambda _: change(position=1)(rows[2]),
            2: lambda _: change(position=2)(rows[1]),
        }
    )


def refuse(attacks):
    """Every attack must end in ``VerificationError`` (no ``assert``:
    this also runs under ``python -O``)."""
    for name, query, answer, ps in attacks:
        try:
            verify_query(query, answer, ps)
        except VerificationError:
            if ps._pending is not None:
                raise RuntimeError(f"{name}: openings left pending")
            continue
        raise RuntimeError(f"accepted: {name}")


def refuse_forgeries(system):
    """The forged openings: each fails in the batch, which caches nothing."""
    scan = KeywordQuery.parse(SCAN)
    refuse(
        (name, scan, answer, system.chain_proof_system(scan.all_keywords()))
        for name, answer in forgeries(system)
    )


def refuse_all(system):
    refuse_forgeries(system)
    refuse(table_attacks(system))


def refused(system, name):
    """Play one named table attack; it must be a ``VerificationError``."""
    for attack, query, answer, ps in table_attacks(system):
        if attack == name:
            with pytest.raises(VerificationError):
                verify_query(query, answer, ps)
            return
    raise KeyError(name)


class TestChameleonSoundness:
    def test_forged_entry_hash(self, ci_system):
        refused(ci_system, "tampered hash")

    def test_forged_position_claim(self, ci_system):
        refused(ci_system, "row re-hung at another position")
        refused(ci_system, "position beyond cnt")

    def test_commitment_substitution(self, ci_system):
        query, answer, ps = honest_answer(ci_system, JOIN)
        forge_rows(
            answer, "covid-19", {5: lambda r: change(commitment=r.commitment + 1)(r)}
        )
        with pytest.raises(VerificationError):
            verify_query(query, answer, ps)


class TestTableAttacks:
    """What an SP can still say: each wrong in one way, each refused."""

    @pytest.mark.parametrize(
        "name",
        [
            "tampered ID",
            "tampered opening",
            "tampered link",
            "dropped boundary row",
            "truncated tail",
            "hidden scan entry",
            "entry flag flipped",
            "injected result",
            "substituted result",
            "dropped result",
            "false empty claim",
            "unread row",
            "childless node row",
            "unused table",
            "wrong plan",
            "duplicate trees",
        ],
    )
    def test_refused(self, ci_system, name):
        refused(ci_system, name)

    @pytest.mark.parametrize(
        "name, reason",
        [
            ("shipped child swapped with its sibling", "opening of node 1 "),
            ("row child also flagged as shipped", "ships position 1 and shows"),
            ("child within cnt neither a row nor shipped", "neither a row nor"),
            ("child shipped beyond cnt", "beyond the committed count"),
            ("stale opening", "opening of node 3 "),
            ("sibling's opening", "opening of node 3 "),
            ("forged root opening", "opening of node 0 "),
        ],
    )
    def test_whole_vector_forgeries_are_refused_and_named(
        self, ci_system, name, reason
    ):
        """What one opening per node adds to forge: the children a node
        shows, and the opening itself — each refused for its own reason."""
        ci_system.verify_cache.clear()
        attacks = {a[0]: a[1:] for a in table_attacks(ci_system)}
        with pytest.raises(VerificationError, match=reason):
            verify_query(*attacks[name])

    def test_unread_row_and_unused_table_are_named(self, ci_system):
        attacks = {a[0]: a[1:] for a in table_attacks(ci_system)}
        with pytest.raises(VerificationError, match="no probe reads"):
            verify_query(*attacks["unread row"])
        with pytest.raises(VerificationError, match="used by no conjunct"):
            verify_query(*attacks["unused table"])
        with pytest.raises(VerificationError, match="hangs no entry"):
            verify_query(*attacks["childless node row"])

    def test_refused_warm_as_well(self, ci_system):
        """Every opening of the honest answers cached: same verdicts."""
        for text in (JOIN, SCAN, "symptom", "symptom AND vaccine"):
            ci_system.query(text)
        refuse_all(ci_system)


class TestNodeTableAttacks:
    """A malicious SP rewrites a shared ancestor instead of one entry."""

    def test_honest_answer_is_compressed(self, ci_system):
        query, answer, ps = honest_answer(ci_system, JOIN)
        assert len(answer.vo.multiproofs) == 2
        base = answer.vo.conjuncts[0].base
        assert isinstance(base, ReplayVO) and base.runs == (0, 1)
        covid = rows_of(answer.vo.multiproofs[1])
        assert [(r.position, r.is_entry) for r in covid] == [
            (1, False), (2, False), (3, True), (4, True),
            (5, True), (6, True), (7, True), (8, True),
        ]
        assert verify_query(query, answer, ps).ids == {4}

    def test_commitment_substitution_in_the_table(self, ci_system):
        """One forged node row poisons every row below it — and is
        caught at the first of them."""
        query, answer, ps = honest_answer(ci_system, JOIN)
        forge_rows(
            answer, "covid-19", {1: lambda r: change(commitment=r.commitment + 1)(r)}
        )
        with pytest.raises(VerificationError):
            verify_query(query, answer, ps)

    def test_swapped_sibling_rows(self, ci_system):
        """Positions are the addresses: two honest rows under each
        other's position open the wrong slots of their parent."""
        query, answer, ps = honest_answer(ci_system, JOIN)
        rows = {r.position: r for r in rows_of(answer.vo.multiproofs[1])}
        forge_rows(
            answer,
            "covid-19",
            {1: lambda _: change(position=1)(rows[2]),
             2: lambda _: change(position=2)(rows[1])},
        )
        with pytest.raises(VerificationError):
            verify_query(query, answer, ps)

    def test_table_served_for_the_other_keyword(self, ci_system):
        """Swapping the two trees' tables re-hangs every row under the
        other keyword's root commitment."""
        query, answer, ps = honest_answer(ci_system, JOIN)
        first, second = answer.vo.multiproofs
        answer.vo = dataclasses.replace(answer.vo, multiproofs=(second, first))
        with pytest.raises(VerificationError):
            verify_query(query, answer, ps)
        refused(ci_system, "other keyword's table")

    def test_one_table_cannot_serve_two_keywords(self, ci_system):
        """Rows authenticated under one c_0 are not evidence under another."""
        query, answer, ps = honest_answer(ci_system, JOIN)
        ps.attach_multiproofs(answer.vo.multiproofs)
        trees = answer.vo.conjuncts[0].base.trees
        with pytest.raises(VerificationError, match="different tree"):
            with ps.settling():
                ps.proven_run(trees[0], 0)
                ps.proven_run(trees[1], 0)

    def test_forged_table_does_not_survive_the_wire_either(self, ci_system):
        query, answer, ps = honest_answer(ci_system, JOIN)
        forge_rows(answer, "covid-19", {1: lambda _: None})  # drop a root child
        codec = VOCodec(value_bytes=ci_system.value_bytes)
        with pytest.raises(ReproError, match="lacks the parent"):
            codec.decode(codec.encode(answer.vo))
        with pytest.raises(VerificationError):
            verify_query(query, answer, ps)


class TestBatchedOpenings:
    """Attacks on the settle step of a query's openings."""

    def test_every_forgery_is_refused_cold_and_warm(self, ci_system):
        ci_system.verify_cache.clear()
        refuse_forgeries(ci_system)
        assert len(ci_system.verify_cache) == 0  # failed batches store nothing
        refuse(table_attacks(ci_system))
        ci_system.query(SCAN)
        refuse_all(ci_system)

    def test_every_forgery_is_refused_by_the_reference_arithmetic(
        self, ci_system
    ):
        ci_system.verify_cache.clear()
        with builtin_pow(), per_opening_batches():
            refuse_all(ci_system)
            # ... where two negated openings are refused as well.
            query, answer, ps = honest_answer(ci_system, SCAN)
            n = ps.pp.modulus
            negate = lam(lambda p: n - p)
            forge_rows(answer, SCAN, {1: negate, 4: negate})
            with pytest.raises(VerificationError):
                verify_query(query, answer, ps)

    def test_cancelling_pair_never_slips_through(self, ci_system):
        ci_system.verify_cache.clear()
        query = KeywordQuery.parse(SCAN)
        answer = dict(forgeries(ci_system))["a cancelling pair"]
        for _ in range(30):  # fresh coefficients each time
            ps = ci_system.chain_proof_system(query.all_keywords())
            with pytest.raises(VerificationError):
                verify_query(query, answer, ps)

    @pytest.mark.parametrize("place", ["first", "middle", "last"])
    def test_the_failing_opening_is_the_one_named(self, ci_system, place):
        ci_system.verify_cache.clear()
        query, answer, ps = honest_answer(ci_system, SCAN)
        count = ps.digests[SCAN][1]
        victim = {"first": 1, "middle": count // 2 + 1, "last": count}[place]
        forge_rows(answer, SCAN, {victim: lam(lambda proof: proof ^ 1)})
        with pytest.raises(
            VerificationError,
            match=rf"opening of node {victim} of keyword 'covid-19'",
        ):
            verify_query(query, answer, ps)

    def test_a_failing_link_names_the_first_entry_that_needed_it(
        self, ci_system
    ):
        """What hangs rows 1 and 2 under ``c_0`` is the root's opening:
        forged, it is the root that is named — position 0."""
        ci_system.verify_cache.clear()
        query, answer, ps = honest_answer(ci_system, SCAN)
        forge_rows(answer, SCAN, {0: lam(lambda proof: proof ^ 1)})
        with pytest.raises(
            VerificationError,
            match=r"opening of node 0 of keyword 'covid-19'",
        ):
            verify_query(query, answer, ps)

    def test_nothing_from_a_failed_batch_is_cached(self, ci_system):
        """... not even the honest openings settled with the bad one, and
        the next honest query verifies (and stores) from scratch."""
        ci_system.verify_cache.clear()
        query, answer, ps = honest_answer(ci_system, SCAN)
        n = ps.digests[SCAN][1]
        forge_rows(answer, SCAN, {n: lam(lambda proof: proof ^ 1)})
        with pytest.raises(VerificationError):
            verify_query(query, answer, ps)
        assert len(ci_system.verify_cache) == 0
        # One lookup per node: the root and the n rows.
        assert ci_system.verify_cache.misses == n + 1
        query, answer, ps = honest_answer(ci_system, SCAN)
        assert len(verify_query(query, answer, ps).ids) == n
        assert len(ci_system.verify_cache) == n + 1

    def test_two_sign_flips_pass_the_batch_and_certify_only_true_statements(
        self, ci_system
    ):
        """The one documented difference from per-statement verdicts
        (DESIGN.md §6.1 item 3: ``E`` is odd).  Two negated openings pass;
        what the client concluded — the entries, their hashes, their
        positions — is what the honest answer says, and each negated
        opening is a valid one again once negated back."""
        ci_system.verify_cache.clear()
        query, honest, ps = honest_answer(ci_system, SCAN)
        want = verify_query(query, honest, ps)
        ci_system.verify_cache.clear()
        n = ps.pp.modulus
        query, answer, ps = honest_answer(ci_system, SCAN)
        forge_rows(answer, SCAN, {1: lam(lambda p: n - p), 4: lam(lambda p: n - p)})
        got = verify_query(query, answer, ps)
        assert (got.ids, got.hashes) == (want.ids, want.hashes)
        table = answer.vo.multiproofs[0]
        row = rows_of(table)[0]
        messages = [entry_digest(row.object_id, row.object_hash)] + [
            child.commitment for child in rows_of(table) if child.position in (3, 4)
        ]
        assert not vc.verify_vector(ps.pp, row.commitment, messages, row.opening)
        assert vc.verify_vector(ps.pp, row.commitment, messages, n - row.opening)
        # One of the two alone is refused — unless the cache remembers
        # the pair, and then it certifies the same true statement.
        ci_system.verify_cache.clear()
        query, answer, ps = honest_answer(ci_system, SCAN)
        forge_rows(answer, SCAN, {1: lam(lambda p: n - p)})
        with pytest.raises(VerificationError):
            verify_query(query, answer, ps)


@pytest.fixture()
def flipping_system():
    """A CI system whose SP flips one bit of one opening in every answer."""
    system = HybridStorageSystem(scheme="ci", cvc_modulus_bits=512, seed=5)
    _fill(system)
    honest = system._sp.process_query

    def flipping(query, *held):
        # Answers cold whatever the client holds; the server cuts it short.
        answer = honest(query)
        if answer.vo.multiproofs:
            with_table(
                answer,
                0,
                forge(
                    answer.vo.multiproofs[0], {1: lam(lambda proof: proof ^ 1)}
                ),
            )
        return answer

    system._sp.process_query = flipping
    return system


class TestEveryPathSettles:
    """No result or cache entry comes from a proof system whose
    openings were only recorded."""

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
            flipping_system.query(JOIN)
        assert len(flipping_system.verify_cache) == 0

    def test_remote_client(self, flipping_system):
        server = StorageProviderServer(flipping_system)
        client = RemoteClient(server.handle, flipping_system)
        with pytest.raises(VerificationError):
            client.query(SCAN)
        assert len(flipping_system.verify_cache) == 0

    def test_entries_cannot_be_verified_outside_a_scope(self, ci_system):
        """The guard that makes a forgotten settle loud instead of
        silent: it is not a ``VerificationError`` a caller might expect."""
        query, answer, ps = honest_answer(ci_system, SCAN)
        ps.attach_multiproofs(answer.vo.multiproofs)
        with pytest.raises(ReproError) as caught:
            ps.proven_run(SCAN, 0)
        assert not isinstance(caught.value, VerificationError)
        with pytest.raises(ReproError, match="do not nest"):
            with ps.settling():
                with ps.settling():
                    pass

    def test_no_way_out_of_a_scope_leaves_a_check_behind(self, ci_system):
        ci_system.verify_cache.clear()
        query, answer, ps = honest_answer(ci_system, SCAN)
        stale = dict(ps.digests)
        commitment, count = ps.digests[SCAN]
        ps.digests[SCAN] = (commitment, count - 1)
        # A structural failure mid-table: openings were recorded, none
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
from tests.attacks.test_chameleon_attacks import (
    JOIN, SCAN, _fill, false_bloom_skip, refuse, refuse_all, refuse_forgeries,
    table_attacks,
)
from tests.reference_arithmetic import builtin_pow, per_opening_batches
system = HybridStorageSystem(scheme="ci", cvc_modulus_bits=512, seed=5)
_fill(system)
refuse_forgeries(system)
if len(system.verify_cache):
    raise RuntimeError("a failed batch reached the cache")
refuse(table_attacks(system))
system.query(SCAN)  # an honest answer refused raises
system.query(JOIN)
refuse_all(system)
with builtin_pow(), per_opening_batches():
    refuse_all(system)
starred = HybridStorageSystem(
    scheme="ci*", cvc_modulus_bits=512, seed=5, bloom_capacity=4
)
_fill(starred)
if false_bloom_skip(starred) is not None:
    raise RuntimeError("accepted: false Bloom skip")
print("closed")
"""


def test_forgeries_are_refused_under_python_O():
    """No check on the settle path or in the replay may be an ``assert``."""
    repo = pathlib.Path(__file__).resolve().parents[2]
    result = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT.format(tests_root=str(repo))],
        capture_output=True,
        text=True,
        timeout=600,
        env={"PYTHONPATH": str(repo / "src"), "PATH": ""},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "closed"


class TestChameleonCompleteness:
    def test_stale_count_detected(self, ci_system):
        """An answer over an outdated cnt fails the termination check."""
        refused(ci_system, "stale cnt")
        system = HybridStorageSystem(scheme="ci", cvc_modulus_bits=512, seed=5)
        _fill(system)
        query = KeywordQuery.parse("covid-19 AND vaccine")
        stale = system.process_query(query)
        system.add_object(DataObject(20, ("covid-19", "vaccine"), b"late"))
        fresh_ps = system.chain_proof_system(query.all_keywords())
        with pytest.raises(VerificationError):
            verify_query(query, stale, fresh_ps)

    def test_skipped_boundary_positions(self, ci_system):
        """Boundaries must be positionally adjacent (no hidden results):
        object 4 (position 3) hidden behind its predecessor's row."""
        query, answer, ps = honest_answer(ci_system, JOIN)
        reprove(ci_system, answer, "covid-19", (2, 4, 5, 6, 7, 8))
        claim(ci_system, answer, [])
        with pytest.raises(VerificationError, match="lacks the boundary"):
            verify_query(query, answer, ps)


def false_bloom_skip(system):
    """Play "the filters exclude it" without the filters: the verified
    IDs if the client bought it, ``None`` if it refused.

    Object 4 is in both trees, so covid-19's filters cannot exclude it
    and the honest walk reads that tree; the forged VO lists it unread.
    """
    query, answer, ps = honest_answer(system, JOIN)
    base = answer.vo.conjuncts[0].base
    unread = base.trees.index("covid-19")
    kept = base.runs[1 - unread]
    runs = [None, None]
    runs[1 - unread] = 0
    answer.vo = dataclasses.replace(
        with_base(answer, runs=tuple(runs)).vo,
        multiproofs=(answer.vo.multiproofs[kept],),
    )
    claim(system, answer, [])
    try:
        return verify_query(query, answer, ps).ids
    except VerificationError:
        return None


class TestBloomSkipAttacks:
    def test_false_absence_claim_rejected(self, cis_system):
        """A tree listed unread that the chain's filters do not exclude
        for the target: the client's walk probes it and finds no table."""
        assert false_bloom_skip(cis_system) is None

    def test_false_absence_claim_rejected_under_warm_masks(self, cis_system):
        """The session already holds target 4's mask (an honest query
        derived it): the client still derives nothing from the SP, probes
        covid-19 for 4 and refuses the forged skip."""
        cis_system.query(JOIN)
        masks = cis_system.verify_cache.bloom_masks(
            cis_system.filter_bits, cis_system.bloom_capacity
        )
        if 4 not in masks:
            raise AssertionError("the honest query did not memoise target 4")
        if false_bloom_skip(cis_system) is not None:
            raise AssertionError("a forged skip verified under warm masks")

    def test_queries_verify_with_blooms(self, cis_system):
        """Sanity: honest CI* answers whose walks skip probes pass end to
        end, and the client skipped what the SP skipped."""
        result = cis_system.query(JOIN)
        assert result.result_ids == [4]
        result = cis_system.query("sars-cov-2 AND vaccine")
        assert result.result_ids == []
        # sars-cov-2 = {1}: vaccine's filters exclude 1, so the walk ends
        # on a skip and the vaccine tree is never read.
        answer = cis_system.process_query(
            KeywordQuery.parse("sars-cov-2 AND vaccine")
        )
        base = answer.vo.conjuncts[0].base
        assert base.runs[base.trees.index("vaccine")] is None
