"""Client-side result verification (Algorithm 6 and its MB-tree twin).

Given the SP's ``VO_sp`` and the authenticated digests ``VO_chain`` read
from the blockchain, the client re-derives the result set and checks:

* **soundness** — every table verifies against the on-chain digest of
  its keyword tree, and every returned object hashes to its proven
  digest (so it originated from the DO, unmodified);
* **completeness** — the join is *replayed*.

A conjunct's VO (:class:`~repro.core.query.vo.ReplayVO`) holds no
account of the SP's walk, only the tables of proven entries per tree:
the proof system authenticates each table against the on-chain digest
and opens it as a view, and :func:`verify_replayed` calls the very
:func:`~repro.core.query.join.conjunctive_join` the SP called.  The
result set is what that call returns.  Each probe is answered by the
view from authenticated entries that it checks to be adjacent (or first
/ last in the tree), so the boundaries are the true ones whatever the SP
intended; which tree is probed when, where the walk goes next and when
it ends are computed here, not read — a wrong probe tree, reordered,
dropped or trailing rounds, an unjustified Bloom skip and an early end
have no representation.  This module therefore contains no walk and no
per-probe check of its own.

The scheme-specific crypto lives behind the :class:`ProofSystem`
protocol: the Merkle family folds multiproofs to on-chain roots, the
Chameleon family authenticates node tables under on-chain ``<c_0, cnt>``
(settling their CVC openings as one batch when the scope is left).
Every check failure raises :class:`~repro.errors.VerificationError`
naming the violated criterion; no check is an ``assert``.
"""

from __future__ import annotations

from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from repro.core.objects import DataObject
from repro.core.query.join import conjunctive_join, rule_plan
from repro.core.query.parser import KeywordQuery
from repro.core.query.vo import ConjunctiveVO, QueryAnswer, ReplayVO
from repro.crypto.hashing import digests_equal
from repro.errors import VerificationError

if TYPE_CHECKING:
    from repro.core.multiproof import ProvenRun


class ProofSystem(Protocol):
    """Scheme-specific verification bound to ``VO_chain``."""

    value_bytes: int

    def attach_multiproofs(self, multiproofs: tuple) -> None:
        """Bind the query's proof tables (per-query state)."""
        ...

    def settling(self) -> AbstractContextManager[None]:
        """The scope in which tables are opened and the join replayed.

        A proof system may authenticate a table from structure alone and
        owe the expensive part of the check; leaving the scope normally
        pays what is owed — and requires every table used and every
        proven entry read — and raises if any of it does not hold.
        Nothing concluded inside counts before that.
        """
        ...

    def proven_run(self, keyword: str, table: int | None) -> ProvenRun:
        """One tree of a conjunct as the replayed join reads it.

        ``table`` indexes the attached tables (``None``: the SP says the
        walk read nothing from this tree).  The view answers from
        authenticated entries only and raises when they do not show what
        a probe asks for.  Only inside :meth:`settling`.
        """
        ...

    def keyword_empty(self, keyword: str) -> bool:
        """Does ``VO_chain`` show this keyword's tree as empty?"""
        ...

    def chain_digest_bytes(self) -> int:
        """Size of the ``VO_chain`` this system was built from."""
        ...


@dataclass
class VerifiedResults:
    """Outcome of a successful verification."""

    ids: set[int]
    hashes: dict[int, bytes] = field(default_factory=dict)


def _check(condition: bool, reason: str) -> None:
    if not condition:
        raise VerificationError(reason)


def verify_replayed(
    conj: frozenset[str], vo: ReplayVO, ps: ProofSystem
) -> VerifiedResults:
    """Re-run a join or scan over its authenticated tables.

    ``ps.proven_run`` authenticates each named table against the
    keyword's on-chain digest and hands back a
    :class:`~repro.core.multiproof.ProvenRun` of its entries; the join
    routine does the rest, and a probe the entries cannot answer raises
    from inside it.  Only the order of the trees is the SP's to choose:
    the plan must be :func:`~repro.core.query.join.rule_plan`'s for the
    opened trees.
    """
    _check(
        len(vo.trees) == len(conj)
        and set(vo.trees) == conj
        and len(vo.runs) == len(vo.trees),
        "replayed join is not over exactly the conjunction's keywords",
    )
    list(vo.tables())  # a run the SP never proved is refused, not opened
    views = [ps.proven_run(tree, run) for tree, run in zip(vo.trees, vo.runs)]
    _check(
        vo.plan == rule_plan(views),
        "replayed join names a plan that is not the rule's for its trees",
    )
    ids, _ = conjunctive_join(views, order="given")
    return VerifiedResults(ids=set(ids), hashes=views[0].object_hashes(ids))


def verify_conjunct(
    conj: frozenset[str], vo: ConjunctiveVO, ps: ProofSystem
) -> VerifiedResults:
    """Verify one conjunctive component's VO; returns its result IDs.

    Inside ``ps.settling()``: the IDs are final once that scope has been
    left (:func:`verify_query` does both).
    """
    _check(
        set(vo.keywords) == conj,
        "VO keywords do not match the query conjunction",
    )
    if vo.empty_keyword is not None:
        _check(
            vo.empty_keyword in conj,
            "claimed-empty keyword is not part of the conjunction",
        )
        _check(
            ps.keyword_empty(vo.empty_keyword),
            "keyword claimed empty but VO_chain shows objects",
        )
        return VerifiedResults(ids=set())
    if not isinstance(vo.base, ReplayVO):
        raise VerificationError(
            "VO carries neither emptiness nor tables to replay the join over"
        )
    return verify_replayed(conj, vo.base, ps)


def verify_query(
    query: KeywordQuery, answer: QueryAnswer, ps: ProofSystem
) -> VerifiedResults:
    """Verify a full DNF query answer end to end.

    Checks every conjunctive component inside one ``ps.settling()``
    scope — so whatever the proof system deferred is settled, for the
    whole query at once, before anything is concluded — then unions the
    verified IDs, matches them against the SP's claimed results, and
    authenticates every returned object against its proven digest and
    the query condition.  The answer's ``result_ids`` must be the
    verified set, strictly ascending, and ``objects`` must hold exactly
    one object per result: nothing the checks below did not cover
    reaches the caller.
    """
    _check(
        len(answer.vo.conjuncts) == len(query.conjunctions),
        "VO component count does not match the query's DNF",
    )
    ps.attach_multiproofs(answer.vo.multiproofs)
    union = VerifiedResults(ids=set())
    with ps.settling():
        for conj, conj_vo in zip(query.conjunctions, answer.vo.conjuncts):
            partial = verify_conjunct(conj, conj_vo, ps)
            union.ids |= partial.ids
            union.hashes.update(partial.hashes)
    _check(
        list(answer.result_ids) == sorted(union.ids),
        "SP's claimed result list is not the verified result set, ascending",
    )
    _check(
        len(answer.objects) == len(union.ids),
        "response does not carry exactly one object per result",
    )
    # Each returned object is hashed over the bytes it arrived as (an
    # object built by ``DataObject.from_wire`` keeps them as its
    # encoding), and its keywords were read from those same bytes
    # without re-normalising them.  The order below is what makes that
    # sound: ``h(o)`` is injective in the encoding, so bytes that hash to
    # the proven digest are the data owner's canonical encoding — whose
    # keywords are normalised and distinct — before the keywords are
    # consulted.  The messages are built only on failure: this loop runs
    # once per result.
    for object_id in union.ids:
        obj = answer.objects.get(object_id)
        if not isinstance(obj, DataObject):
            raise VerificationError(f"result object {object_id} not returned")
        if obj.object_id != object_id:
            raise VerificationError("returned object carries a different ID")
        if not digests_equal(obj.digest(), union.hashes[object_id]):
            raise VerificationError(
                f"object {object_id} does not hash to its proven digest"
            )
        if not query.matches(obj.keyword_set()):
            raise VerificationError(
                f"object {object_id} does not satisfy the query condition"
            )
    return union
