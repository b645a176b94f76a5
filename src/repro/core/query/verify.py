"""Client-side result verification (Algorithm 6 and its MB-tree twin).

Given the SP's ``VO_sp`` and the authenticated digests ``VO_chain`` read
from the blockchain, the client re-derives the result set and checks:

* **soundness** — every claimed entry verifies against the on-chain
  digest of its keyword tree, and every returned object hashes to its
  proven digest (so it originated from the DO, unmodified);
* **completeness** — the join walk is *replayed*.

How the walk is replayed depends on what the VO holds.  A Merkle-family
conjunct (:class:`~repro.core.query.vo.ReplayVO`) holds no account of
the walk at all, only the proven leaves per tree: the proof system folds
each table to the on-chain root and opens it as a view, and
:func:`verify_replayed` calls the very
:func:`~repro.core.query.join.conjunctive_join` the SP called.  The
result set is what that call returns.  Each probe is answered by the
view from authenticated leaves that it checks to be adjacent (or first /
last in the tree), so the boundaries are the true ones whatever the SP
intended; which tree is probed when, where the walk goes next and when
it ends are computed here, not read — a wrong probe tree, reordered,
dropped or trailing rounds and an early end have no representation.

A conjunct with rounds (the Chameleon family, and the Merkle frames of
older SPs) is checked round by round by :func:`verify_multiway`: each
round's probed tree must match the walk's deterministic cyclic schedule,
targets chain from a proven-first entry through probed upper boundaries,
boundary entries are adjacent, and terminal rounds carry last-entry
evidence (the termination-vs-``cnt`` check of Algorithm 6).

The scheme-specific crypto lives behind the :class:`ProofSystem`
protocol: the Merkle family implements it over multiproof tables and
Merkle paths, the Chameleon family over CVC membership proofs plus the
on-chain Bloom filters for the starred variant.  Every check failure
raises :class:`~repro.errors.VerificationError` naming the violated
criterion; no check is an ``assert``.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from typing import Protocol

from repro.core.objects import DataObject
from repro.core.query.join import conjunctive_join
from repro.core.query.parser import KeywordQuery
from repro.core.query.vo import (
    ConjunctiveVO,
    FullScanVO,
    MultiWayJoinVO,
    ProvenEntry,
    QueryAnswer,
    ReplayVO,
    SemiJoinProbe,
)
from repro.crypto.hashing import digests_equal
from repro.errors import VerificationError


class ProofSystem(Protocol):
    """Scheme-specific verification callbacks bound to ``VO_chain``."""

    value_bytes: int

    def settling(self) -> AbstractContextManager[None]:
        """The scope in which entries are verified.

        A proof system may answer :meth:`verify_entry` from structure
        alone and owe the expensive part of the check; leaving the scope
        normally pays what is owed and raises if it does not hold.
        Nothing verified inside counts before that.
        """
        ...

    def verify_entry(self, keyword: str, entry: ProvenEntry) -> None:
        """Authenticate one proven entry; raise on failure.

        Only inside :meth:`settling`.
        """
        ...

    def is_first(self, keyword: str, entry: ProvenEntry) -> bool:
        """Is this entry provably the keyword tree's first?"""
        ...

    def is_last(self, keyword: str, entry: ProvenEntry) -> bool:
        """Is this entry provably the keyword tree's last?"""
        ...

    def adjacent(
        self, keyword: str, lower: ProvenEntry, upper: ProvenEntry
    ) -> bool:
        """Are the two (already verified) entries consecutive?"""
        ...

    def keyword_empty(self, keyword: str) -> bool:
        """Does ``VO_chain`` show this keyword's tree as empty?"""
        ...

    def definitely_absent(self, keyword: str, object_id: int) -> bool:
        """Can the client conclude absence from on-chain filters alone?"""
        ...


@dataclass
class VerifiedResults:
    """Outcome of a successful verification."""

    ids: set[int]
    hashes: dict[int, bytes] = field(default_factory=dict)


def _check(condition: bool, reason: str) -> None:
    if not condition:
        raise VerificationError(reason)


def verify_full_scan(
    conj: frozenset[str], vo: FullScanVO, ps: ProofSystem
) -> VerifiedResults:
    """Single-keyword component: the entire posting list is the result."""
    _check(
        conj == {vo.keyword},
        f"full-scan VO keyword {vo.keyword!r} does not match the query",
    )
    entries = vo.entries
    _check(len(entries) > 0, "full scan of a non-empty keyword returned nothing")
    for entry in entries:
        ps.verify_entry(vo.keyword, entry)
    _check(
        ps.is_first(vo.keyword, entries[0]),
        "full scan does not start at the tree's first entry",
    )
    for prev, nxt in zip(entries, entries[1:]):
        _check(
            prev.object_id < nxt.object_id,
            "full-scan entries are not strictly increasing",
        )
        _check(
            ps.adjacent(vo.keyword, prev, nxt),
            "full scan skips entries (adjacency violated)",
        )
    _check(
        ps.is_last(vo.keyword, entries[-1]),
        "full scan does not end at the tree's last entry",
    )
    return VerifiedResults(
        ids={e.object_id for e in entries},
        hashes={e.object_id: e.object_hash for e in entries},
    )


def verify_multiway(vo: MultiWayJoinVO, ps: ProofSystem) -> VerifiedResults:
    """Replay and verify the k-way cyclic join walk.

    The client recomputes the deterministic walk state — target, home
    tree, confirmation count, cyclic probe offset — and requires every
    round to match the schedule, so the SP cannot silently skip a tree
    or a stretch of the ID space.
    """
    k = len(vo.trees)
    _check(k >= 2, "multiway join needs at least two trees")
    _check(len(set(vo.trees)) == k, "duplicate trees in join VO")
    results = VerifiedResults(ids=set())
    target = vo.first_target
    ps.verify_entry(vo.trees[0], target)
    _check(
        ps.is_first(vo.trees[0], target),
        "join does not start at the first entry of its first tree",
    )
    home = 0
    confirm = 0
    offset = 1
    terminal = False
    for rnd in vo.rounds:
        _check(not terminal, "join rounds continue past the terminal round")
        expected_probe = (home + offset) % k
        _check(
            rnd.probe_tree == expected_probe,
            "round probes the wrong tree (walk schedule violated)",
        )
        probe_kw = vo.trees[rnd.probe_tree]
        home_kw = vo.trees[home]
        if rnd.kind == "skip":
            _check(
                ps.definitely_absent(probe_kw, target.object_id),
                "skip round not justified by the on-chain Bloom filters",
            )
            if rnd.next_target is None:
                _check(
                    ps.is_last(home_kw, target),
                    "skip-terminated join lacks last-entry evidence",
                )
                terminal = True
                continue
            ps.verify_entry(home_kw, rnd.next_target)
            _check(
                ps.adjacent(home_kw, target, rnd.next_target),
                "skip round jumps over entries in the home tree",
            )
            target = rnd.next_target
            confirm = 0
            offset = 1
            continue
        # Standard probe round.
        if rnd.lower is None:
            if rnd.upper is None:
                raise VerificationError(
                    "probe round reports an empty tree mid-join"
                )
            ps.verify_entry(probe_kw, rnd.upper)
            _check(
                ps.is_first(probe_kw, rnd.upper),
                "missing lower boundary without first-entry evidence",
            )
            _check(
                rnd.upper.object_id > target.object_id,
                "upper boundary does not exceed the target",
            )
            target = rnd.upper
            home = rnd.probe_tree
            confirm = 0
            offset = 1
            continue
        ps.verify_entry(probe_kw, rnd.lower)
        _check(
            rnd.lower.object_id <= target.object_id,
            "lower boundary exceeds the target",
        )
        matched = rnd.lower.object_id == target.object_id
        if rnd.upper is not None:
            ps.verify_entry(probe_kw, rnd.upper)
            _check(
                rnd.upper.object_id > target.object_id,
                "upper boundary does not exceed the target",
            )
            _check(
                ps.adjacent(probe_kw, rnd.lower, rnd.upper),
                "boundary entries are not adjacent (results may be missing)",
            )
        else:
            _check(
                ps.is_last(probe_kw, rnd.lower),
                "open-ended probe lacks last-entry evidence",
            )
        if matched:
            confirm += 1
            if confirm == k - 1:
                results.ids.add(target.object_id)
                results.hashes[target.object_id] = rnd.lower.object_hash
                if rnd.upper is None:
                    terminal = True
                    continue
                target = rnd.upper
                home = rnd.probe_tree
                confirm = 0
                offset = 1
            else:
                offset += 1
            continue
        if rnd.upper is None:
            terminal = True
            continue
        target = rnd.upper
        home = rnd.probe_tree
        confirm = 0
        offset = 1
    _check(terminal, "join ended without a terminal round")
    return results


def verify_semi_join_stage(
    keyword: str,
    candidates: set[int],
    candidate_hashes: dict[int, bytes],
    probes: Sequence[SemiJoinProbe],
    ps: ProofSystem,
) -> set[int]:
    """Verify one semi-join stage: every candidate probed, matches kept."""
    probed = {p.candidate_id for p in probes}
    _check(
        probed == candidates,
        f"semi-join stage for {keyword!r} does not probe every candidate",
    )
    _check(len(probes) == len(probed), "duplicate probes in semi-join stage")
    survivors: set[int] = set()
    for probe in probes:
        cid = probe.candidate_id
        if probe.bloom_absent:
            _check(
                ps.definitely_absent(keyword, cid),
                "Bloom-based absence claim not supported by VO_chain",
            )
            continue
        if probe.lower is not None and probe.lower.object_id == cid:
            ps.verify_entry(keyword, probe.lower)
            _check(
                digests_equal(
                    probe.lower.object_hash,
                    candidate_hashes.get(cid, probe.lower.object_hash),
                ),
                "candidate hash mismatch across trees",
            )
            survivors.add(cid)
            continue
        # Absence proof via boundaries.
        if probe.lower is None:
            if probe.upper is None:
                raise VerificationError(
                    "absence probe carries no boundary evidence"
                )
            ps.verify_entry(keyword, probe.upper)
            _check(
                ps.is_first(keyword, probe.upper)
                and probe.upper.object_id > cid,
                "lower-open absence proof invalid",
            )
            continue
        ps.verify_entry(keyword, probe.lower)
        _check(
            probe.lower.object_id < cid,
            "absence proof's lower boundary does not precede the candidate",
        )
        if probe.upper is None:
            _check(
                ps.is_last(keyword, probe.lower),
                "upper-open absence proof lacks last-entry evidence",
            )
            continue
        ps.verify_entry(keyword, probe.upper)
        _check(
            probe.upper.object_id > cid,
            "absence proof's upper boundary does not follow the candidate",
        )
        _check(
            ps.adjacent(keyword, probe.lower, probe.upper),
            "absence proof boundaries are not adjacent",
        )
    return survivors


def verify_replayed(
    conj: frozenset[str], vo: ReplayVO, ps: ProofSystem
) -> VerifiedResults:
    """Re-run a Merkle-family join or scan over its proven leaf runs.

    ``ps.proven_run`` folds each named table to the keyword's on-chain
    root and hands back a :class:`~repro.core.query.join.KeyView` of its
    leaves; the join routine does the rest, and a probe the leaves
    cannot answer raises from inside it.  Only the order of the trees
    and the plan are the SP's to choose.
    """
    open_run = getattr(ps, "proven_run", None)
    if open_run is None:
        raise VerificationError(
            "VO asks for a replayed join but the proof system has no tables"
        )
    _check(
        len(vo.trees) == len(conj)
        and set(vo.trees) == conj
        and len(vo.runs) == len(vo.trees),
        "replayed join is not over exactly the conjunction's keywords",
    )
    _check(
        vo.plan == "cyclic" or (vo.plan == "semijoin" and len(vo.trees) > 2),
        "replayed join names a plan that is not the walk's for its size",
    )
    list(vo.tables())  # a run the SP never proved is refused, not opened
    views = [open_run(tree, run) for tree, run in zip(vo.trees, vo.runs)]
    ids, _ = conjunctive_join(views, order="given", plan=vo.plan)
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
    base = vo.base
    if isinstance(base, ReplayVO):
        _check(not vo.stages, "a replayed join carries no semi-join stages")
        return verify_replayed(conj, base, ps)
    if isinstance(base, FullScanVO):
        _check(not vo.stages, "full scan must not carry semi-join stages")
        return verify_full_scan(conj, base, ps)
    if not isinstance(base, MultiWayJoinVO):
        raise VerificationError(
            "VO carries neither emptiness nor a base this client can check"
        )
    base_trees = set(base.trees)
    _check(
        base_trees <= conj,
        "base join keywords are not part of the conjunction",
    )
    results = verify_multiway(base, ps)
    remaining = set(conj) - base_trees
    if not vo.stages:
        # Either the walk covered every keyword (cyclic plan), or the
        # semi-join plan exited early on an empty intermediate result —
        # in which case the component's result is provably empty.
        _check(
            not remaining or not results.ids,
            "join does not cover every conjunction keyword",
        )
        if remaining:
            return VerifiedResults(ids=set())
        return results
    # Semi-join plan: the base must be the two-tree walk.
    _check(
        len(base.trees) == 2,
        "semi-join stages require a two-tree base join",
    )
    candidates = set(results.ids)
    for stage in vo.stages:
        _check(
            stage.keyword in remaining,
            f"unexpected or repeated semi-join keyword {stage.keyword!r}",
        )
        remaining.discard(stage.keyword)
        candidates = verify_semi_join_stage(
            stage.keyword, candidates, results.hashes, stage.probes, ps
        )
    _check(
        not remaining or not candidates,
        "conjunction keywords left unprobed while candidates remain",
    )
    results.ids = candidates
    results.hashes = {c: results.hashes[c] for c in candidates}
    return results


def verify_query(
    query: KeywordQuery, answer: QueryAnswer, ps: ProofSystem
) -> VerifiedResults:
    """Verify a full DNF query answer end to end.

    Checks every conjunctive component inside one ``ps.settling()``
    scope — so whatever the proof system deferred is settled, for the
    whole query at once, before anything is concluded — then unions the
    verified IDs, matches them against the SP's claimed results, and
    authenticates every returned object against its proven digest and
    the query condition.
    """
    _check(
        len(answer.vo.conjuncts) == len(query.conjunctions),
        "VO component count does not match the query's DNF",
    )
    attach = getattr(ps, "attach_multiproofs", None)
    if attach is not None:
        attach(answer.vo.multiproofs)
    else:
        _check(
            not answer.vo.multiproofs,
            "VO carries multiproofs but the proof system cannot verify them",
        )
    union = VerifiedResults(ids=set())
    with ps.settling():
        for conj, conj_vo in zip(query.conjunctions, answer.vo.conjuncts):
            partial = verify_conjunct(conj, conj_vo, ps)
            union.ids |= partial.ids
            union.hashes.update(partial.hashes)
    _check(
        set(answer.result_ids) == union.ids,
        "SP's claimed result set differs from the verified result set",
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
