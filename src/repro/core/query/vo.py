"""Verification-object (VO) structures.

The SP answers a query with the results plus ``VO_sp``; the client
combines it with the authenticated digests ``VO_chain`` read from the
blockchain.  These dataclasses are scheme-agnostic: the per-entry
``proof`` slot carries a :class:`~repro.core.mbtree.MerklePath` for the
Merkle-inverted family and a
:class:`~repro.core.chameleon.MembershipProof` for the Chameleon family
— or, once a query's proofs are deduplicated, a :class:`TableRef` into
the VO's shared tables.  A Merkle-family conjunct has no entries at all:
its :class:`ReplayVO` names, per tree, the table of proven leaves the
client re-runs the join over.

Every structure reports its serialised byte size — the paper's "VO size"
metric (Figs. 11–13) — via ``byte_size``; sizes follow the natural wire
encoding (8-byte IDs, 32-byte digests, group elements at the scheme's
value width).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Literal

from repro.errors import ReproError, UnresolvedProofError

#: Width of a CVC group element in bytes for default accounting; the
#: schemes override it with their actual modulus size.
DEFAULT_VALUE_BYTES = 128


def _proof_size(proof: object, value_bytes: int) -> int:
    """Size of a scheme proof object."""
    if proof is None:
        return 0
    byte_size = getattr(proof, "byte_size", None)
    if byte_size is None:
        raise TypeError(f"proof {type(proof)!r} lacks byte_size()")
    try:
        return byte_size(value_bytes)
    except TypeError:
        return byte_size()


def varint_size(value: int) -> int:
    """Bytes of the codec's LEB128 varint encoding."""
    size = 1
    while value >= 0x80:
        value >>= 7
        size += 1
    return size


class TableRef:
    """A proof slot that points into :attr:`QueryVO.multiproofs`.

    The per-entry half of a deduplicated proof: the shared part lives in
    the VO's table, whose single verification is memoised on the proof
    system, so such entries are checked in the verifying thread rather
    than fanned out.  Subclasses name the codec ``frame_version`` that
    can carry them.
    """

    frame_version: int


@dataclass(frozen=True, eq=True)
class LeafRef(TableRef):
    """A proof slot pointing into the VO's multiproof table.

    ``proof_index`` selects the
    :class:`~repro.core.multiproof.TreeMultiproof` in
    :attr:`QueryVO.multiproofs`; ``ordinal`` is the leaf's rank in that
    proof's DFS (= ascending key) leaf order.  Written by v3 frames
    only, which still decode and verify; in a v5 frame the conjunct
    names the table and no entry is written (:class:`ReplayVO`).
    """

    proof_index: int
    ordinal: int

    #: The codec frame that can carry this proof.
    frame_version = 3

    def byte_size(self) -> int:
        """Serialised size in bytes: the two varints.

        The presence and proof-tag bytes belong to the entry framing
        (:meth:`ProvenEntry.byte_size` counts them), matching the
        convention of the other proof types.
        """
        return varint_size(self.proof_index) + varint_size(self.ordinal)


def _slot_size(entry: "ProvenEntry | None", value_bytes: int) -> int:
    """Wire size of an optional-entry slot (1 presence byte when absent)."""
    return 1 if entry is None else entry.byte_size(value_bytes)


@dataclass(frozen=True)
class ProvenEntry:
    """A ``<id, h(o)>`` entry together with its authenticity proof."""

    object_id: int
    object_hash: bytes
    proof: object

    def byte_size(self, value_bytes: int = DEFAULT_VALUE_BYTES) -> int:
        """Exact wire size, including the presence and proof-tag bytes.

        A LeafRef-proofed entry (v3 frames only) omits the inline
        ``id + hash`` — the multiproof leaf table carries them — so it
        costs just the presence/tag bytes plus two varints.
        """
        proof = self.proof
        if proof is not None and hasattr(proof, "proof_index"):
            return 2 + _proof_size(proof, value_bytes)
        return 1 + 8 + 32 + 1 + _proof_size(proof, value_bytes)


@dataclass(frozen=True)
class JoinRound:
    """One round of the authenticated join walk.

    ``probe_tree`` indexes the probed tree within the join's tree list.
    ``kind``:

    * ``"probe"`` — the standard round: the probed tree returns the
      boundary entries around the current target (``lower``/``upper``).
      A missing ``upper`` means the probed tree has nothing above the
      target; a missing ``lower`` means the target precedes the probed
      tree's first entry.
    * ``"skip"`` — Chameleon*-only: the probed tree's on-chain Bloom
      filters already prove the target absent, so no boundary proofs
      are shipped; ``next_target`` advances the walk within the
      target's *home* tree (``None`` when the target was its tree's
      last entry, terminating the join).
    """

    kind: Literal["probe", "skip"]
    probe_tree: int = 0
    lower: ProvenEntry | None = None
    upper: ProvenEntry | None = None
    next_target: ProvenEntry | None = None

    def byte_size(self, value_bytes: int = DEFAULT_VALUE_BYTES) -> int:
        """Exact wire size (absent entry slots still cost 1 byte)."""
        total = 2  # kind tag + probe index
        for entry in (self.lower, self.upper, self.next_target):
            total += _slot_size(entry, value_bytes)
        return total


@dataclass(frozen=True)
class MultiWayJoinVO:
    """VO for the k-way cyclic join walk (Section III-B generalised).

    ``trees`` lists the joined keywords in walk order (smallest first
    under the default plan).  The walk starts at ``trees[0]``'s first
    entry; each round probes the next tree in cyclic order (skipping
    the target's home tree), a target confirmed in all ``k-1`` other
    trees is a result, and a probe whose ``upper`` is missing while the
    target fails (or completes its confirmations) terminates the walk.
    With two trees this degenerates to the paper's Fig. 4 walk exactly.
    """

    trees: tuple[str, ...]
    first_target: ProvenEntry
    rounds: tuple[JoinRound, ...]

    def byte_size(self, value_bytes: int = DEFAULT_VALUE_BYTES) -> int:
        """Exact wire size (tree count + names, target, round count)."""
        total = 1 + sum(len(t) + 1 for t in self.trees) + 2
        total += self.first_target.byte_size(value_bytes)
        total += sum(r.byte_size(value_bytes) for r in self.rounds)
        return total


@dataclass(frozen=True)
class FullScanVO:
    """VO for a single-keyword conjunction: the whole posting list.

    Completeness comes from pairwise adjacency of consecutive entries
    plus first/last evidence, checked by the verifier.
    """

    keyword: str
    entries: tuple[ProvenEntry, ...]

    def byte_size(self, value_bytes: int = DEFAULT_VALUE_BYTES) -> int:
        """Exact wire size (keyword length byte + entry count)."""
        return (
            1
            + len(self.keyword)
            + 2
            + sum(e.byte_size(value_bytes) for e in self.entries)
        )


@dataclass(frozen=True)
class SemiJoinProbe:
    """Membership probe of one surviving candidate in a later tree.

    ``bloom_absent`` marks a Chameleon*-style skip: the on-chain filter
    proves absence and no boundary proofs are shipped.
    """

    candidate_id: int
    bloom_absent: bool = False
    lower: ProvenEntry | None = None
    upper: ProvenEntry | None = None

    @property
    def matched(self) -> bool:
        """True when the lower boundary equals the target key."""
        return (
            not self.bloom_absent
            and self.lower is not None
            and self.lower.object_id == self.candidate_id
        )

    def byte_size(self, value_bytes: int = DEFAULT_VALUE_BYTES) -> int:
        """Exact wire size (absent boundary slots still cost 1 byte)."""
        total = 9  # candidate id + flag
        for entry in (self.lower, self.upper):
            total += _slot_size(entry, value_bytes)
        return total


@dataclass(frozen=True)
class SemiJoinStage:
    """All probes of one additional keyword tree (semi-join plan)."""

    keyword: str
    probes: tuple[SemiJoinProbe, ...]

    def byte_size(self, value_bytes: int = DEFAULT_VALUE_BYTES) -> int:
        """Exact wire size (keyword length byte + probe count)."""
        return (
            1
            + len(self.keyword)
            + 2
            + sum(p.byte_size(value_bytes) for p in self.probes)
        )


@dataclass(frozen=True)
class ReplayVO:
    """VO of a join or scan the client re-runs (Merkle family, v5 frames).

    ``trees`` lists the component's keywords in the order the SP walked
    them and ``plan`` names the walk (``"cyclic"`` also covers the
    one-tree scan and every two-tree join).  ``runs[i]`` says where the
    leaves the walk read from ``trees[i]`` are proven: an index into
    :attr:`QueryVO.multiproofs`, or ``None`` when the walk ended before
    it read that tree.  The client folds each table against the
    on-chain root, calls the same
    :func:`~repro.core.query.join.conjunctive_join` over them and takes
    the result from it; the SP sends no account of the walk.

    On the SP, between the join and the prove step, a run is still a
    :class:`~repro.core.multiproof.LocatedRun` (root, keys, live tree).
    Such a VO is unfinished: sizing, encoding or verifying it fails
    closed.
    """

    plan: Literal["cyclic", "semijoin"]
    trees: tuple[str, ...]
    runs: tuple[object, ...]

    #: The codec frame that can carry this base.
    frame_version = 5

    def tables(self) -> Iterator[int]:
        """The table indices named, in tree order; refuses located runs."""
        for tree, run in zip(self.trees, self.runs):
            if run is None:
                continue
            if not isinstance(run, int):
                raise UnresolvedProofError(
                    f"the leaves read from keyword {tree!r} were located "
                    "but never proven; run compress_query_vo / "
                    "expand_query_vo first"
                )
            yield run

    def byte_size(self) -> int:
        """Exact wire size: per tree a keyword index and a table slot."""
        unread = sum(1 for run in self.runs if run is None)
        return 2 * unread + sum(1 + varint_size(t + 1) for t in self.tables())


@dataclass(frozen=True)
class ConjunctiveVO:
    """VO for one conjunctive component ``w_1 ^ ... ^ w_l``.

    Exactly one of the following shapes:

    * ``empty_keyword`` set — some queried keyword has no objects; the
      client confirms against ``VO_chain`` and the component is empty;
    * ``base`` a :class:`FullScanVO` — single-keyword component;
    * ``base`` a :class:`MultiWayJoinVO` over all component keywords —
      the default cyclic plan; ``stages`` is empty;
    * ``base`` a two-tree :class:`MultiWayJoinVO` plus one
      :class:`SemiJoinStage` per remaining keyword — the semi-join plan
      (footnote 3 taken literally), exposed for the plan ablation;
    * ``base`` a :class:`ReplayVO` — the Merkle family: scan or join,
      either plan, replayed by the client; ``stages`` is empty.
    """

    keywords: tuple[str, ...]
    base: MultiWayJoinVO | FullScanVO | ReplayVO | None = None
    stages: tuple[SemiJoinStage, ...] = ()
    empty_keyword: str | None = None

    def byte_size(
        self, value_bytes: int = DEFAULT_VALUE_BYTES, version: int = 2
    ) -> int:
        """Exact wire size in a frame of ``version``."""
        total = sum(len(k) + 1 for k in self.keywords)
        if self.empty_keyword is not None:
            total += len(self.empty_keyword) + 1
        if version >= 5:
            # keyword count + kind tag
            return total + 2 + (
                self.base.byte_size() if self.base is not None else 0
            )
        # keyword count + empty flag + base tag + stage count
        total += 4
        if self.base is not None:
            total += self.base.byte_size(value_bytes)
        total += sum(s.byte_size(value_bytes) for s in self.stages)
        return total


def written_entries(conj: ConjunctiveVO) -> Iterator[ProvenEntry]:
    """The entries a conjunct writes itself, in the codec's write order."""
    base = conj.base
    if isinstance(base, MultiWayJoinVO):
        yield base.first_target
        for rnd in base.rounds:
            for entry in (rnd.lower, rnd.upper, rnd.next_target):
                if entry is not None:
                    yield entry
    elif isinstance(base, FullScanVO):
        yield from base.entries
    for stage in conj.stages:
        for probe in stage.probes:
            for entry in (probe.lower, probe.upper):
                if entry is not None:
                    yield entry


def iter_proven_entries(vo: "QueryVO") -> Iterator[ProvenEntry]:
    """Yield every :class:`ProvenEntry` of a VO, conjunct by conjunct.

    A conjunct with rounds yields the entries it writes, in the codec's
    write order.  A replayed conjunct writes none: it yields the leaves
    of each table it names, in tree then key order, as entries whose
    proof is the :class:`LeafRef` of that leaf (the ``(id, h(o))`` are
    the table's own rows).  A table two conjuncts name is yielded under
    both.
    """
    for conj in vo.conjuncts:
        if not isinstance(conj.base, ReplayVO):
            yield from written_entries(conj)
            continue
        for table in conj.base.tables():
            if not 0 <= table < len(vo.multiproofs):
                raise ReproError(f"conjunct names table {table}, which the VO lacks")
            leaves = vo.multiproofs[table].leaves
            for ordinal, (object_id, object_hash) in enumerate(leaves):
                yield ProvenEntry(
                    object_id, object_hash, LeafRef(table, ordinal)
                )


@dataclass(frozen=True)
class QueryVO:
    """``VO_sp``: the full verification object for a DNF query.

    ``multiproofs`` holds the deduplicated proof tables, one per
    ``(tree, commitment)``: a
    :class:`~repro.core.multiproof.TreeMultiproof` for the Merkle
    family — named whole by the :class:`ReplayVO` conjuncts of a v5
    frame, or leaf by leaf by the :class:`LeafRef` entries of a v3 one —
    and a :class:`~repro.core.chameleon.ChameleonMultiproof` with
    :class:`~repro.core.chameleon.NodeRef` entries for the Chameleon
    family (v4 frames).  Empty for legacy (v2) VOs.
    """

    conjuncts: tuple[ConjunctiveVO, ...]
    multiproofs: tuple = ()

    def byte_size(self, value_bytes: int = DEFAULT_VALUE_BYTES) -> int:
        """Exact wire size under the codec's auto-selected frame version.

        Mirrors :meth:`~repro.core.query.codec.VOCodec.encode`: a
        versioned frame (marker + table section, from v4 on one kind tag
        per table) exactly when :meth:`frame_version` asks for one;
        otherwise the legacy v2 frame (a bare conjunct count).
        """
        version = self.frame_version()
        total = 1 + sum(
            c.byte_size(value_bytes, version) for c in self.conjuncts
        )
        if version >= 3:
            total += 1 + varint_size(len(self.multiproofs))
            total += sum(_proof_size(mp, value_bytes) for mp in self.multiproofs)
        if version == 4:
            total += len(self.multiproofs)  # one kind tag per table
        return total

    def frame_version(self) -> int:
        """The oldest codec frame that can carry this VO.

        2 (the unmarked legacy layout) unless a replayed conjunct, a
        table or a :class:`TableRef` entry asks for more.
        """
        needs = [
            conj.base.frame_version
            for conj in self.conjuncts
            if isinstance(conj.base, ReplayVO)
        ]
        needs += [table.frame_version for table in self.multiproofs]
        if not needs:
            needs = [
                entry.proof.frame_version
                for conj in self.conjuncts
                for entry in written_entries(conj)
                if isinstance(entry.proof, TableRef)
            ]
        return max(needs, default=2)

    def proof_byte_size(self, value_bytes: int = DEFAULT_VALUE_BYTES) -> int:
        """Proof-only bytes: per-entry proofs plus the multiproof table.

        Excludes the structural framing (IDs, hashes, keywords), so the
        ``vo_proof_bytes`` bench metric attributes compression to the
        proofs it actually deduplicates.  The multiproof leaf table's
        40-byte ``id + hash`` rows are excluded for the same reason:
        they relocate the entry bindings a v2 frame carries inline (the
        LeafRef entries drop theirs), so counting them as proof bytes
        would misattribute framing to the proof side.
        """
        total = sum(
            _proof_size(entry.proof, value_bytes)
            for conj in self.conjuncts
            for entry in written_entries(conj)
        )
        total += sum(
            _proof_size(mp, value_bytes) - 40 * len(getattr(mp, "leaves", ()))
            for mp in self.multiproofs
        )
        return total


@dataclass
class QueryAnswer:
    """What the SP returns: result IDs, the raw objects, and ``VO_sp``."""

    result_ids: list[int]
    objects: dict[int, object]  # id -> DataObject
    vo: QueryVO

    def vo_byte_size(self, value_bytes: int = DEFAULT_VALUE_BYTES) -> int:
        """Serialised VO size in bytes."""
        return self.vo.byte_size(value_bytes)


@dataclass
class VOStatistics:
    """Aggregate accounting for experiments (VO size split by origin)."""

    sp_bytes: int = 0
    chain_bytes: int = 0
    extra: dict[str, int] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        """Combined byte count."""
        return self.sp_bytes + self.chain_bytes
