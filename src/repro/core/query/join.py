"""Authenticated join processing (Sections III-B and V-C, Algorithm 5).

Each conjunctive component is evaluated as a join over the component
keywords' index trees.  There is one walk, written over *keys*: it asks a
view for its first key and for the pair of keys around a target, and
nothing else.  What differs between the families is who needs an account
of the walk:

* **Chameleon family** — every entry carries its own opening, so the
  walk's rounds *are* the VO.  These views implement :class:`IndexView`
  (``*_proven`` methods returning
  :class:`~repro.core.query.vo.ProvenEntry`); the engine puts a
  :class:`_Transcript` in front of each, which hands the walk the keys
  and keeps the proven entries for the round record, with the
  Chameleon* Bloom-filter optimisation surfacing as ``skip`` rounds.
* **Merkle family** — the client *replays* the join (Algorithm 6): it
  holds, per tree, a proven run of leaves whose adjacency it can check,
  so it can answer every probe of the walk itself.  These views
  implement :class:`KeyView`; the walk leaves no rounds behind, each
  view remembers which keys were read from it
  (:meth:`KeyView.run`), and the conjunct's VO is a
  :class:`~repro.core.query.vo.ReplayVO` naming those runs.  The SP
  calls :func:`conjunctive_join` over its trees
  (:class:`~repro.core.merkle_family.MBTreeView`), the client calls it
  with ``order="given"`` over the authenticated tables
  (:class:`~repro.core.merkle_family.ProvenRun`): same routine, same
  probes, and a probe the tables cannot answer is a
  :class:`~repro.errors.VerificationError` raised by the view.

Two multiway plans are provided:

* **cyclic** (default) — the k-way generalisation of the paper's
  two-tree role-switching walk (Fig. 4): the target cycles through the
  other trees collecting boundary proofs; a target confirmed in all
  ``k-1`` of them is a result; a failed probe advances the target to
  the probed tree's upper boundary.  For ``k = 2`` this is *exactly*
  the paper's walk; its cost grows with the number of query keywords,
  which is the behaviour the paper's Figs. 11–12 measure.
* **semijoin** — footnote 3 taken literally: join the two smallest
  trees, then probe each surviving candidate in every remaining tree.
  Asymptotically cheaper when intersections are small; compared against
  the cyclic plan in the join-plan ablation.

Protocol invariants (cyclic walk):

1. the first target is the first tree's first entry, proven first;
2. every round probes the tree at cyclic offset 1..k-1 from the
   target's *home* tree, in increasing offset order while the target
   accumulates confirmations;
3. a probe returns the boundary entries ``lower <= target < upper``
   (adjacent, or edged with first/last evidence); ``lower == target``
   is a confirmation, and ``k-1`` confirmations make a result;
4. a failed or completed target advances to the probed tree's upper
   boundary (which becomes the new home); a probe with no upper
   terminates the walk — everything beyond the target is provably
   absent from the probed tree;
5. with Bloom filters, a round whose target is provably absent from
   the probed tree skips the boundary proofs and advances the target
   within its home tree instead.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.core.query.vo import (
    ConjunctiveVO,
    FullScanVO,
    JoinRound,
    MultiWayJoinVO,
    ProvenEntry,
    ReplayVO,
    SemiJoinProbe,
    SemiJoinStage,
)
from repro.errors import QueryError


@runtime_checkable
class IndexView(Protocol):
    """One keyword's index tree, every entry handed out with its proof."""

    keyword: str

    def __len__(self) -> int: ...

    def first_proven(self) -> ProvenEntry | None:
        """The smallest entry with proof, or None when empty."""
        ...

    def boundaries_proven(
        self, target: int
    ) -> tuple[ProvenEntry | None, ProvenEntry | None]:
        """``(lower, upper)`` boundary entries around ``target``."""
        ...

    def all_proven(self) -> list[ProvenEntry]:
        """Every entry with proof, in key order (full scans)."""
        ...

    def definitely_absent(self, object_id: int) -> bool:
        """True when an on-chain-replicable filter proves absence.

        Non-Bloom schemes always return False; returning True obliges
        the *client* to reach the same conclusion from ``VO_chain``.
        """
        ...


class KeyView(Protocol):
    """One keyword's index tree as the walk reads it: keys only.

    ``replayed`` marks the flavour for :func:`conjunctive_join`.  A view
    that cannot answer a read raises instead of guessing.
    """

    keyword: str
    replayed: bool

    def __len__(self) -> int:
        """Zero iff the keyword has no entry; otherwise only a sort key."""
        ...

    def first(self) -> int:
        """The smallest key (the view is not empty)."""
        ...

    def boundaries(self, target: int) -> tuple[int | None, int | None]:
        """The largest key ``<= target`` and the smallest ``> target``."""
        ...

    def scan(self) -> list[int]:
        """Every key, ascending (full scans)."""
        ...

    def definitely_absent(self, object_id: int) -> bool:
        """As :meth:`IndexView.definitely_absent`."""
        ...

    def run(self) -> object:
        """Where the leaves read so far are (to be) proven.

        The slot this tree gets in :attr:`ReplayVO.runs`.
        """
        ...


class _Transcript:
    """The key-level face of an :class:`IndexView`, for the one walk.

    Answers the walk with keys and keeps the proven entries of the last
    read, which the walk copies into the round it records.
    """

    __slots__ = ("view", "lower", "upper")

    def __init__(self, view: IndexView) -> None:
        self.view = view
        self.lower: ProvenEntry | None = None
        self.upper: ProvenEntry | None = None

    def boundaries(self, target: int) -> tuple[int | None, int | None]:
        lower, upper = self.view.boundaries_proven(target)
        self.lower = lower
        self.upper = upper
        return (
            None if lower is None else lower.object_id,
            None if upper is None else upper.object_id,
        )

    def definitely_absent(self, object_id: int) -> bool:
        return self.view.definitely_absent(object_id)


def _replayed(view) -> bool:
    """Whether a join over this view (and its like) is a :class:`KeyView` one."""
    return bool(getattr(view, "replayed", False))


def _cyclic_walk(
    views: list, target: int, rounds: list[JoinRound] | None
) -> list[int]:
    """The k-way cyclic walk from ``views[0]``'s first key ``target``.

    ``views`` answer with keys (:class:`KeyView`s or
    :class:`_Transcript`s); returns the matches.  ``rounds``, when
    given, receives one :class:`JoinRound` per probe, read off the
    transcripts.
    """
    k = len(views)
    matches: list[int] = []
    home = 0
    confirm = 0
    offset = 1
    while True:
        probe_idx = (home + offset) % k
        view = views[probe_idx]
        if view.definitely_absent(target):
            _, upper = views[home].boundaries(target)
            if rounds is not None:
                rounds.append(
                    JoinRound(
                        kind="skip",
                        probe_tree=probe_idx,
                        next_target=views[home].upper,
                    )
                )
            if upper is None:
                return matches
            target = upper
            confirm = 0
            offset = 1
            continue
        lower, upper = view.boundaries(target)
        if rounds is not None:
            rounds.append(
                JoinRound("probe", probe_idx, view.lower, view.upper)
            )
        if lower == target:
            confirm += 1
            if confirm < k - 1:
                offset += 1
                continue
            matches.append(target)
        if upper is None:
            return matches
        target = upper
        home = probe_idx
        confirm = 0
        offset = 1


def multiway_join(
    views: list,
) -> tuple[list[int], MultiWayJoinVO | ReplayVO]:
    """The k-way cyclic join walk; trees must all be non-empty.

    Returns the matched IDs and the walk's VO: its rounds for
    :class:`IndexView`s, the runs read for :class:`KeyView`s.
    """
    if len(views) < 2:
        raise QueryError("multiway_join requires at least two trees")
    for view in views:
        if len(view) == 0:
            raise QueryError("multiway_join requires non-empty trees")
    trees = tuple(v.keyword for v in views)
    if _replayed(views[0]):
        matches = _cyclic_walk(views, views[0].first(), None)
        return matches, ReplayVO(
            plan="cyclic", trees=trees, runs=tuple(v.run() for v in views)
        )
    first = views[0].first_proven()
    rounds: list[JoinRound] = []
    matches = _cyclic_walk(
        [_Transcript(view) for view in views], first.object_id, rounds
    )
    return matches, MultiWayJoinVO(
        trees=trees, first_target=first, rounds=tuple(rounds)
    )


def join_two(left, right) -> tuple[list[int], MultiWayJoinVO | ReplayVO]:
    """Authenticated join of two trees (the paper's Fig. 4 walk)."""
    return multiway_join([left, right])


def semi_join(
    candidates: list[int], view
) -> tuple[list[int], SemiJoinStage | None]:
    """Filter ``candidates`` through one more tree with per-ID probes.

    Returns the survivors and, for an :class:`IndexView`, the stage's
    probes; a :class:`KeyView` remembers what was read instead.
    """
    replayed = _replayed(view)
    face = view if replayed else _Transcript(view)
    survivors: list[int] = []
    probes: list[SemiJoinProbe] = []
    for candidate in sorted(candidates):
        if face.definitely_absent(candidate):
            probes.append(
                SemiJoinProbe(candidate_id=candidate, bloom_absent=True)
            )
            continue
        lower, _ = face.boundaries(candidate)
        if not replayed:
            probes.append(
                SemiJoinProbe(
                    candidate_id=candidate, lower=face.lower, upper=face.upper
                )
            )
        if lower == candidate:
            survivors.append(candidate)
    if replayed:
        return survivors, None
    return survivors, SemiJoinStage(keyword=view.keyword, probes=tuple(probes))


def conjunctive_join(
    views: list,
    order: str = "size",
    plan: str = "cyclic",
) -> tuple[list[int], ConjunctiveVO]:
    """Evaluate one conjunctive component over its keyword trees.

    ``order="size"`` (default) sorts trees smallest-first per the
    paper's footnote 3; ``order="given"`` keeps the caller's order.
    ``plan`` selects the multiway strategy: the default ``"cyclic"``
    walk, or ``"semijoin"`` (base pair + per-candidate stages).
    """
    if not views:
        raise QueryError("a conjunctive component needs at least one keyword")
    if order not in ("size", "given"):
        raise QueryError(f"unknown join order {order!r}")
    if plan not in ("cyclic", "semijoin"):
        raise QueryError(f"unknown join plan {plan!r}")
    keywords = tuple(v.keyword for v in views)
    for view in views:
        if len(view) == 0:
            return [], ConjunctiveVO(
                keywords=keywords, empty_keyword=view.keyword
            )
    ordered = sorted(views, key=len) if order == "size" else list(views)
    replayed = _replayed(ordered[0])
    if len(ordered) == 1:
        if replayed:
            matches = ordered[0].scan()
            base_vo = ReplayVO("cyclic", keywords, (ordered[0].run(),))
        else:
            entries = ordered[0].all_proven()
            matches = [e.object_id for e in entries]
            base_vo = FullScanVO(keyword=keywords[0], entries=tuple(entries))
        return matches, ConjunctiveVO(keywords=keywords, base=base_vo)
    if plan == "cyclic" or len(ordered) == 2:
        matches, base_vo = multiway_join(ordered)
        return matches, ConjunctiveVO(keywords=keywords, base=base_vo)
    matches, base_vo = multiway_join(ordered[:2])
    stages = []
    for view in ordered[2:]:
        if not matches:
            # No candidates left: later stages are vacuous; stop here.
            break
        matches, stage = semi_join(matches, view)
        stages.append(stage)
    if replayed:
        # One account for the whole component: what each tree was read
        # for, base pair and stages alike.
        return matches, ConjunctiveVO(
            keywords=keywords,
            base=ReplayVO(
                plan="semijoin",
                trees=tuple(v.keyword for v in ordered),
                runs=tuple(v.run() for v in ordered),
            ),
        )
    return matches, ConjunctiveVO(
        keywords=keywords, base=base_vo, stages=tuple(stages)
    )
