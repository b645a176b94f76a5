"""Authenticated join processing (Sections III-B and V-C, Algorithms 5–6).

Each conjunctive component is evaluated as a join over the component
keywords' index trees.  There is one walk, written over *keys*: it asks
a :class:`KeyView` for its first key and for the pair of keys around a
target, and nothing else.  Both parties run it:

* the **SP** over its trees
  (:class:`~repro.core.merkle_family.MBTreeView`,
  :class:`~repro.core.chameleon_index.ChameleonView`), which answer
  from the index and remember what was read — the conjunct's VO is a
  :class:`~repro.core.query.vo.ReplayVO` naming those runs, and the
  prove step turns each run into one table;
* the **client** with ``order="given"`` over the authenticated tables
  (:class:`~repro.core.multiproof.ProvenRun`): same routine, same
  probes, and a probe the tables cannot answer is a
  :class:`~repro.errors.VerificationError` raised by the view
  (Algorithm 6: the client *replays* the join).

The walk leaves no account of itself: which tree is probed when, where
the target goes next and when the walk ends are computed on each side,
never shipped.

Two multiway plans are provided:

* **cyclic** (default) — the k-way generalisation of the paper's
  two-tree role-switching walk (Fig. 4): the target visits the other
  trees collecting boundary proofs; a target confirmed in all ``k-1`` of
  them is a result; a failed probe advances the target to the probed
  tree's upper boundary.  For ``k = 2`` this is *exactly* the paper's
  walk; its cost grows with the number of query keywords, which is the
  behaviour the paper's Figs. 11–12 measure.
* **semijoin** — footnote 3 taken literally: join the two smallest
  trees, then probe each surviving candidate in every remaining tree.
  Asymptotically cheaper when intersections are small; compared against
  the cyclic plan in the join-plan ablation.

Protocol invariants (cyclic walk):

1. the first target is the first tree's first key;
2. a target is probed in the *other* trees in list order — smallest
   tree first under ``order="size"``, so a target most trees lack is
   dismissed by the cheapest probe — while it accumulates
   confirmations;
3. a probe returns the keys ``lower <= target < upper`` around the
   target; ``lower == target`` is a confirmation, and ``k-1``
   confirmations make a result;
4. a failed or completed target advances to the probed tree's upper
   boundary (which becomes the new home); a probe with no upper
   terminates the walk — everything beyond the target is provably
   absent from the probed tree;
5. with Bloom filters (Chameleon*), a probe whose target the probed
   tree's on-chain filters exclude is skipped, and the target advances
   within its home tree instead.  Both sides evaluate the same
   filters, so they skip the same probes.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Literal, Protocol

from repro.core.query.vo import ConjunctiveVO, ReplayVO
from repro.errors import QueryError


class KeyView(Protocol):
    """One keyword's index tree as the walk reads it: keys only.

    A view that cannot answer a read raises instead of guessing.
    """

    keyword: str

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
        """True when an on-chain-replicable filter proves absence.

        Non-Bloom schemes always return False.  The SP's view and the
        client's must agree, which they do by reading the same filters.
        """
        ...

    def run(self) -> object:
        """Where the entries read so far are (to be) proven.

        The slot this tree gets in :attr:`ReplayVO.runs`.
        """
        ...


def remember_key(keys: list[int], key: int) -> None:
    """Add ``key`` to the ascending, duplicate-free list an SP view keeps."""
    if not keys or keys[-1] < key:
        keys.append(key)
    elif keys[-1] != key:
        # A probe that went backwards: keep the list sorted anyway.
        at = bisect_left(keys, key)
        if keys[at] != key:
            keys.insert(at, key)


def _cyclic_walk(views: list[KeyView], target: int) -> list[int]:
    """The k-way walk from ``views[0]``'s first key ``target``; the matches."""
    k = len(views)
    matches: list[int] = []
    home = 0
    confirm = 0
    while True:
        # The confirm-th of the other trees, in list order.
        probe_idx = confirm + (confirm >= home)
        view = views[probe_idx]
        if view.definitely_absent(target):
            _, upper = views[home].boundaries(target)
            if upper is None:
                return matches
            target = upper
            confirm = 0
            continue
        lower, upper = view.boundaries(target)
        if lower == target:
            confirm += 1
            if confirm < k - 1:
                continue
            matches.append(target)
        if upper is None:
            return matches
        target = upper
        home = probe_idx
        confirm = 0


def multiway_join(views: list[KeyView]) -> tuple[list[int], ReplayVO]:
    """The k-way cyclic join walk; trees must all be non-empty.

    Returns the matched IDs and the runs the walk read.
    """
    if len(views) < 2:
        raise QueryError("multiway_join requires at least two trees")
    for view in views:
        if len(view) == 0:
            raise QueryError("multiway_join requires non-empty trees")
    matches = _cyclic_walk(views, views[0].first())
    return matches, _replay_vo("cyclic", views)


def join_two(left: KeyView, right: KeyView) -> tuple[list[int], ReplayVO]:
    """Authenticated join of two trees (the paper's Fig. 4 walk)."""
    return multiway_join([left, right])


def semi_join(candidates: list[int], view: KeyView) -> list[int]:
    """Filter ``candidates`` through one more tree with per-ID probes."""
    survivors: list[int] = []
    for candidate in sorted(candidates):
        if view.definitely_absent(candidate):
            continue
        lower, _ = view.boundaries(candidate)
        if lower == candidate:
            survivors.append(candidate)
    return survivors


def _replay_vo(
    plan: Literal["cyclic", "semijoin"], views: list[KeyView]
) -> ReplayVO:
    return ReplayVO(
        plan=plan,
        trees=tuple(v.keyword for v in views),
        runs=tuple(v.run() for v in views),
    )


def conjunctive_join(
    views: list[KeyView],
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
    if len(ordered) == 1:
        matches = ordered[0].scan()
        base = _replay_vo("cyclic", ordered)
    elif plan == "cyclic" or len(ordered) == 2:
        matches = _cyclic_walk(ordered, ordered[0].first())
        base = _replay_vo("cyclic", ordered)
    else:
        matches = _cyclic_walk(ordered[:2], ordered[0].first())
        for view in ordered[2:]:
            if not matches:
                # No candidates left: later stages are vacuous; stop here.
                break
            matches = semi_join(matches, view)
        # One account for the whole component: what each tree was read
        # for, base pair and stages alike.
        base = _replay_vo("semijoin", ordered)
    return matches, ConjunctiveVO(keywords=keywords, base=base)
