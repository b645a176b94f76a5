"""Shared finishing step for tests that consume raw join output.

The Merkle-family views only *locate*: what ``conjunctive_join`` returns
names, per tree, the keys the walk read (located runs), which the SP
front-end proves before anything is sized, encoded or verified.  Tests
that drive the join engine directly go through :func:`finish`, which
runs that prove step in its legacy form — the walk written down as
rounds of path-proven entries.  :func:`first_proven`,
:func:`boundaries_proven` and :func:`all_proven` hand out single entries
of a view's tree in the same form (a Chameleon view proves its own).
"""

from __future__ import annotations

from repro.core.merkle_family import MBTreeView
from repro.core.multiproof import expand_query_vo
from repro.core.query.vo import (
    ConjunctiveVO,
    ProvenEntry,
    QueryVO,
    ReplayVO,
)


def finish(located):
    """Prove whatever the join engine located, as rounds with paths.

    Accepts a :class:`QueryVO`, one :class:`ConjunctiveVO`, or the bare
    :class:`ReplayVO` of ``multiway_join``; anything already finished
    passes through.
    """
    if isinstance(located, QueryVO):
        return expand_query_vo(located)
    if isinstance(located, ConjunctiveVO):
        return expand_query_vo(QueryVO(conjuncts=(located,))).conjuncts[0]
    if isinstance(located, ReplayVO):
        return finish(ConjunctiveVO(keywords=located.trees, base=located)).base
    return located


def path_proven(view, *keys: int) -> list[ProvenEntry]:
    """Entries of an ``MBTreeView``'s tree, each with its own path."""
    proven = []
    for key in keys:
        entry, path = view.tree.prove(key)
        proven.append(ProvenEntry(entry.key, entry.value_hash, path))
    return proven


def first_proven(view) -> ProvenEntry | None:
    """The view's smallest entry with its proof, or ``None`` when empty."""
    if not isinstance(view, MBTreeView):
        return view.first_proven()
    return path_proven(view, view.first())[0] if len(view) else None


def boundaries_proven(view, target: int):
    """The proven entries around a target (either may be ``None``)."""
    if not isinstance(view, MBTreeView):
        return view.boundaries_proven(target)
    return tuple(
        None if key is None else path_proven(view, key)[0]
        for key in view.boundaries(target)
    )


def all_proven(view) -> list[ProvenEntry]:
    """Every entry of the view with its proof, in key order."""
    if not isinstance(view, MBTreeView):
        return view.all_proven()
    return path_proven(view, *view.scan())
