"""Shared finishing step for tests that consume raw join output.

The Merkle-family views only *locate*: what ``conjunctive_join`` and the
``*_proven`` view methods return carries deferred proof slots, which the
SP front-end finishes before anything is sized, encoded or verified.
Tests that drive the join engine directly go through :func:`finish`,
which runs the same prove step in its per-entry-path form.
"""

from __future__ import annotations

from repro.core.multiproof import expand_entries, expand_query_vo
from repro.core.query.vo import (
    ConjunctiveVO,
    MultiWayJoinVO,
    ProvenEntry,
    QueryVO,
    SemiJoinStage,
)


def finish(located):
    """Prove whatever the join engine located; same shape back.

    Accepts a :class:`QueryVO`, one :class:`ConjunctiveVO`, a bare
    :class:`MultiWayJoinVO` or :class:`SemiJoinStage`, one
    :class:`ProvenEntry` (or ``None``), or a list / tuple of entries.
    """
    if located is None:
        return None
    if isinstance(located, QueryVO):
        return expand_query_vo(located)
    if isinstance(located, ConjunctiveVO):
        return expand_query_vo(QueryVO(conjuncts=(located,))).conjuncts[0]
    if isinstance(located, MultiWayJoinVO):
        return finish(ConjunctiveVO(keywords=located.trees, base=located)).base
    if isinstance(located, SemiJoinStage):
        return finish(
            ConjunctiveVO(keywords=(located.keyword,), stages=(located,))
        ).stages[0]
    if isinstance(located, ProvenEntry):
        return expand_entries([located])[0]
    finished = expand_entries([e for e in located if e is not None])
    replaced = iter(finished)
    return type(located)(
        None if e is None else next(replaced) for e in located
    )

