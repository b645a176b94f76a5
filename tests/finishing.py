"""Shared finishing step for tests that consume raw join output.

The SP's views only *locate*: what ``conjunctive_join`` returns names,
per tree, the keys the walk read (located runs), which the SP front-end
proves before anything is sized, encoded or verified.  Tests that drive
the join engine directly go through :func:`finish`, which runs that
prove step — one table per tree, the only VO shape there is.
"""

from __future__ import annotations

from repro.core.multiproof import compress_query_vo
from repro.core.query.vo import ConjunctiveVO, QueryVO, ReplayVO


def finish(located):
    """Prove whatever the join engine located.

    Accepts a :class:`QueryVO`, one :class:`ConjunctiveVO`, or the bare
    :class:`ReplayVO` of ``multiway_join``; returns the finished
    :class:`QueryVO` (tables plus conjuncts naming them).
    """
    if isinstance(located, ReplayVO):
        located = ConjunctiveVO(keywords=located.trees, base=located)
    if isinstance(located, ConjunctiveVO):
        located = QueryVO(conjuncts=(located,))
    return compress_query_vo(located)


def verify_finished(conj, located, ps):
    """Finish one conjunct and verify it; the verified result IDs."""
    from repro.core.query.verify import verify_conjunct

    vo = finish(located)
    ps.attach_multiproofs(vo.multiproofs)
    with ps.settling():
        return verify_conjunct(frozenset(conj), vo.conjuncts[0], ps).ids
