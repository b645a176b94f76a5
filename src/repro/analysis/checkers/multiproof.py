"""multiproof-batched-path: the query path must not mint MerklePaths.

A VO is one deduplicated :class:`TreeMultiproof` per (tree, commitment)
pair and nothing else: no frame carries a per-entry :class:`MerklePath`
any more, and no step of the query path — views, join, VO assembly,
codec, verification, SP front-end — has a reason to build one.  A
``MerklePath(...)`` or ``PathStep(...)`` constructor call creeping back
into that pipeline means some entry is being proven on its own again —
the VO would still verify, so nothing fails, but the ≥2× wire reduction
and the locate-then-prove-once split quietly disappear.  (``MBTree``
itself still mints paths, for range proofs and the SMI update spines;
``core/mbtree.py`` and ``core/multiproof.py`` are out of scope.)

In the Merkle views (``core/merkle_family.py``) the rule also flags the
``MBTree`` methods that mint one path per call (``prove``,
``boundaries``, ``first_entry``, ``last_entry``): the views only
*locate*, and each tree is proven once per query by the finishing step
in ``core/multiproof.py``.  A per-entry proof call creeping back into a
view costs a descent and a leaf re-hash per boundary entry — the 3x of
SP time this split removed — and nothing would fail.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.findings import Finding
from repro.analysis.framework import (
    Checker,
    ModuleSource,
    enclosing_symbol,
    register,
    walk_with_stack,
)

#: Constructors that re-introduce per-entry proofs when called on the
#: batched query path.
_PER_ENTRY_PROOF_TYPES = frozenset({"MerklePath", "PathStep"})

#: ``MBTree`` methods that return a freshly minted path per call.
_PER_ENTRY_PROOF_METHODS = frozenset(
    {"prove", "boundaries", "first_entry", "last_entry", "_prove_by_key"}
)


def _called_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


@register
class MultiproofBatchedPathChecker(Checker):
    """Flags per-entry proof construction on the batched query path."""

    rule = "multiproof-batched-path"
    description = (
        "the query path keeps proofs in multiproof form; it constructs "
        "no MerklePath/PathStep and proves no entry on its own"
    )
    paths = (
        "core/query/",
        "core/sp_frontend.py",
        "core/merkle_family.py",
    )

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        for node, ancestors in walk_with_stack(src.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            if (
                name in _PER_ENTRY_PROOF_METHODS
                and isinstance(node.func, ast.Attribute)
                and src.module == "core/merkle_family.py"
            ):
                yield self.finding(
                    src,
                    node,
                    f".{name}(...) in the Merkle views mints a path per "
                    "entry; locate with MBTree.locate and let "
                    "core/multiproof.py prove each tree once",
                    symbol=enclosing_symbol(ancestors),
                )
                continue
            if name not in _PER_ENTRY_PROOF_TYPES:
                continue
            yield self.finding(
                src,
                node,
                f"{name}(...) on the query path reverts the VO to "
                "per-entry proofs; build or reference a TreeMultiproof "
                "via core/multiproof.py instead",
                symbol=enclosing_symbol(ancestors),
            )
