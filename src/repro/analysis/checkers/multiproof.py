"""multiproof-batched-path: batched query paths must not mint MerklePaths.

The Merkle VO (``vo_version>=3``) replaces per-entry :class:`MerklePath`
proofs with one deduplicated :class:`TreeMultiproof` per (tree,
commitment) pair.  The invariant that keeps the batched query path
compressed is structural: only ``core/multiproof.py`` may take paths
apart or put them together on that route.  A ``MerklePath(...)`` or
``PathStep(...)`` constructor call creeping back into the query
pipeline (codec, verify, VO assembly, SP front-end) silently reverts
the batched path to per-entry proofs — the VO still verifies, so
nothing fails, but the ≥2× wire reduction quietly disappears.

The legacy v2 decode route legitimately reconstructs paths; those two
sites in the codec carry explicit
``# reprolint: disable-next-line=multiproof-batched-path`` markers so
any new site needs the same conscious opt-out.

The Merkle views (``core/merkle_family.py``) are in scope too, and there
the rule also flags the ``MBTree`` methods that mint one path per call
(``prove``, ``boundaries``, ``first_entry``, ``last_entry``) when they
are called on a tree (``tree.prove(...)``, ``self.tree.boundaries(...)``;
the views' own key-level ``boundaries`` is something else): the views
only *locate*, and each tree is proven once per query by the finishing
step in ``core/multiproof.py``.  A per-entry proof call creeping back
into a view costs a descent and a leaf re-hash per boundary entry — the
3x of SP time this split removed — and nothing would fail.
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


def _on_a_tree(func: ast.Attribute) -> bool:
    """Whether a method's receiver is named ``tree`` (``x.tree`` or ``tree``)."""
    receiver = func.value
    if isinstance(receiver, ast.Attribute):
        return receiver.attr == "tree"
    return isinstance(receiver, ast.Name) and receiver.id == "tree"


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
        "the batched query path must keep proofs in multiproof form; "
        "construct MerklePath/PathStep only inside core/multiproof.py"
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
                and _on_a_tree(node.func)
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
                f"{name}(...) on the batched query path reverts VO "
                "compression to per-entry proofs; build or reference a "
                "TreeMultiproof via core/multiproof.py instead",
                symbol=enclosing_symbol(ancestors),
            )
