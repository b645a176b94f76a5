"""flatbuf-node-storage: MB-tree hot paths must stay on the flat buffer.

The flat-buffer refactor (PR 10) replaced the per-node Python object
graph (``_Node`` / ``LeafNode`` / ``InternalNode``) with fixed-width
records in one contiguous :class:`~repro.core.nodestore.NodeStore`
buffer — that is where the resident-memory and cold-restart wins come
from.  The regression this rule guards against is gradual: a helper
that rebuilds node objects inside ``insert``/``_descend``/``_rehash``
reintroduces one allocation per node per operation, the build slows
and memory grows, but nothing *fails* — every digest still matches.

Two shapes are flagged in ``core/mbtree.py``:

* defining or constructing a node-graph class (``LeafNode``,
  ``InternalNode``, ``_Node``) anywhere in the module;
* constructing :class:`Entry` objects inside the insert hot path
  (descend / rehash / split), which must operate on buffer slots
  directly.  Read-side APIs (``iter_entries``, ``update_spine``)
  legitimately materialise entries for callers and are not hot-path.
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

#: Class names whose (re)introduction rebuilds the node object graph.
_GRAPH_NODE_TYPES = frozenset({"_Node", "LeafNode", "InternalNode"})

#: Insert-path functions that must allocate nothing per node.
_HOT_PATHS = frozenset(
    {
        "insert",
        "_descend",
        "_rehash",
        "_split_and_rehash",
        "_leaf_digests",
        "leaf_insert",
        "split",
    }
)


def _called_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _enclosing_function(ancestors) -> str | None:
    for node in reversed(ancestors):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node.name
    return None


@register
class FlatbufNodeStorageChecker(Checker):
    """Flags node-object-graph construction in the MB-tree hot paths."""

    rule = "flatbuf-node-storage"
    description = (
        "MB-tree hot paths must operate on flat-buffer records; do not "
        "define or construct per-node Python objects in core/mbtree.py"
    )
    paths = ("core/mbtree.py", "core/nodestore.py")

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        for node, ancestors in walk_with_stack(src.tree):
            if isinstance(node, ast.ClassDef):
                if node.name in _GRAPH_NODE_TYPES:
                    yield self.finding(
                        src,
                        node,
                        f"class {node.name} reintroduces the per-node "
                        "object graph the flat-buffer store replaced; "
                        "extend the NodeStore record layout instead",
                        symbol=node.name,
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            if name in _GRAPH_NODE_TYPES:
                yield self.finding(
                    src,
                    node,
                    f"{name}(...) builds a node object; tree state lives "
                    "in flat-buffer records addressed by index",
                    symbol=enclosing_symbol(ancestors),
                )
            elif name == "Entry" and _enclosing_function(ancestors) in _HOT_PATHS:
                yield self.finding(
                    src,
                    node,
                    "Entry(...) allocated on the insert hot path; read "
                    "keys/hashes from the leaf record slots directly",
                    symbol=enclosing_symbol(ancestors),
                )
