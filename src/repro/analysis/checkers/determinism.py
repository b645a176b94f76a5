"""determinism: unordered iteration may not feed hashing or encoding.

Commitments, VO encodings and digest snapshots must be built from
deterministically-ordered inputs: iterating a ``set`` (or ``dict.keys()``
whose insertion order depends on arrival order) and hashing as you go
yields a different digest per run.  In the commitment/encoding modules
this rule flags ``for``-loops, comprehensions and ``join`` arguments that
iterate *directly* over a set expression or a ``.keys()`` call without an
explicit ``sorted(...)``.

The sharded SP adds a second hazard class: iterating a *shard map*
(``engines``/``shards``-named dict) via ``.values()``/``.items()`` while
assembling a VO or routing mirror updates makes the merge order depend
on dict insertion order — which differs between a replayed journal and
a live run.  In the shard-routing modules those iterations must go
through ``sorted(...)`` or an explicit shard-index list.
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


def _unordered_reason(node: ast.AST) -> str | None:
    """Why this expression iterates in unspecified order, or ``None``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set literal/comprehension"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"{func.id}(...)"
        if isinstance(func, ast.Attribute) and func.attr == "keys":
            return ".keys() (arrival-ordered)"
    return None


#: Receiver-name fragments marking a mapping as a shard/engine map.
_SHARD_RECEIVERS = ("shard", "engine")


def _receiver_name(node: ast.expr) -> str | None:
    """The identifier a ``.values()``/``.items()`` call is made on."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _shard_map_reason(node: ast.AST) -> str | None:
    """Why this expression iterates a shard map unordered, or ``None``.

    Flags ``<recv>.values()`` / ``<recv>.items()`` where the receiver's
    name mentions a shard or engine map: merge order would then follow
    dict insertion order, which a journal replay need not reproduce.
    """
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("values", "items")
    ):
        return None
    name = _receiver_name(node.func.value)
    if name is None:
        return None
    lowered = name.lower()
    if any(fragment in lowered for fragment in _SHARD_RECEIVERS):
        return f"{name}.{node.func.attr}() (a shard map, insertion-ordered)"
    return None


@register
class DeterminismChecker(Checker):
    """Flags unordered iteration in commitment/encoding modules."""

    rule = "determinism"
    description = (
        "iteration over set/dict.keys() feeding hashing or VO encoding "
        "must be wrapped in sorted(...)"
    )
    paths = (
        "crypto/",
        "core/chameleon",
        "core/mbtree.py",
        "core/merkle_family.py",
        "core/merkle_inv.py",
        "core/suppressed",
        "core/objects.py",
        "core/query/codec.py",
        "core/query/vo.py",
        "core/sp_frontend.py",
        "ethereum/",
        "sp/engine.py",
    )

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        for node, ancestors in walk_with_stack(src.tree):
            symbol = enclosing_symbol(ancestors)
            iters: list[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                and node.args
            ):
                iters.append(node.args[0])
            for candidate in iters:
                reason = _unordered_reason(candidate)
                if reason is not None:
                    yield self.finding(
                        src,
                        candidate,
                        f"iterating {reason} has no deterministic order; "
                        "wrap the iterable in sorted(...)",
                        symbol=symbol,
                    )
                    continue
                reason = _shard_map_reason(candidate)
                if reason is not None:
                    yield self.finding(
                        src,
                        candidate,
                        f"iterating {reason} ties VO assembly/routing to "
                        "dict insertion order; iterate sorted(...) or an "
                        "explicit shard-index list",
                        symbol=symbol,
                    )
