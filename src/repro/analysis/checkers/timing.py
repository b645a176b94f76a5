"""timing-safe-compare: digests must be compared in constant time.

Client-side verification compares attacker-supplied digests against
trusted values; short-circuiting ``==`` on :class:`bytes` leaks the
length of the matching prefix through timing.  Every digest / root /
hash equality in the verification modules must therefore go through
:func:`repro.crypto.hashing.digests_equal` (a thin wrapper over
``hmac.compare_digest``) rather than ``==`` / ``!=``.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from repro.analysis.findings import Finding
from repro.analysis.framework import (
    Checker,
    ModuleSource,
    enclosing_symbol,
    register,
    walk_with_stack,
)

#: Identifiers that denote digest-like values in the verification paths.
_DIGEST_NAME = re.compile(r"(digest|hash|root)", re.IGNORECASE)

#: Calls whose result is always a digest.
_DIGEST_CALLS = frozenset(
    {
        "digest",
        "sha3",
        "tagged_hash",
        "hash_concat",
        "hash_int",
        "_full_domain_hash",
    }
)


def _is_digest_expr(node: ast.AST) -> bool:
    """Heuristic: does this expression denote a digest value?"""
    if isinstance(node, ast.Name):
        return bool(_DIGEST_NAME.search(node.id))
    if isinstance(node, ast.Attribute):
        return bool(_DIGEST_NAME.search(node.attr)) or _is_digest_expr(node.value)
    if isinstance(node, ast.Subscript):
        return _is_digest_expr(node.value)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _DIGEST_CALLS:
            return True
        if isinstance(func, ast.Attribute) and func.attr in _DIGEST_CALLS:
            return True
    return False


@register
class TimingSafeCompareChecker(Checker):
    """Flags ``==`` / ``!=`` between digest-like operands."""

    rule = "timing-safe-compare"
    description = (
        "digest/root/hash equality in verification code must use "
        "digests_equal (hmac.compare_digest), not == / !="
    )
    paths = (
        "crypto/hashing.py",
        "core/query/verify.py",
        "core/merkle_family.py",
        "core/merkle_inv.py",
        "core/mbtree.py",
        "core/chameleon",
        "core/suppressed",
        "ethereum/state.py",
        "ethereum/chain.py",
    )

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        for node, ancestors in walk_with_stack(src.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_digest_expr(left) or _is_digest_expr(right):
                    yield self.finding(
                        src,
                        node,
                        "digest comparison with == / != is not constant-time; "
                        "use repro.crypto.hashing.digests_equal",
                        symbol=enclosing_symbol(ancestors),
                    )
                    break
