"""crypto-hygiene: commitment paths may not touch ambient nondeterminism.

The chameleon/CVC constructions and every digest that reaches the chain
must be reproducible from explicit inputs.  Inside the crypto package
and the core commitment modules this rule bans:

* the ``random`` module (randomness flows only through
  ``make_random`` / ``RandomSource``, which is seedable and CSPRNG-backed);
* direct use of ``secrets`` / ``os.urandom`` outside
  ``crypto/numbers.py`` (the one place the system entropy adapter lives);
* wall clocks (``time`` / ``datetime`` imports — nothing in a
  commitment may depend on when it was computed);
* the builtin ``hash()`` (``PYTHONHASHSEED``-salted, differs between
  processes; cryptographic digests come from ``repro.crypto.hashing``).
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

_BANNED_MODULES = {
    "random": "use make_random()/RandomSource instead of the 'random' module",
    "time": "commitment paths must not read clocks ('time' import)",
    "datetime": "commitment paths must not read clocks ('datetime' import)",
}

#: Modules allowed to touch the OS entropy pool directly.
_ENTROPY_HOME = ("crypto/numbers.py",)


@register
class CryptoHygieneChecker(Checker):
    """Flags ambient nondeterminism in crypto/commitment modules."""

    rule = "crypto-hygiene"
    description = (
        "no random/time/datetime imports, raw secrets/os.urandom, or "
        "builtin hash() in crypto and commitment modules"
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
    )

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        entropy_ok = any(src.module.startswith(p) for p in _ENTROPY_HOME)
        for node, ancestors in walk_with_stack(src.tree):
            symbol = enclosing_symbol(ancestors)
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from self._check_import(src, node, symbol, entropy_ok)
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "hash":
                    yield self.finding(
                        src,
                        node,
                        "builtin hash() is process-salted and nondeterministic; "
                        "use repro.crypto.hashing (sha3/tagged_hash)",
                        symbol=symbol,
                    )
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr == "urandom"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "os"
                    and not entropy_ok
                ):
                    yield self.finding(
                        src,
                        node,
                        "raw os.urandom bypasses make_random()/RandomSource",
                        symbol=symbol,
                    )

    def _check_import(
        self,
        src: ModuleSource,
        node: ast.Import | ast.ImportFrom,
        symbol: str,
        entropy_ok: bool,
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Import):
            names = [alias.name.split(".")[0] for alias in node.names]
        else:
            names = [(node.module or "").split(".")[0]]
        for name in names:
            if name in _BANNED_MODULES:
                yield self.finding(src, node, _BANNED_MODULES[name], symbol=symbol)
            elif name == "secrets" and not entropy_ok:
                yield self.finding(
                    src,
                    node,
                    "draw randomness via make_random()/RandomSource, not "
                    "'secrets' directly",
                    symbol=symbol,
                )
