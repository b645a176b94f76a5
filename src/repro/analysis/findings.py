"""Lint findings and their stable identity.

A :class:`Finding` pins one rule violation to a file position.  Two
identities matter:

* the *display* location (``path:line:col``) shown to the developer;
* the *baseline key* — ``rule|module|symbol`` — which deliberately
  excludes line numbers so grandfathered findings survive unrelated
  edits that shift code up or down.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    #: Dotted name of the enclosing class/function, e.g. ``MBTree.multiproof``.
    symbol: str = ""
    #: Module key relative to the ``repro`` package (``crypto/hashing.py``).
    module: str = field(default="", compare=False)

    @property
    def baseline_key(self) -> str:
        """Line-independent identity used for baseline matching."""
        return f"{self.rule}|{self.module or self.path}|{self.symbol}"

    def render(self) -> str:
        """One-line human-readable form."""
        where = f"{self.path}:{self.line}:{self.col}"
        scope = f" [{self.symbol}]" if self.symbol else ""
        return f"{where}: {self.rule}{scope}: {self.message}"

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (used by the JSON reporter and the baseline)."""
        return {
            "path": self.path,
            "module": self.module,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "symbol": self.symbol,
            "message": self.message,
        }
