"""Checker framework: module sources, the visitor base class, the registry.

A :class:`Checker` receives one parsed :class:`ModuleSource` and yields
:class:`~repro.analysis.findings.Finding` objects.  Checkers are scoped
by *module key* — the path of the file relative to the ``repro`` package
(``crypto/hashing.py``, ``core/query/verify.py``) — so each rule runs only
over the subsystems whose invariants it encodes.

Suppression comments are handled here as well: a finding whose line (or
whose preceding line, via ``disable-next-line``) carries::

    # reprolint: disable=<rule>[,<rule>...]

is dropped before reporting.  ``disable=all`` silences every rule.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import PurePosixPath

from repro.analysis.findings import Finding

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable|disable-next-line)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)"
)


def module_key_for(path: str) -> str:
    """Path of ``path`` relative to the ``repro`` package, if inside one.

    Files outside any ``repro`` directory key on their basename, which
    lets unit-test fixtures steer checker scoping via the filename alone.
    """
    parts = PurePosixPath(path.replace("\\", "/")).parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i + 1 :])
    return parts[-1] if parts else path


@dataclass
class ModuleSource:
    """One parsed source file handed to every applicable checker."""

    path: str
    module: str
    text: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    @classmethod
    def parse(
        cls, path: str, text: str | None = None, module: str | None = None
    ) -> "ModuleSource":
        """Read (if needed) and parse one file."""
        if text is None:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        tree = ast.parse(text, filename=path)
        return cls(
            path=path,
            module=module if module is not None else module_key_for(path),
            text=text,
            tree=tree,
            lines=text.splitlines(),
        )

    def suppressed_rules(self) -> dict[int, set[str]]:
        """Map of 1-based line number -> rules disabled on that line."""
        out: dict[int, set[str]] = {}
        for number, line in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            rules = {r.strip() for r in match.group("rules").split(",")}
            target = number + 1 if match.group("kind") == "disable-next-line" else number
            out.setdefault(target, set()).update(rules)
        return out


def walk_with_stack(
    tree: ast.AST,
) -> Iterator[tuple[ast.AST, tuple[ast.AST, ...]]]:
    """Yield ``(node, ancestors)`` pairs in depth-first source order."""
    stack: list[ast.AST] = []

    def visit(node: ast.AST) -> Iterator[tuple[ast.AST, tuple[ast.AST, ...]]]:
        yield node, tuple(stack)
        stack.append(node)
        for child in ast.iter_child_nodes(node):
            yield from visit(child)
        stack.pop()

    for top in ast.iter_child_nodes(tree):
        yield from visit(top)


def enclosing_symbol(ancestors: Iterable[ast.AST]) -> str:
    """Dotted class/function qualname from an ancestor chain."""
    names = [
        node.name
        for node in ancestors
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    return ".".join(names)


class Checker:
    """Base class for one lint rule.

    Subclasses set :attr:`rule`, :attr:`description` and :attr:`paths`
    (module-key prefixes; the empty string matches everything) and
    implement :meth:`check`.
    """

    rule: str = ""
    description: str = ""
    paths: tuple[str, ...] = ("",)
    #: Project-scoped checkers see every module at once (see ProjectChecker).
    project: bool = False

    def applies_to(self, module: str) -> bool:
        """Whether this rule is in scope for a module key."""
        return any(module.startswith(prefix) for prefix in self.paths)

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError

    def finding(
        self, src: ModuleSource, node: ast.AST, message: str, symbol: str = ""
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            path=src.path,
            module=src.module,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.rule,
            message=message,
            symbol=symbol,
        )


class ProjectChecker(Checker):
    """Base class for rules that need a whole-project view.

    Module-local checkers see one file at a time; interprocedural rules
    (lock-order graphs, reachability along the call graph) need every
    module in scope simultaneously.  Subclasses implement
    :meth:`check_project`, which receives the full list of parsed
    sources whose module keys matched :attr:`paths`.  Findings are still
    anchored to a single ``(module, line)`` so suppression comments and
    baseline keys behave exactly as for module-local rules.
    """

    project: bool = True

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        """Project checkers run via :meth:`check_project`; see the runner."""
        return iter(())

    def check_project(self, sources: list[ModuleSource]) -> Iterator[Finding]:
        """Yield findings over the whole set of in-scope modules."""
        raise NotImplementedError


#: Global registry of checker classes, keyed by rule id.
_REGISTRY: dict[str, type[Checker]] = {}


def register(cls: type[Checker]) -> type[Checker]:
    """Class decorator adding a checker to the registry."""
    if not cls.rule:
        raise ValueError(f"{cls.__name__} does not define a rule id")
    if cls.rule in _REGISTRY and _REGISTRY[cls.rule] is not cls:
        raise ValueError(f"duplicate checker rule id {cls.rule!r}")
    _REGISTRY[cls.rule] = cls
    return cls


def registered_rules() -> dict[str, type[Checker]]:
    """A copy of the registry (rule id -> checker class)."""
    return dict(_REGISTRY)


def default_checkers(select: Iterable[str] | None = None) -> list[Checker]:
    """Instantiate every registered checker (or the selected subset)."""
    # Importing the package registers the built-in checkers.
    import repro.analysis.checkers  # noqa: F401

    if select is None:
        wanted = sorted(_REGISTRY)
    else:
        wanted = list(select)
        unknown = [rule for rule in wanted if rule not in _REGISTRY]
        if unknown:
            raise KeyError(f"unknown lint rules: {', '.join(unknown)}")
    return [_REGISTRY[rule]() for rule in wanted]
