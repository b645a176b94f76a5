"""lock-discipline: shared state guarded by a lock stays under the lock.

Two patterns are enforced:

* **Classes** that create a ``self._lock`` may mutate their instance
  attributes only inside a ``with self._lock:`` block.  Construction and
  pickling hooks are exempt (``__init__``, ``__getstate__``, ...), reads
  are always allowed; what is flagged is assignment, augmented
  assignment, subscript stores and calls to mutating container methods
  (``append``/``pop``/``update``/``move_to_end``/...) on ``self``
  attributes outside the lock.

* **Modules** that create a module-level ``*_lock``: any global that is
  mutated under ``with <lock>:`` somewhere is considered lock-guarded,
  and mutations of it outside a ``with <lock>:`` block are flagged.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.findings import Finding
from repro.analysis.framework import (
    Checker,
    ModuleSource,
    register,
)

#: Method names that mutate the receiver in place.
_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "sort",
        "update",
    }
)

#: Methods allowed to touch state without the lock.
_EXEMPT_METHODS = frozenset(
    {
        "__init__",
        "__new__",
        "__post_init__",
        "__getstate__",
        "__setstate__",
        "__reduce__",
        "__copy__",
        "__deepcopy__",
        "__del__",
        "__repr__",
    }
)


def _is_self_attr(node: ast.AST, attr: str | None = None) -> bool:
    """``self.<attr>`` (any attribute when ``attr`` is None)."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (attr is None or node.attr == attr)
    )


def _with_holds_self_lock(node: ast.With) -> bool:
    return any(_is_self_attr(item.context_expr, "_lock") for item in node.items)


def _with_lock_names(node: ast.With) -> set[str]:
    """Module-level lock names taken by this ``with`` statement."""
    return {
        item.context_expr.id
        for item in node.items
        if isinstance(item.context_expr, ast.Name)
        and item.context_expr.id.endswith("_lock")
    }


def _mutated_self_attrs(stmt: ast.stmt) -> Iterator[tuple[ast.AST, str]]:
    """(node, attr) pairs where ``stmt`` mutates a ``self`` attribute."""
    if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        for target in targets:
            if _is_self_attr(target):
                yield target, target.attr  # type: ignore[union-attr]
            elif isinstance(target, ast.Subscript) and _is_self_attr(target.value):
                yield target, target.value.attr  # type: ignore[union-attr]
    elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        func = stmt.value.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATORS
            and _is_self_attr(func.value)
        ):
            yield stmt, func.value.attr  # type: ignore[union-attr]


def _mutated_globals(stmt: ast.stmt) -> Iterator[tuple[ast.AST, str]]:
    """(node, name) pairs where ``stmt`` mutates a bare-name container."""
    if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        for target in targets:
            if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
                yield target, target.value.id
    elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        func = stmt.value.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATORS
            and isinstance(func.value, ast.Name)
        ):
            yield stmt, func.value.id


@register
class LockDisciplineChecker(Checker):
    """Flags mutation of lock-guarded state outside the lock."""

    rule = "lock-discipline"
    description = (
        "classes owning a _lock (and modules owning a *_lock) must mutate "
        "shared state only inside 'with <lock>:' blocks"
    )
    paths = ("",)

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(src, node)
        yield from self._check_module_locks(src)

    # -- classes owning self._lock -------------------------------------------

    def _check_class(self, src: ModuleSource, cls: ast.ClassDef) -> Iterator[Finding]:
        owns_lock = any(
            _is_self_attr(target, "_lock")
            for node in ast.walk(cls)
            if isinstance(node, ast.Assign)
            for target in node.targets
        )
        if not owns_lock:
            return
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in _EXEMPT_METHODS:
                continue
            yield from self._scan_body(src, method.body, cls.name, method.name, False)

    def _scan_body(
        self,
        src: ModuleSource,
        body: list[ast.stmt],
        cls_name: str,
        method_name: str,
        locked: bool,
    ) -> Iterator[Finding]:
        for stmt in body:
            if not locked:
                for node, attr in _mutated_self_attrs(stmt):
                    yield self.finding(
                        src,
                        node,
                        f"self.{attr} is mutated outside 'with self._lock'; "
                        f"{cls_name} owns a lock for its shared state",
                        symbol=f"{cls_name}.{method_name}",
                    )
            now_locked = locked or (
                isinstance(stmt, ast.With) and _with_holds_self_lock(stmt)
            )
            for child_body in self._child_bodies(stmt):
                yield from self._scan_body(
                    src, child_body, cls_name, method_name, now_locked
                )

    @staticmethod
    def _child_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
        """Nested statement lists, skipping nested function/class defs."""
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return []
        bodies: list[list[ast.stmt]] = []
        for name in ("body", "orelse", "finalbody"):
            block = getattr(stmt, name, None)
            if block:
                bodies.append(block)
        for handler in getattr(stmt, "handlers", []) or []:
            bodies.append(handler.body)
        return bodies

    # -- modules owning a *_lock ---------------------------------------------

    def _check_module_locks(self, src: ModuleSource) -> Iterator[Finding]:
        lock_names = {
            target.id
            for stmt in src.tree.body
            if isinstance(stmt, ast.Assign)
            for target in stmt.targets
            if isinstance(target, ast.Name) and target.id.endswith("_lock")
        }
        if not lock_names:
            return
        # Pass 1: globals mutated under a module lock are "guarded".
        guarded: set[str] = set()
        for node in ast.walk(src.tree):
            if isinstance(node, ast.With) and _with_lock_names(node) & lock_names:
                for stmt in ast.walk(node):
                    if isinstance(stmt, ast.stmt):
                        for _, name in _mutated_globals(stmt):
                            guarded.add(name)
        if not guarded:
            return
        # Pass 2: mutations of guarded globals outside any lock block.
        yield from self._scan_module_body(src, src.tree.body, guarded, lock_names, False)

    def _scan_module_body(
        self,
        src: ModuleSource,
        body: list[ast.stmt],
        guarded: set[str],
        lock_names: set[str],
        locked: bool,
    ) -> Iterator[Finding]:
        for stmt in body:
            if not locked:
                for node, name in _mutated_globals(stmt):
                    if name in guarded:
                        yield self.finding(
                            src,
                            node,
                            f"module global {name!r} is lock-guarded elsewhere "
                            "but mutated here outside 'with <lock>'",
                            symbol="",
                        )
            now_locked = locked or (
                isinstance(stmt, ast.With) and bool(_with_lock_names(stmt) & lock_names)
            )
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                child_locked = False if not locked else now_locked
                if isinstance(stmt, ast.ClassDef):
                    continue  # class-level state is handled by _check_class
                yield from self._scan_module_body(
                    src, stmt.body, guarded, lock_names, child_locked
                )
            else:
                for name in ("body", "orelse", "finalbody"):
                    block = getattr(stmt, name, None)
                    if block:
                        yield from self._scan_module_body(
                            src, block, guarded, lock_names, now_locked
                        )
                for handler in getattr(stmt, "handlers", []) or []:
                    yield from self._scan_module_body(
                        src, handler.body, guarded, lock_names, now_locked
                    )
