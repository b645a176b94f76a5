"""Whole-project concurrency model: locks, calls, held-set summaries.

Built once per lint run from every in-scope :class:`ModuleSource` and
shared by the concurrency checkers.  The model is deliberately a
*may*-analysis: it over-approximates which locks can be held (branches
union, loops run once, exception edges keep the pre-handler state) and
under-approximates the call graph (a call is only resolved when the
receiver's type is actually inferable — ``self``, typed attributes,
locals assigned from known constructors, annotated parameters, imported
module aliases).  That combination keeps findings reportable: an edge in
the lock-order graph corresponds to a concrete acquisition site.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.framework import ModuleSource

#: Constructor names that create a lock, and the kind they create.
LOCK_CONSTRUCTORS = {
    "Lock": "mutex",
    "RLock": "rlock",
    "Condition": "condition",
    "Semaphore": "mutex",
    "BoundedSemaphore": "mutex",
    "ReadWriteLock": "rwlock",
}

#: Attribute names whose value is a pipe endpoint, by convention.
_CONN_NAMES = ("conn",)
_CONN_SUFFIX = "_conn"

#: Loop-iterable classification for the ordered-acquisition rule.
ORDER_SORTED = "sorted"
ORDER_SEQUENCE = "sequence"
ORDER_UNORDERED = "unordered"


@dataclass(frozen=True)
class LockToken:
    """One lock identity: ``(module, owner class or '', attribute)``.

    ``mode`` distinguishes the read and write sides of a
    ``ReadWriteLock`` — they are separate nodes in the order graph.
    """

    module: str
    owner: str
    attr: str
    kind: str
    mode: str = ""

    def base(self) -> tuple[str, str, str]:
        """Identity ignoring the rwlock mode."""
        return (self.module, self.owner, self.attr)

    def __str__(self) -> str:
        where = f"{self.owner}.{self.attr}" if self.owner else self.attr
        suffix = f".{self.mode}()" if self.mode else ""
        return f"{self.module}:{where}{suffix}"


@dataclass
class Acquisition:
    """One lock acquisition site inside a function."""

    token: LockToken
    held: tuple[LockToken, ...]
    line: int
    #: Iteration-order kind of the innermost loop whose target feeds the
    #: lock expression (per-element acquisition), else None.
    loop_order: str | None = None


@dataclass
class BlockingOp:
    """A blocking operation (pipe send/recv, fork, thread start)."""

    kind: str  # "send" | "recv" | "fork" | "thread_start"
    held: tuple[LockToken, ...]
    line: int
    detail: str = ""


@dataclass
class CallSite:
    """A resolvable call with the locks held at the point of call."""

    target: tuple  # descriptor, resolved to a key after the build
    held: tuple[LockToken, ...]
    line: int
    resolved: str | None = None


@dataclass
class PayloadRef:
    """A lock-bearing value referenced inside a guarded_dumps payload."""

    kind: str  # "lock" | "lock_owner"
    detail: str
    line: int


@dataclass
class ClassInfo:
    """Concurrency-relevant attributes of one class."""

    module: str
    name: str
    bases: list[str] = field(default_factory=list)
    lock_attrs: dict[str, str] = field(default_factory=dict)
    conn_attrs: set[str] = field(default_factory=set)
    special_attrs: dict[str, str] = field(default_factory=dict)
    attr_class: dict[str, str] = field(default_factory=dict)
    elem_class: dict[str, str] = field(default_factory=dict)
    elem_lock: dict[str, str] = field(default_factory=dict)
    methods: dict[str, str] = field(default_factory=dict)
    method_returns: dict[str, str] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"{self.module}::{self.name}"


@dataclass
class FunctionSummary:
    """Everything the checkers need to know about one function."""

    key: str
    module: str
    cls: ClassInfo | None
    name: str
    line: int
    acquisitions: list[Acquisition] = field(default_factory=list)
    blocking: list[BlockingOp] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    payload_refs: list[PayloadRef] = field(default_factory=list)
    pipe_create_lines: list[int] = field(default_factory=list)

    @property
    def symbol(self) -> str:
        return f"{self.cls.name}.{self.name}" if self.cls else self.name


def _terminal_name(expr: ast.AST) -> str | None:
    """``threading.Lock`` -> ``Lock``; ``Lock`` -> ``Lock``."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _ann_terminal(annotation: ast.AST | None) -> str | None:
    """Terminal name of an annotation, unwrapping ``X | None``/Optional."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.BinOp):
        left = _ann_terminal(annotation.left)
        if left is not None and left != "None":
            return left
        return _ann_terminal(annotation.right)
    if isinstance(annotation, ast.Subscript):
        head = _terminal_name(annotation.value)
        if head == "Optional":
            return _ann_terminal(annotation.slice)
        return None
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        # String annotation: "ShardedStorageProvider".
        return annotation.value.split(".")[-1] or None
    return _terminal_name(annotation)


def _is_conn_name(name: str) -> bool:
    return name in _CONN_NAMES or name.endswith(_CONN_SUFFIX)


def _pymodule_to_key(dotted: str, known: set[str]) -> str | None:
    """``repro.sp.affine`` -> ``sp/affine.py`` (``repro`` -> init)."""
    if dotted == "repro":
        return "__init__.py" if "__init__.py" in known else None
    if not dotted.startswith("repro."):
        return None
    rel = dotted[len("repro.") :].replace(".", "/")
    for candidate in (f"{rel}.py", f"{rel}/__init__.py"):
        if candidate in known:
            return candidate
    return None


#: One-slot memo for :meth:`ProjectModel.build_cached`.
_MODEL_CACHE: dict[tuple, "ProjectModel"] = {}


class ProjectModel:
    """The shared interprocedural model; build once, query many times."""

    def __init__(self) -> None:
        self.sources: dict[str, ModuleSource] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.class_names: dict[str, list[str]] = {}
        self.functions: dict[str, FunctionSummary] = {}
        self.module_locks: dict[str, dict[str, str]] = {}
        self.module_functions: dict[str, dict[str, str]] = {}
        self.module_func_returns: dict[str, dict[str, str]] = {}
        self.imports: dict[str, dict[str, tuple]] = {}
        self._keyed_sources: list[ModuleSource] = []
        self.closure_acquires: dict[str, set[LockToken]] = {}
        self.closure_blocking: dict[str, set[str]] = {}

    # -- construction -------------------------------------------------------------

    @classmethod
    def build_cached(cls, sources: list[ModuleSource]) -> "ProjectModel":
        """Build once per distinct source set within a lint run.

        The runner hands every project checker the same parsed
        ``ModuleSource`` objects; keying on their identities lets the
        lock-order and fork-safety rules share one model.  The cached
        model pins the keyed sources so their ids stay live — a fresh
        source object can therefore never collide with a cached key.
        """
        key = tuple(id(src) for src in sources)
        cached = _MODEL_CACHE.get(key)
        if cached is None:
            cached = cls.build(sources)
            cached._keyed_sources = list(sources)
            _MODEL_CACHE.clear()
            _MODEL_CACHE[key] = cached
        return cached

    @classmethod
    def build(cls, sources: list[ModuleSource]) -> "ProjectModel":
        model = cls()
        for src in sources:
            model.sources[src.module] = src
        known = set(model.sources)
        for src in sources:
            model._collect_imports(src, known)
            model._collect_module_level(src)
        for src in sources:
            for node in src.tree.body:
                if isinstance(node, ast.ClassDef):
                    model._collect_class(src, node)
        for src in sources:
            model._walk_module(src)
        model._resolve_calls()
        model._close_over_calls()
        return model

    def _collect_imports(self, src: ModuleSource, known: set[str]) -> None:
        table: dict[str, tuple] = {}
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    key = _pymodule_to_key(alias.name, known)
                    if key:
                        table[alias.asname or alias.name.split(".")[0]] = (
                            "module",
                            key,
                        )
            elif isinstance(node, ast.ImportFrom) and node.module:
                base = _pymodule_to_key(node.module, known)
                for alias in node.names:
                    local = alias.asname or alias.name
                    sub = _pymodule_to_key(
                        f"{node.module}.{alias.name}", known
                    )
                    if sub:
                        table[local] = ("module", sub)
                    elif base:
                        table[local] = ("symbol", base, alias.name)
        self.imports[src.module] = table

    def _collect_module_level(self, src: ModuleSource) -> None:
        locks: dict[str, str] = {}
        funcs: dict[str, str] = {}
        for stmt in src.tree.body:
            if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
                kind = LOCK_CONSTRUCTORS.get(
                    _terminal_name(stmt.value.func) or ""
                )
                if kind:
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            locks[target.id] = kind
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                funcs[stmt.name] = f"{src.module}::{stmt.name}"
                rtype = _ann_terminal(stmt.returns)
                if rtype and rtype[:1].isupper():
                    self.module_func_returns.setdefault(src.module, {})[
                        stmt.name
                    ] = rtype
        self.module_locks[src.module] = locks
        self.module_functions[src.module] = funcs

    def _collect_class(self, src: ModuleSource, node: ast.ClassDef) -> None:
        info = ClassInfo(
            module=src.module,
            name=node.name,
            bases=[b for b in (_terminal_name(base) for base in node.bases) if b],
        )
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                self._classify_attr(
                    info, stmt.target.id, stmt.annotation, stmt.value
                )
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[stmt.name] = f"{info.key}.{stmt.name}"
                returns = _ann_terminal(stmt.returns)
                if returns and returns[:1].isupper():
                    info.method_returns[stmt.name] = returns
                param_ann = {
                    arg.arg: arg.annotation
                    for arg in stmt.args.args + stmt.args.kwonlyargs
                    if arg.annotation is not None
                }
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Assign):
                        for target in sub.targets:
                            if self._is_self_attr(target):
                                # self.x = <param>: adopt the parameter's
                                # annotation as the attribute's.
                                ann = (
                                    param_ann.get(sub.value.id)
                                    if isinstance(sub.value, ast.Name)
                                    else None
                                )
                                self._classify_attr(
                                    info, target.attr, ann, sub.value
                                )
                    elif isinstance(sub, ast.AnnAssign) and self._is_self_attr(
                        sub.target
                    ):
                        self._classify_attr(
                            info, sub.target.attr, sub.annotation, sub.value
                        )
        self.classes[info.key] = info
        self.class_names.setdefault(node.name, []).append(info.key)

    @staticmethod
    def _is_self_attr(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )

    def _classify_attr(
        self,
        info: ClassInfo,
        attr: str,
        annotation: ast.AST | None,
        value: ast.AST | None,
    ) -> None:
        """Record what one attribute is, from annotation and/or value."""
        ann_name = _ann_terminal(annotation)
        if ann_name in LOCK_CONSTRUCTORS:
            info.lock_attrs.setdefault(attr, LOCK_CONSTRUCTORS[ann_name])
        if isinstance(annotation, ast.Subscript):
            # list[X] / dict[K, V]: remember the element class name for
            # resolution once every class is registered.
            elem = annotation.slice
            if isinstance(elem, ast.Tuple) and elem.elts:
                elem = elem.elts[-1]
            elem_name = _terminal_name(elem)
            if elem_name in LOCK_CONSTRUCTORS:
                info.elem_lock.setdefault(attr, LOCK_CONSTRUCTORS[elem_name])
            elif elem_name:
                info.elem_class.setdefault(attr, elem_name)
        if _is_conn_name(attr) or ann_name == "Connection":
            info.conn_attrs.add(attr)
        if ann_name in ("Process", "Thread"):
            info.special_attrs.setdefault(attr, ann_name.lower())
        elif (
            ann_name
            and ann_name not in LOCK_CONSTRUCTORS
            and ann_name != "Connection"
            and ann_name[:1].isupper()
        ):
            # A plain class annotation: resolved against the project's
            # class registry at query time (unknown names just miss).
            info.attr_class.setdefault(attr, ann_name)
        if isinstance(value, ast.Call):
            ctor = _terminal_name(value.func)
            if ctor in LOCK_CONSTRUCTORS:
                info.lock_attrs.setdefault(attr, LOCK_CONSTRUCTORS[ctor])
            elif ctor == "field":
                for kw in value.keywords:
                    if kw.arg == "default_factory":
                        factory = _terminal_name(kw.value)
                        if factory in LOCK_CONSTRUCTORS:
                            info.lock_attrs.setdefault(
                                attr, LOCK_CONSTRUCTORS[factory]
                            )
            elif ctor in ("Process",):
                info.special_attrs.setdefault(attr, "process")
            elif ctor in ("Thread",):
                info.special_attrs.setdefault(attr, "thread")
            elif ctor:
                info.attr_class.setdefault(attr, ctor)

    # -- name / type resolution ---------------------------------------------------

    def resolve_class(
        self, name: str, module: str, _seen: frozenset[str] = frozenset()
    ) -> str | None:
        """Class *name* as visible from *module* -> class key."""
        key = f"{module}::{name}"
        if key in self.classes:
            return key
        if key in _seen:
            # Import cycle (e.g. a module importing a name from itself,
            # as a lint fixture shadowing a real module can) — give up
            # rather than recurse forever.
            return None
        entry = self.imports.get(module, {}).get(name)
        if entry and entry[0] == "symbol":
            target = f"{entry[1]}::{entry[2]}"
            if target in self.classes:
                return target
            # Re-exported class: follow the defining module's imports.
            return self.resolve_class(entry[2], entry[1], _seen | {key})
        candidates = self.class_names.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def resolve_function(
        self, module: str, name: str, hops: int = 0
    ) -> str | None:
        """Function *name* in *module*, chasing re-exports a few hops."""
        key = self.module_functions.get(module, {}).get(name)
        if key:
            return key
        if hops >= 3:
            return None
        entry = self.imports.get(module, {}).get(name)
        if entry:
            if entry[0] == "symbol":
                return self.resolve_function(entry[1], entry[2], hops + 1)
            if entry[0] == "module":
                return None
        cls_key = f"{module}::{name}"
        if cls_key in self.classes:
            init = self.classes[cls_key].methods.get("__init__")
            return init
        return None

    def method_of(self, class_key: str, name: str) -> str | None:
        """Method lookup with a base-class walk."""
        seen: set[str] = set()
        stack = [class_key]
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            info = self.classes.get(key)
            if info is None:
                continue
            if name in info.methods:
                return info.methods[name]
            for base in info.bases:
                resolved = self.resolve_class(base, info.module)
                if resolved:
                    stack.append(resolved)
        return None

    def class_owns_locks(self, class_key: str) -> bool:
        info = self.classes.get(class_key)
        return bool(info and info.lock_attrs)

    def lock_owner_has_conn(self, token: LockToken) -> bool:
        """True when the lock's owning class also owns a pipe endpoint.

        Such locks exist to serialise access to the pipe (the affine
        pool's per-worker locks); holding them across a send is their
        entire purpose and is exempt from the blocking-send rule.
        """
        if not token.owner:
            return False
        info = self.classes.get(f"{token.module}::{token.owner}")
        return bool(info and info.conn_attrs)

    # -- function walking ---------------------------------------------------------

    def _walk_module(self, src: ModuleSource) -> None:
        for node in src.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _FunctionWalker(self, src, None, node, f"{src.module}::{node.name}").run()
            elif isinstance(node, ast.ClassDef):
                info = self.classes[f"{src.module}::{node.name}"]
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        _FunctionWalker(
                            self, src, info, stmt, f"{info.key}.{stmt.name}"
                        ).run()

    def add_summary(self, summary: FunctionSummary) -> None:
        self.functions[summary.key] = summary

    # -- call resolution + closures -----------------------------------------------

    def _resolve_calls(self) -> None:
        for summary in self.functions.values():
            for site in summary.calls:
                site.resolved = self._resolve_descriptor(summary, site.target)

    def _resolve_descriptor(
        self, summary: FunctionSummary, target: tuple
    ) -> str | None:
        kind = target[0]
        if kind == "local":
            return target[1] if target[1] in self.functions else None
        if kind == "method":
            return self.method_of(target[1], target[2])
        if kind == "self":
            if summary.cls is None:
                return None
            return self.method_of(summary.cls.key, target[1])
        if kind == "func":
            resolved = self.resolve_function(target[1], target[2])
            if resolved in self.functions:
                return resolved
            if resolved and resolved not in self.functions:
                return None
            cls_key = self.resolve_class(target[2], target[1])
            if cls_key:
                return self.method_of(cls_key, "__init__")
        return None

    def _close_over_calls(self) -> None:
        """Fixpoint: transitively acquired locks / reachable blocking ops."""
        acquires = {
            key: {acq.token for acq in summary.acquisitions}
            for key, summary in self.functions.items()
        }
        blocking = {
            key: {op.kind for op in summary.blocking}
            for key, summary in self.functions.items()
        }
        edges = {
            key: {
                site.resolved
                for site in summary.calls
                if site.resolved is not None
            }
            for key, summary in self.functions.items()
        }
        changed = True
        while changed:
            changed = False
            for key, callees in edges.items():
                for callee in callees:
                    if callee not in acquires:
                        continue
                    if not acquires[callee] <= acquires[key]:
                        acquires[key] |= acquires[callee]
                        changed = True
                    if not blocking[callee] <= blocking[key]:
                        blocking[key] |= blocking[callee]
                        changed = True
        self.closure_acquires = acquires
        self.closure_blocking = blocking


class _FunctionWalker:
    """Builds one :class:`FunctionSummary` via a lexical statement walk.

    ``self._held`` is the ordered list of lock tokens held at the
    current program point; ``with`` bodies push/pop, bare ``acquire()``
    holds until a matching ``release()`` or function end, branches
    union, and handlers/finally see the post-body state.
    """

    def __init__(
        self,
        model: ProjectModel,
        src: ModuleSource,
        cls: ClassInfo | None,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        key: str,
        outer_locals: dict[str, tuple] | None = None,
    ) -> None:
        self.model = model
        self.src = src
        self.cls = cls
        self.node = node
        self.summary = FunctionSummary(
            key=key,
            module=src.module,
            cls=cls,
            name=node.name,
            line=node.lineno,
        )
        self._held: list[LockToken] = []
        self._locals: dict[str, tuple] = dict(outer_locals or {})
        self._loops: list[tuple[str, str]] = []  # (target names, order kind)
        for arg in node.args.args + node.args.kwonlyargs:
            if arg.arg == "self":
                continue
            if _is_conn_name(arg.arg):
                self._locals[arg.arg] = ("conn",)
            elif arg.annotation is not None:
                ann = _ann_terminal(arg.annotation)
                if ann:
                    resolved = model.resolve_class(ann, src.module)
                    if resolved:
                        self._locals[arg.arg] = ("class", resolved)

    def run(self) -> None:
        self._block(self.node.body)
        self.model.add_summary(self.summary)

    # -- statement dispatch -------------------------------------------------------

    def _block(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self._statement(stmt)

    def _statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            sub_key = f"{self.summary.key}.<locals>.{stmt.name}"
            self._locals[stmt.name] = ("localfunc", sub_key)
            _FunctionWalker(
                self.model, self.src, self.cls, stmt, sub_key, self._locals
            ).run()
            return
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._with(stmt)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._for(stmt)
            return
        if isinstance(stmt, ast.While):
            self._scan_expr(stmt.test)
            self._block(stmt.body)
            self._block(stmt.orelse)
            return
        if isinstance(stmt, ast.If):
            self._scan_expr(stmt.test)
            entry = list(self._held)
            self._block(stmt.body)
            after_body = self._held
            self._held = list(entry)
            self._block(stmt.orelse)
            for token in after_body:
                if token not in self._held:
                    self._held.append(token)
            return
        if isinstance(stmt, ast.Try):
            self._block(stmt.body)
            after_body = list(self._held)
            for handler in stmt.handlers:
                self._held = list(after_body)
                self._block(handler.body)
            self._held = after_body
            self._block(stmt.orelse)
            self._block(stmt.finalbody)
            return
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._assign(stmt)
            return
        # Simple statements: classify every call they contain.
        self._scan_expr(stmt)

    def _with(self, stmt: ast.With | ast.AsyncWith) -> None:
        pushed = 0
        for item in stmt.items:
            token = self._lock_of(item.context_expr)
            if token is not None:
                self._record_acquisition(token, item.context_expr)
                self._held.append(token)
                pushed += 1
            else:
                self._scan_expr(item.context_expr)
        self._block(stmt.body)
        for _ in range(pushed):
            self._held.pop()

    def _for(self, stmt: ast.For | ast.AsyncFor) -> None:
        self._scan_expr(stmt.iter)
        order = self._iter_order(stmt.iter)
        targets = {
            n.id for n in ast.walk(stmt.target) if isinstance(n, ast.Name)
        }
        self._bind_loop_target(stmt.target, stmt.iter)
        self._loops.append(("|".join(sorted(targets)), order))
        self._block(stmt.body)
        self._loops.pop()
        self._block(stmt.orelse)

    def _bind_loop_target(self, target: ast.AST, iterable: ast.AST) -> None:
        """``for worker in self._workers`` -> worker: element class."""
        if not isinstance(target, ast.Name):
            return
        elem = self._elem_type(iterable)
        if elem is not None:
            self._locals[target.id] = elem

    def _assign(
        self, stmt: ast.Assign | ast.AnnAssign | ast.AugAssign
    ) -> None:
        value = stmt.value
        if value is None:
            return
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        inferred = self._value_type(value)
        for target in targets:
            if isinstance(target, ast.Name):
                if inferred is not None and inferred[0] == "newlock":
                    # A function-local lock object gets a token scoped
                    # to this function so acquisitions of it register.
                    self._locals[target.id] = (
                        "lock",
                        LockToken(
                            self.src.module,
                            f"<{self.summary.symbol}>",
                            target.id,
                            inferred[1],
                        ),
                    )
                elif inferred is not None:
                    self._locals[target.id] = inferred
                else:
                    self._locals.pop(target.id, None)
            elif isinstance(target, ast.Tuple) and inferred == ("pipe_pair",):
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        self._locals[elt.id] = ("conn",)
        self._scan_expr(value)

    # -- expression scanning ------------------------------------------------------

    def _scan_expr(self, expr: ast.AST) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._call(node)

    def _call(self, call: ast.Call) -> None:
        func = call.func
        line = call.lineno
        held = tuple(self._held)
        if isinstance(func, ast.Attribute):
            name = func.attr
            base = func.value
            if name == "acquire":
                token = self._lock_of(base)
                if token is not None:
                    self._record_acquisition(token, base)
                    self._held.append(token)
                    return
            elif name == "release":
                token = self._lock_of(base)
                if token is not None:
                    for i in range(len(self._held) - 1, -1, -1):
                        if self._held[i] == token:
                            del self._held[i]
                            break
                    return
            elif name in ("send_bytes", "send") and self._is_conn(base):
                self.summary.blocking.append(
                    BlockingOp("send", held, line, detail=name)
                )
                return
            elif name in ("recv_bytes", "recv") and self._is_conn(base):
                self.summary.blocking.append(
                    BlockingOp("recv", held, line, detail=name)
                )
                return
            elif name == "Pipe":
                self.summary.pipe_create_lines.append(line)
                return
            elif name == "start":
                kind = self._process_or_thread(base)
                if kind is not None:
                    self.summary.blocking.append(
                        BlockingOp(
                            "fork" if kind == "process" else "thread_start",
                            held,
                            line,
                        )
                    )
                    return
            # A resolvable method call.
            receiver = self._type_of(base)
            if isinstance(base, ast.Name) and base.id == "self":
                self.summary.calls.append(CallSite(("self", name), held, line))
            elif receiver is not None and receiver[0] == "class":
                self.summary.calls.append(
                    CallSite(("method", receiver[1], name), held, line)
                )
            elif isinstance(base, ast.Name):
                entry = self.model.imports.get(self.src.module, {}).get(base.id)
                if entry and entry[0] == "module":
                    self.summary.calls.append(
                        CallSite(("func", entry[1], name), held, line)
                    )
        elif isinstance(func, ast.Name):
            if func.id == "guarded_dumps":
                for arg in call.args:
                    self._scan_payload(arg)
            local = self._locals.get(func.id)
            if local is not None and local[0] == "localfunc":
                self.summary.calls.append(
                    CallSite(("local", local[1]), held, line)
                )
            elif func.id == "Pipe":
                self.summary.pipe_create_lines.append(line)
            else:
                self.summary.calls.append(
                    CallSite(("func", self.src.module, func.id), held, line)
                )

    def _record_acquisition(self, token: LockToken, expr: ast.AST) -> None:
        names = {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
        loop_order = None
        for targets, order in reversed(self._loops):
            if names & set(targets.split("|")):
                loop_order = order
                break
        self.summary.acquisitions.append(
            Acquisition(
                token=token,
                held=tuple(self._held),
                line=getattr(expr, "lineno", self.node.lineno),
                loop_order=loop_order,
            )
        )

    def _scan_payload(self, expr: ast.AST) -> None:
        """Flag locks / lock-owning objects inside a dumps payload.

        Top-down with subtree pruning, so ``self._lock`` reports once
        (as a lock) rather than again for the ``self`` inside it.
        """
        token = self._lock_of(expr)
        if token is not None:
            self.summary.payload_refs.append(
                PayloadRef("lock", str(token), expr.lineno)
            )
            return
        ref = self._type_of(expr)
        if (
            ref is not None
            and ref[0] == "class"
            and self.model.class_owns_locks(ref[1])
        ):
            self.summary.payload_refs.append(
                PayloadRef("lock_owner", ref[1], expr.lineno)
            )
            return
        for child in ast.iter_child_nodes(expr):
            self._scan_payload(child)

    # -- type inference -----------------------------------------------------------

    def _value_type(self, value: ast.AST) -> tuple | None:
        if isinstance(value, ast.Call):
            name = _terminal_name(value.func)
            if name == "sorted":
                return ("ordered",)
            if name == "Pipe":
                return ("pipe_pair",)
            if name in ("set", "frozenset"):
                return ("unordered",)
            if name in ("Process",):
                return ("process",)
            if name in ("Thread",):
                return ("thread",)
            if name in LOCK_CONSTRUCTORS:
                return ("newlock", LOCK_CONSTRUCTORS[name])
            if name:
                resolved = self.model.resolve_class(name, self.src.module)
                if resolved:
                    return ("class", resolved)
            return None
        if isinstance(value, (ast.Set, ast.SetComp, ast.DictComp, ast.Dict)):
            return ("unordered",)
        if isinstance(value, (ast.List, ast.ListComp, ast.Tuple)):
            return ("sequence",)
        if isinstance(value, ast.Name):
            return self._locals.get(value.id)
        inferred = self._type_of(value)
        return inferred

    def _type_of(self, expr: ast.AST) -> tuple | None:
        if isinstance(expr, ast.Name):
            if expr.id == "self" and self.cls is not None:
                return ("class", self.cls.key)
            return self._locals.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = self._class_info_of(expr.value)
            if owner is None:
                return None
            attr = expr.attr
            if attr in owner.special_attrs:
                return (owner.special_attrs[attr],)
            if attr in owner.conn_attrs:
                return ("conn",)
            if attr in owner.attr_class:
                resolved = self.model.resolve_class(
                    owner.attr_class[attr], owner.module
                )
                if resolved:
                    return ("class", resolved)
            return None
        if isinstance(expr, ast.Subscript):
            elem = self._elem_type(expr.value)
            return elem
        if isinstance(expr, ast.Call):
            # Use the callee's return annotation when it names a class:
            # self.counter(name).inc(...) resolves through ``-> Counter``.
            func = expr.func
            returns = None
            owner_module = self.src.module
            if isinstance(func, ast.Attribute):
                owner = self._class_info_of(func.value)
                if owner is not None:
                    returns = owner.method_returns.get(func.attr)
                    owner_module = owner.module
            elif isinstance(func, ast.Name):
                returns = self.model.module_func_returns.get(
                    self.src.module, {}
                ).get(func.id)
            if returns:
                resolved = self.model.resolve_class(returns, owner_module)
                if resolved:
                    return ("class", resolved)
        return None

    def _elem_type(self, expr: ast.AST) -> tuple | None:
        """Element type of a subscripted / iterated container."""
        if isinstance(expr, ast.Attribute):
            owner = self._class_info_of(expr.value)
            if owner is not None and expr.attr in owner.elem_class:
                resolved = self.model.resolve_class(
                    owner.elem_class[expr.attr], owner.module
                )
                if resolved:
                    return ("class", resolved)
        return None

    def _class_info_of(self, expr: ast.AST) -> ClassInfo | None:
        ref = self._type_of(expr)
        if ref is not None and ref[0] == "class":
            return self.model.classes.get(ref[1])
        return None

    def _lock_of(self, expr: ast.AST) -> LockToken | None:
        if isinstance(expr, ast.Call):
            # with self._rwlock.read(): / .write()
            func = expr.func
            if isinstance(func, ast.Attribute) and func.attr in ("read", "write"):
                inner = self._lock_of(func.value)
                if inner is not None and inner.kind == "rwlock":
                    return LockToken(
                        inner.module,
                        inner.owner,
                        inner.attr,
                        "rwlock",
                        mode=func.attr,
                    )
            return None
        if isinstance(expr, ast.Name):
            local = self._locals.get(expr.id)
            if local is not None and local[0] == "lock":
                return local[1]
            kind = self.model.module_locks.get(self.src.module, {}).get(expr.id)
            if kind:
                return LockToken(self.src.module, "", expr.id, kind)
            return None
        if isinstance(expr, ast.Attribute):
            owner = self._class_info_of(expr.value)
            if owner is not None and expr.attr in owner.lock_attrs:
                return LockToken(
                    owner.module,
                    owner.name,
                    expr.attr,
                    owner.lock_attrs[expr.attr],
                )
            return None
        if isinstance(expr, ast.Subscript) and isinstance(
            expr.value, ast.Attribute
        ):
            # self._locks[key] where _locks is a container of locks.
            owner = self._class_info_of(expr.value.value)
            if owner is not None and expr.value.attr in owner.elem_lock:
                return LockToken(
                    owner.module,
                    owner.name,
                    expr.value.attr,
                    owner.elem_lock[expr.value.attr],
                )
        return None

    def _is_conn(self, expr: ast.AST) -> bool:
        ref = self._type_of(expr)
        if ref == ("conn",):
            return True
        if isinstance(expr, ast.Name) and _is_conn_name(expr.id):
            return True
        if isinstance(expr, ast.Attribute) and _is_conn_name(expr.attr):
            owner = self._class_info_of(expr.value)
            if owner is not None:
                return expr.attr in owner.conn_attrs
        return False

    def _process_or_thread(self, expr: ast.AST) -> str | None:
        ref = self._type_of(expr)
        if ref in (("process",), ("thread",)):
            return ref[0]
        return None

    def _iter_order(self, expr: ast.AST) -> str:
        if isinstance(expr, ast.Call):
            name = _terminal_name(expr.func)
            if name == "sorted":
                return ORDER_SORTED
            if name in ("set", "frozenset"):
                return ORDER_UNORDERED
            if name in ("enumerate", "zip", "reversed", "range", "list", "tuple"):
                return ORDER_SEQUENCE
            return ORDER_SEQUENCE
        if isinstance(expr, (ast.Set, ast.SetComp, ast.Dict, ast.DictComp)):
            return ORDER_UNORDERED
        if isinstance(expr, ast.Name):
            local = self._locals.get(expr.id)
            if local == ("ordered",):
                return ORDER_SORTED
            if local == ("unordered",):
                return ORDER_UNORDERED
        return ORDER_SEQUENCE
