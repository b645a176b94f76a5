"""Runtime lock-order sanitizer ("tsan-lite") for the repro tree.

The static :mod:`repro.analysis.concurrency` pass proves what *may*
happen; this module watches what *does*.  With ``REPRO_SANITIZE=1`` in
the environment, importing :mod:`repro` calls :func:`install`, which

* replaces the ``threading.Lock`` / ``threading.RLock`` factories with
  wrappers that record, per thread, the stack of locks currently held —
  only locks created from repro or test code are wrapped, stdlib
  internals keep native locks;
* builds the **observed** lock-order graph: acquiring ``B`` while
  holding ``A`` adds the edge ``A -> B`` with the first-observed
  acquisition stacks; an edge whose reverse path already exists is a
  lock-order **inversion** and is recorded as a violation immediately —
  no need for the unlucky interleaving that would actually deadlock;
* hooks ``os.register_at_fork``: a fork while the forking thread holds
  a sanitized lock is a violation (the child inherits a mutex nobody
  will release); locks held by *other* threads at fork are recorded as
  info events;
* patches ``multiprocessing.connection.Connection`` send/recv: blocking
  on a pipe while holding a sanitized lock is a violation unless the
  lock was blessed with :func:`mark_pipe_lock` (the affine pool's
  per-worker locks exist to serialise pipe access).

Findings are exported three ways: :func:`report` (a plain dict, also
pushed into ``obs`` as ``sanitize.*`` metrics), a JSON dump written to
``$REPRO_SANITIZE_OUT`` at interpreter exit, and the pytest session
gate in ``tests/conftest.py`` which fails the run on any violation.
``repro-lint --sanitize-report FILE`` renders a dump for humans.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import threading
import traceback
from typing import Any

__all__ = [
    "SanitizedLock",
    "SanitizedRLock",
    "install",
    "installed",
    "mark_pipe_lock",
    "report",
    "reset",
    "state",
    "uninstall",
]

_ORIG_LOCK = threading.Lock
_ORIG_RLOCK = threading.RLock

#: Path fragments that mark a frame as "our" code (worth sanitizing).
_OWN_FRAGMENTS = (os.sep + "repro" + os.sep, os.sep + "tests" + os.sep)
_SKIP_FRAGMENTS = (os.sep + "site-packages" + os.sep,)

#: Frames that construct locks *on behalf of* their caller and should
#: be looked through when deciding ownership: this module's factories
#: and the stdlib ``threading`` wrappers (Condition/Event/Barrier build
#: their internal locks inside threading.py, but the lock belongs to
#: whoever constructed the wrapper).
_PASSTHROUGH_FILES = (__file__, threading.__file__)

#: How many stack frames a recorded acquisition keeps.
_STACK_DEPTH = 12


def _caller_is_ours(depth: int = 2, limit: int = 10) -> bool:
    """Whether the lock's *immediate* creator is repro or test code.

    Only the nearest non-pass-through frame decides.  Scanning deeper
    would claim locks that stdlib machinery creates for itself on a
    call path that merely started in repro code (a ``queue.Queue``'s
    mutex, say), whose discipline is the stdlib's, not ours to police.
    """
    frame = sys._getframe(depth)
    for _ in range(limit):
        if frame is None:
            return False
        filename = frame.f_code.co_filename
        if filename in _PASSTHROUGH_FILES:
            frame = frame.f_back
            continue
        if any(fragment in filename for fragment in _SKIP_FRAGMENTS):
            return False
        return any(fragment in filename for fragment in _OWN_FRAGMENTS)
    return False


def _creation_site(depth: int = 2, limit: int = 10) -> str:
    """``file:line`` of the nearest repro/test frame, for lock naming."""
    frame = sys._getframe(depth)
    fallback = ""
    for _ in range(limit):
        if frame is None:
            break
        filename = frame.f_code.co_filename
        if not fallback:
            fallback = f"{os.path.basename(filename)}:{frame.f_lineno}"
        if any(fragment in filename for fragment in _OWN_FRAGMENTS):
            return f"{os.path.basename(filename)}:{frame.f_lineno}"
        frame = frame.f_back
    return fallback or "<unknown>"


def _stack(skip: int = 3) -> list[str]:
    """A short, rendered acquisition stack (innermost last)."""
    frames = traceback.extract_stack(sys._getframe(skip), limit=_STACK_DEPTH)
    return [f"{os.path.basename(f.filename)}:{f.lineno}:{f.name}" for f in frames]


class SanitizerState:
    """Observed lock-order graph plus per-thread held stacks."""

    def __init__(self) -> None:
        # A native (unwrapped) mutex: everything below mutates under it,
        # and it must never itself be sanitized or recording recurses.
        self._mutex = _ORIG_LOCK()
        self.locks: list[SanitizedLock] = []  # strong refs: ids stay live
        self.held_by_thread: dict[int, list[SanitizedLock]] = {}
        #: adjacency over ``id(lock)``: edges observed held -> acquired.
        self.adj: dict[int, set[int]] = {}
        #: first witness per edge: (src_name, dst_name, stack).
        self.edge_witness: dict[tuple[int, int], dict[str, Any]] = {}
        self.violations: list[dict[str, Any]] = []
        self.infos: list[dict[str, Any]] = []
        self.acquisitions = 0

    # -- bookkeeping ----------------------------------------------------------

    def register_lock(self, lock: SanitizedLock) -> None:
        with self._mutex:
            self.locks.append(lock)

    def on_acquired(self, lock: SanitizedLock) -> None:
        """Record a successful acquire by the current thread."""
        tid = threading.get_ident()
        new_violations: list[dict[str, Any]] = []
        with self._mutex:
            self.acquisitions += 1
            held = self.held_by_thread.setdefault(tid, [])
            stack = _stack()
            for prior in held:
                if prior is lock:  # re-entrant RLock acquire
                    continue
                edge = (id(prior), id(lock))
                if edge in self.edge_witness:
                    continue
                if self._path_exists(id(lock), id(prior)):
                    new_violations.append(
                        {
                            "kind": "lock-order-inversion",
                            "thread": tid,
                            "message": (
                                f"acquiring {lock.name} while holding "
                                f"{prior.name}, but the observed order "
                                f"already goes {lock.name} -> ... -> "
                                f"{prior.name}"
                            ),
                            "stack": stack,
                            "reverse_witness": self._witness_chain(
                                id(lock), id(prior)
                            ),
                        }
                    )
                self.adj.setdefault(id(prior), set()).add(id(lock))
                self.edge_witness[edge] = {
                    "src": prior.name,
                    "dst": lock.name,
                    "stack": stack,
                }
            held.append(lock)
            self.violations.extend(new_violations)

    def on_released(self, lock: SanitizedLock) -> None:
        tid = threading.get_ident()
        with self._mutex:
            held = self.held_by_thread.get(tid, [])
            for i in range(len(held) - 1, -1, -1):
                if held[i] is lock:
                    del held[i]
                    break

    def drop_all(self, lock: SanitizedLock) -> int:
        """Remove every held entry for ``lock`` (RLock ``_release_save``)."""
        tid = threading.get_ident()
        with self._mutex:
            held = self.held_by_thread.get(tid, [])
            count = sum(1 for h in held if h is lock)
            held[:] = [h for h in held if h is not lock]
        return count

    def held_now(self) -> list[SanitizedLock]:
        tid = threading.get_ident()
        with self._mutex:
            return list(self.held_by_thread.get(tid, []))

    def held_elsewhere(self) -> dict[int, list[SanitizedLock]]:
        tid = threading.get_ident()
        with self._mutex:
            return {
                other: list(held)
                for other, held in self.held_by_thread.items()
                if other != tid and held
            }

    def clear_thread_state(self) -> None:
        """Forget inherited held stacks (after fork, in the child)."""
        with self._mutex:
            self.held_by_thread.clear()

    def add_violation(self, violation: dict[str, Any]) -> None:
        with self._mutex:
            self.violations.append(violation)

    def add_info(self, info: dict[str, Any]) -> None:
        with self._mutex:
            self.infos.append(info)

    # -- graph queries (call with self._mutex held) ---------------------------

    def _path_exists(self, start: int, goal: int) -> bool:
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            if node == goal:
                return True
            for nxt in self.adj.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    def _witness_chain(self, start: int, goal: int) -> list[dict[str, Any]]:
        """Edge witnesses along one ``start -> ... -> goal`` path."""
        parents: dict[int, int] = {}
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop(0)
            if node == goal:
                break
            for nxt in self.adj.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    parents[nxt] = node
                    frontier.append(nxt)
        if goal not in seen:
            return []
        chain: list[tuple[int, int]] = []
        node = goal
        while node != start:
            parent = parents[node]
            chain.append((parent, node))
            node = parent
        return [self.edge_witness[edge] for edge in reversed(chain)]


class SanitizedLock:
    """A ``threading.Lock`` that reports into the sanitizer graph."""

    _kind = "Lock"

    def __init__(self, name: str | None = None):
        self._real = _ORIG_LOCK()
        self.name = f"{self._kind}({name or _creation_site(3)})"
        self.pipe_exempt = False
        state_ = _STATE
        if state_ is not None:
            state_.register_lock(self)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._real.acquire(blocking, timeout)
        if got and _STATE is not None:
            _STATE.on_acquired(self)
        return got

    def release(self) -> None:
        if _STATE is not None:
            _STATE.on_released(self)
        self._real.release()

    def locked(self) -> bool:
        return self._real.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class SanitizedRLock(SanitizedLock):
    """Re-entrant variant, Condition-compatible."""

    _kind = "RLock"

    def __init__(self, name: str | None = None):
        super().__init__(name)
        self._real = _ORIG_RLOCK()

    # Condition(lock) captures these when present; keeping the held
    # bookkeeping in sync means a Condition.wait() shows as released.
    def _is_owned(self) -> bool:
        return self._real._is_owned()

    def _release_save(self):
        count = _STATE.drop_all(self) if _STATE is not None else 0
        return (self._real._release_save(), count)

    def _acquire_restore(self, saved) -> None:
        real_state, count = saved
        self._real._acquire_restore(real_state)
        if _STATE is not None:
            for _ in range(count):
                _STATE.on_acquired(self)


_STATE: SanitizerState | None = None
_INSTALLED = False
_FORK_HOOK_REGISTERED = False
_ORIG_CONN_METHODS: dict[str, Any] = {}


# NOTE: no obs calls on the acquire/release/violation hot paths — a
# metrics counter is itself lock-guarded, so reporting into obs from
# inside lock bookkeeping can re-enter the very lock being recorded
# (registry._lock -> new Counter -> sanitized lock -> obs.inc ->
# registry._lock).  Metrics are published only from report().


def _lock_factory(*args, **kwargs):
    if _STATE is not None and _caller_is_ours():
        return SanitizedLock()
    return _ORIG_LOCK(*args, **kwargs)


def _rlock_factory(*args, **kwargs):
    if _STATE is not None and _caller_is_ours():
        return SanitizedRLock()
    return _ORIG_RLOCK(*args, **kwargs)


def _check_blocking(op: str) -> None:
    state_ = _STATE
    if state_ is None:
        return
    offenders = [
        lock for lock in state_.held_now() if not lock.pipe_exempt
    ]
    if offenders:
        state_.add_violation(
            {
                "kind": "blocking-under-lock",
                "thread": threading.get_ident(),
                "message": (
                    f"Connection.{op} while holding "
                    + ", ".join(lock.name for lock in offenders)
                ),
                "stack": _stack(),
            }
        )


def _before_fork() -> None:
    state_ = _STATE
    if state_ is None:
        return
    held = state_.held_now()
    if held:
        state_.add_violation(
            {
                "kind": "held-at-fork",
                "thread": threading.get_ident(),
                "message": (
                    "fork() while holding "
                    + ", ".join(lock.name for lock in held)
                    + "; the child inherits a locked mutex"
                ),
                "stack": _stack(),
            }
        )
    for tid, locks in state_.held_elsewhere().items():
        state_.add_info(
            {
                "kind": "fork-while-other-thread-holds",
                "thread": tid,
                "message": (
                    f"thread {tid} holds "
                    + ", ".join(lock.name for lock in locks)
                    + " at fork"
                ),
            }
        )


def _after_fork_child() -> None:
    if _STATE is not None:
        _STATE.clear_thread_state()


def install() -> SanitizerState:
    """Activate the sanitizer; idempotent.  Returns the live state."""
    global _STATE, _INSTALLED, _FORK_HOOK_REGISTERED
    if _INSTALLED:
        assert _STATE is not None
        return _STATE
    _STATE = SanitizerState()
    _INSTALLED = True

    threading.Lock = _lock_factory
    threading.RLock = _rlock_factory

    try:
        from multiprocessing import connection as mpc
    except ImportError:  # pragma: no cover - mp always present on linux
        mpc = None
    if mpc is not None and not _ORIG_CONN_METHODS:
        for op in ("send_bytes", "send", "recv_bytes", "recv"):
            original = getattr(mpc.Connection, op)
            _ORIG_CONN_METHODS[op] = original

            def patched(self, *args, _op=op, _original=original, **kwargs):
                _check_blocking(_op)
                return _original(self, *args, **kwargs)

            setattr(mpc.Connection, op, patched)

    if not _FORK_HOOK_REGISTERED and hasattr(os, "register_at_fork"):
        # register_at_fork cannot be undone; the hooks no-op when the
        # sanitizer is uninstalled.
        os.register_at_fork(
            before=_before_fork, after_in_child=_after_fork_child
        )
        _FORK_HOOK_REGISTERED = True

    out = os.environ.get("REPRO_SANITIZE_OUT")
    if out:
        atexit.register(_dump_at_exit, out)
    return _STATE


def uninstall() -> None:
    """Restore the patched factories; the last state stays queryable."""
    global _INSTALLED
    if not _INSTALLED:
        return
    threading.Lock = _ORIG_LOCK
    threading.RLock = _ORIG_RLOCK
    if _ORIG_CONN_METHODS:
        from multiprocessing import connection as mpc

        for op, original in _ORIG_CONN_METHODS.items():
            setattr(mpc.Connection, op, original)
        _ORIG_CONN_METHODS.clear()
    _INSTALLED = False


def installed() -> bool:
    return _INSTALLED


def state() -> SanitizerState | None:
    """The live (or, after uninstall, last) sanitizer state."""
    return _STATE


def reset() -> None:
    """Drop accumulated observations, keeping the hooks in place."""
    global _STATE
    if _STATE is not None:
        _STATE = SanitizerState()


def mark_pipe_lock(lock: object) -> object:
    """Bless a lock that exists to serialise pipe access.

    Such a lock (the affine pool's per-worker lock) is *expected* to be
    held across ``Connection.send``/``recv``; marking it keeps the
    blocking-under-lock check focused on accidental holds.  A no-op for
    native locks (sanitizer off).
    """
    if isinstance(lock, SanitizedLock):
        lock.pipe_exempt = True
    return lock


def report() -> dict[str, Any]:
    """Snapshot of the observed graph, also pushed to ``sanitize.*``."""
    state_ = _STATE
    if state_ is None:
        return {
            "installed": False,
            "locks": 0,
            "edges": [],
            "violations": [],
            "infos": [],
        }
    with state_._mutex:
        snapshot = {
            "installed": _INSTALLED,
            "locks": len(state_.locks),
            "acquisitions": state_.acquisitions,
            "edges": list(state_.edge_witness.values()),
            "violations": list(state_.violations),
            "infos": list(state_.infos),
        }
    try:
        from repro import obs
    except ImportError:  # pragma: no cover - obs is part of the tree
        return snapshot
    obs.set_gauge("sanitize.locks", snapshot["locks"])
    obs.set_gauge("sanitize.acquisitions", snapshot["acquisitions"])
    obs.set_gauge("sanitize.edges", len(snapshot["edges"]))
    obs.set_gauge("sanitize.violation_count", len(snapshot["violations"]))
    return snapshot


def _dump_at_exit(path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report(), fh, indent=2, sort_keys=True)
    except OSError:  # pragma: no cover - exit-path best effort
        pass


def render_report(snapshot: dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`report` dict / JSON dump."""
    lines = [
        f"sanitizer: {snapshot.get('locks', 0)} lock(s), "
        f"{snapshot.get('acquisitions', 0)} acquisition(s), "
        f"{len(snapshot.get('edges', []))} order edge(s)",
    ]
    for edge in snapshot.get("edges", []):
        lines.append(f"  order: {edge['src']} -> {edge['dst']}")
    violations = snapshot.get("violations", [])
    for violation in violations:
        lines.append(f"VIOLATION [{violation['kind']}]: {violation['message']}")
        for frame in violation.get("stack", [])[-6:]:
            lines.append(f"    at {frame}")
        for witness in violation.get("reverse_witness", []):
            lines.append(
                f"    reverse edge {witness['src']} -> {witness['dst']} "
                f"first seen at {witness['stack'][-1] if witness['stack'] else '?'}"
            )
    for info in snapshot.get("infos", []):
        lines.append(f"info [{info['kind']}]: {info['message']}")
    lines.append(
        f"{len(violations)} violation(s)"
        if violations
        else "no violations"
    )
    return "\n".join(lines)
