"""Tests for the cross-module concurrency rules.

Each sub-rule of ``lock-order`` and ``fork-safety`` gets a triggering
fixture and a clean counterpart.  The fixtures mirror the architectural
shapes of the real tree (facade rwlock, per-worker pipe locks) so the
rules keep guarding the idioms they were written for.
"""

import os

from repro.analysis import lint_source, run_lint
from repro.analysis.framework import default_checkers

FIXTURE = os.path.join(os.path.dirname(__file__), "lockorder_fixture.py")


def rules(findings):
    return [f.rule for f in findings]


def order_checkers():
    return default_checkers(["lock-order"])


def fork_checkers():
    return default_checkers(["fork-safety"])


# -- lock-order ---------------------------------------------------------------

INVERSION = """\
import threading

_lock_a = threading.Lock()
_lock_b = threading.Lock()


def first():
    with _lock_a:
        with _lock_b:
            pass


def second():
    with _lock_b:
        with _lock_a:
            pass
"""

SELF_DEADLOCK = """\
import threading


class Box:
    def __init__(self):
        self._lock = threading.Lock()

    def outer(self):
        with self._lock:
            self.inner()

    def inner(self):
        with self._lock:
            pass
"""

RLOCK_REENTRY = SELF_DEADLOCK.replace("threading.Lock()", "threading.RLock()")

UNORDERED_LOOP = """\
import threading


class Pool:
    def __init__(self):
        self._locks: dict[int, threading.Lock] = {}

    def grab(self, wanted):
        for shard in {s for s in wanted}:
            self._locks[shard].acquire()
"""

SORTED_LOOP = """\
import threading


class Pool:
    def __init__(self):
        self._locks: dict[int, threading.Lock] = {}

    def grab(self, wanted):
        for shard in sorted(wanted):
            self._locks[shard].acquire()
"""


class TestLockOrder:
    def test_inversion_cycle_across_functions(self):
        findings = lint_source(INVERSION, "fix_inv.py", order_checkers())
        assert rules(findings) == ["lock-order"]
        assert "lock-order cycle" in findings[0].message
        assert "_lock_a" in findings[0].message
        assert "_lock_b" in findings[0].message

    def test_consistent_order_is_clean(self):
        consistent = INVERSION.replace(
            "with _lock_b:\n        with _lock_a:",
            "with _lock_a:\n        with _lock_b:",
        )
        assert lint_source(consistent, "fix_ok.py", order_checkers()) == []

    def test_mutex_self_deadlock_through_call(self):
        findings = lint_source(SELF_DEADLOCK, "fix_self.py", order_checkers())
        assert rules(findings) == ["lock-order"]
        assert "already held" in findings[0].message
        assert findings[0].symbol == "Box.outer"

    def test_rlock_reentry_is_clean(self):
        assert lint_source(RLOCK_REENTRY, "fix_re.py", order_checkers()) == []

    def test_unordered_per_element_iteration(self):
        findings = lint_source(UNORDERED_LOOP, "fix_uno.py", order_checkers())
        assert rules(findings) == ["lock-order"]
        assert "unordered container" in findings[0].message

    def test_sorted_per_element_iteration_is_clean(self):
        assert lint_source(SORTED_LOOP, "fix_srt.py", order_checkers()) == []

    def test_fixture_module_detected_from_disk(self):
        result = run_lint([FIXTURE], order_checkers())
        assert rules(result.findings) == ["lock-order"]
        assert "lock-order cycle" in result.findings[0].message


# -- fork-safety --------------------------------------------------------------

HELD_AT_FORK = """\
import threading


class Spawner:
    def __init__(self):
        self._lock = threading.Lock()

    def go(self, ctx):
        with self._lock:
            process = ctx.Process(target=print)
            process.start()
"""

SEND_UNDER_LOCK = """\
import threading


class Endpoint:
    def __init__(self, conn):
        self.conn = conn


class Manager:
    def __init__(self, endpoint: Endpoint):
        self._lock = threading.Lock()
        self.endpoint = endpoint

    def push(self, data):
        with self._lock:
            self.endpoint.conn.send_bytes(data)
"""

TRANSITIVE_SEND = """\
import threading


class Endpoint:
    def __init__(self, conn):
        self.conn = conn

    def ship(self, data):
        self.conn.send_bytes(data)


class Manager:
    def __init__(self, endpoint: Endpoint):
        self._lock = threading.Lock()
        self.endpoint = endpoint

    def push(self, data):
        with self._lock:
            self.endpoint.ship(data)
"""

FORK_WINDOW = """\
import threading


class Boot:
    def start(self, ctx):
        parent_conn, child_conn = ctx.Pipe()
        other_lock = threading.Lock()
        other_lock.acquire()
        other_lock.release()
        process = ctx.Process(target=print)
        process.start()
"""

LOCK_IN_PAYLOAD = """\
import threading
from repro.sp.affine import guarded_dumps


class Holder:
    def __init__(self):
        self._lock = threading.Lock()

    def pack(self):
        return guarded_dumps((1, self._lock))
"""

PIPE_LOCK_EXEMPT = """\
import threading


class Endpoint:
    def __init__(self, conn):
        self.conn = conn
        self.lock = threading.Lock()

    def push(self, data):
        with self.lock:
            self.conn.send_bytes(data)
"""


class TestForkSafety:
    def test_fork_while_holding_lock(self):
        findings = lint_source(HELD_AT_FORK, "fix_fork.py", fork_checkers())
        assert rules(findings) == ["fork-safety"]
        assert "Process.start()" in findings[0].message

    def test_send_under_unrelated_lock(self):
        findings = lint_source(SEND_UNDER_LOCK, "fix_send.py", fork_checkers())
        assert rules(findings) == ["fork-safety"]
        assert "blocking Connection.send_bytes" in findings[0].message

    def test_transitive_send_through_callee(self):
        findings = lint_source(TRANSITIVE_SEND, "fix_ts.py", fork_checkers())
        assert rules(findings) == ["fork-safety"]
        assert "can block on a pipe" in findings[0].message
        assert findings[0].symbol == "Manager.push"

    def test_lock_acquired_in_fork_window(self):
        findings = lint_source(FORK_WINDOW, "fix_win.py", fork_checkers())
        assert rules(findings) == ["fork-safety"]
        assert "between pipe setup and" in findings[0].message

    def test_lock_in_guarded_dumps_payload(self):
        findings = lint_source(LOCK_IN_PAYLOAD, "fix_pay.py", fork_checkers())
        assert rules(findings) == ["fork-safety"]
        assert "guarded_dumps payload" in findings[0].message

    def test_conn_owning_lock_is_exempt(self):
        # The _Worker shape: a lock whose class owns the pipe endpoint
        # exists to serialise pipe access and may be held across sends.
        assert lint_source(PIPE_LOCK_EXEMPT, "fix_ok.py", fork_checkers()) == []


# -- the real tree ------------------------------------------------------------


class TestRealTree:
    def test_src_repro_is_clean(self):
        here = os.path.dirname(__file__)
        src = os.path.abspath(os.path.join(here, "..", "..", "src", "repro"))
        checkers = default_checkers(["lock-order", "fork-safety"])
        result = run_lint([src], checkers)
        assert result.errors == []
        assert result.findings == []
