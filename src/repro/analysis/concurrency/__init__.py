"""Interprocedural concurrency analysis: lock order, fork/pipe safety.

The module-local ``lock-discipline`` rule (PR 3) checks that guarded
state stays under its lock; it cannot see *across* functions or modules,
which is where the dangerous concurrency bugs live — a lock-order cycle
between ``core/system.py`` and ``sp/affine.py``, a lock held across
``AffineWorkerPool``'s fork, a blocking pipe send reachable under a
mutex.  This package builds one whole-project model
(:class:`~repro.analysis.concurrency.model.ProjectModel`: per-class
lock/connection attribute inference, function summaries with lexical
held-set tracking, a resolved call graph, and fixpoint closures of
transitively acquired locks and blocking operations) and runs three
rules over it:

* ``lock-order`` — cycles in the may-hold-while-acquiring graph, plus
  per-element locks acquired while iterating a nondeterministically
  ordered container;
* ``fork-safety`` — locks held at a ``Process.start()`` fork point,
  lock acquisition or thread starts inside the pipe-setup/fork window,
  blocking ``Connection`` send/recv reachable while a mutex is held,
  and lock-bearing objects flowing into ``guarded_dumps`` payloads;
* ``pipe-protocol`` — the affine pool's one-reply-per-request
  invariant (every tracked send paired with pending accounting and a
  post-send drain loop; one pending pop per recv).

The static pass is paired with the runtime detector in
:mod:`repro.analysis.sanitize` (``REPRO_SANITIZE=1``), which observes
the same invariants on the *executed* lock-order graph.
"""

from repro.analysis.concurrency.forksafety import ForkSafetyChecker
from repro.analysis.concurrency.lockorder import LockOrderChecker
from repro.analysis.concurrency.model import LockToken, ProjectModel
from repro.analysis.concurrency.pipeprotocol import PipeProtocolChecker

__all__ = [
    "ForkSafetyChecker",
    "LockOrderChecker",
    "LockToken",
    "PipeProtocolChecker",
    "ProjectModel",
]
