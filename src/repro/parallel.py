"""Pluggable execution policy for CPU-heavy pipeline stages.

The SP evaluates each DNF conjunct independently — embarrassingly
parallel over pure functions.  This module provides the executor
abstraction threaded through
:class:`~repro.core.system.HybridStorageSystem` and the SP front-end
(client verification runs in the caller: it settles a query's openings
as one batch, which copies of the proof system in workers could not):

* ``serial`` (default) — plain in-process iteration, zero overhead;
* ``thread`` — a :class:`~concurrent.futures.ThreadPoolExecutor`; under
  CPython the big-int exponentiations hold the GIL, so this mainly
  overlaps unrelated work, but it is dependency-free and safe;
* ``process`` — a :class:`~concurrent.futures.ProcessPoolExecutor` for
  genuine multi-core scaling; task functions and their arguments must be
  picklable (ours are module-level functions over dataclasses).

Executors preserve input order and propagate the first raised exception,
so swapping ``serial`` for ``thread``/``process`` never changes
observable behaviour — only wall-clock time.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import traceback
from concurrent import futures
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from repro.errors import ParameterError
from repro.obs import trace as obs_trace
from repro.obs import xproc

T = TypeVar("T")
R = TypeVar("R")

#: Executor kinds accepted by :func:`make_executor`.
EXECUTOR_KINDS = ("serial", "thread", "process")


def available_cpus() -> int:
    """CPU cores actually available to this process (affinity-aware).

    ``os.cpu_count()`` reports the machine, not the cgroup/affinity
    mask a CI runner or container grants us — benchmarks keying scaling
    expectations on it silently compare against cores they never had.
    Prefers ``os.process_cpu_count`` (3.13+), then the scheduler
    affinity mask, then the plain count.
    """
    getter = getattr(os, "process_cpu_count", None)
    if getter is not None:
        count = getter()
        if count:
            return count
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


class RemoteTraceback(Exception):
    """Carries a worker's formatted traceback across the pool boundary.

    Process pools pickle exceptions back to the parent, which discards
    the worker-side traceback — the parent's stack then points at the
    ``map`` call instead of the line that failed.  We capture the
    formatted traceback in the worker and chain it onto the re-raised
    exception as its ``__cause__``, so ``raise`` sites inside workers
    stay visible in the parent's error output for both pool kinds.
    """

    def __init__(self, formatted: str) -> None:
        super().__init__(formatted)
        self.formatted = formatted

    def __str__(self) -> str:
        return f"\n\n(worker traceback)\n{self.formatted}"


def _guarded_call(fn: Callable[[T], R], item: T) -> tuple[bool, object]:
    """Run one task, capturing any exception with its traceback text.

    Module-level (not a closure) so process pools can pickle it.
    """
    try:
        return True, fn(item)
    except BaseException as exc:  # noqa: B036 - re-raised in the parent
        return False, (exc, traceback.format_exc())


#: Span name wrapping every executor task when telemetry is collected.
TASK_SPAN = "parallel.task"


def _snapshot_call(
    fn: Callable[[T], R], packed: tuple[int, dict, T]
) -> tuple[bool, object, dict]:
    """Process-pool task wrapper: run under a private collector.

    The worker's spans and metrics cannot reach the parent's collector
    (separate process), so the task runs under a fresh local one; the
    full telemetry snapshot travels back with the result and the parent
    adopts it (:func:`repro.obs.xproc.adopt`).  Module-level so process
    pools can pickle it.
    """
    index, label, item = packed
    collector = obs_trace.Collector()
    with obs_trace.collect(collector):
        try:
            with collector.span(
                TASK_SPAN, task=index, worker=os.getpid(), **label
            ):
                result: object = fn(item)
            ok = True
        except BaseException as exc:  # noqa: B036 - re-raised in the parent
            ok, result = False, (exc, traceback.format_exc())
    return ok, result, xproc.capture(collector)


def _traced_thread_call(
    fn: Callable[[T], R],
    collector: "obs_trace.Collector",
    parent_id: int | None,
    packed: tuple[int, dict, T],
) -> tuple[bool, object]:
    """Thread-pool task wrapper: span directly into the shared collector.

    Worker threads share the parent's collector (one process), but
    their span stacks start empty — the task span would surface as an
    orphan root.  ``forced_parent`` grafts it under the span that
    dispatched the map call, and everything ``fn`` records nests
    beneath it naturally.
    """
    index, label, item = packed
    span = collector.span(
        TASK_SPAN, task=index, worker=threading.get_ident(), **label
    )
    span.forced_parent = parent_id
    try:
        with span:
            return True, fn(item)
    except BaseException as exc:  # noqa: B036 - re-raised in the parent
        return False, (exc, traceback.format_exc())


def _pack_tasks(
    items: Iterable[T], labels: "Sequence[dict] | None"
) -> list[tuple[int, dict, T]]:
    """Zip items with indices and per-task label dicts."""
    packed = [(i, {}, item) for i, item in enumerate(items)]
    if labels is not None:
        if len(labels) != len(packed):
            raise ParameterError(
                f"labels length {len(labels)} != items length {len(packed)}"
            )
        packed = [
            (i, dict(label), item)
            for (i, _, item), label in zip(packed, labels)
        ]
    return packed


class SerialExecutor:
    """The default policy: run everything inline, in order."""

    kind = "serial"

    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        chunksize: int | None = None,
        labels: "Sequence[dict] | None" = None,
    ) -> list[R]:
        """Apply ``fn`` to every item, inline.

        ``chunksize`` is moot and ``labels`` unused: inline calls
        already nest their spans under the caller's, so no task
        wrapper is needed (or recorded).
        """
        return [fn(item) for item in items]

    def close(self) -> None:
        """Nothing to release."""


class PoolExecutor:
    """Thread- or process-pool policy over :mod:`concurrent.futures`.

    ``chunksize`` batches that many items into each pickled task for
    process pools (the default of 1 round-trips one item at a time,
    which drowns small tasks in IPC overhead); thread pools ignore it.
    """

    def __init__(
        self,
        kind: str,
        workers: int | None = None,
        chunksize: int = 1,
    ) -> None:
        if chunksize < 1:
            raise ParameterError("chunksize must be at least 1")
        if kind == "thread":
            self._pool: futures.Executor = futures.ThreadPoolExecutor(
                max_workers=workers
            )
        elif kind == "process":
            self._pool = futures.ProcessPoolExecutor(max_workers=workers)
        else:  # pragma: no cover - guarded by make_executor
            raise ParameterError(f"unknown pool kind {kind!r}")
        self.kind = kind
        self.chunksize = chunksize

    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        chunksize: int | None = None,
        labels: "Sequence[dict] | None" = None,
    ) -> list[R]:
        """Apply ``fn`` across the pool; ordered, first error propagates.

        The first failing item's exception (in input order) is re-raised
        in the parent with the worker's traceback chained as its cause.
        ``chunksize`` overrides the executor default for this call.

        When a telemetry collector is installed, every task runs inside
        a ``parallel.task`` span carrying its index, worker identity and
        the caller's per-task ``labels`` dict (shard IDs, conjunct
        numbers...).  Thread tasks record straight into the shared
        collector; process tasks record into a worker-local collector
        whose snapshot is shipped back and adopted, so traces stay
        complete under either pool kind.  With no collector installed
        the path is byte-identical to the untraced one.
        """
        size = self.chunksize if chunksize is None else chunksize
        if size < 1:
            raise ParameterError("chunksize must be at least 1")
        collector = obs_trace.current()
        results: list[R] = []
        if collector is None:
            guarded = functools.partial(_guarded_call, fn)
            for ok, payload in self._pool.map(guarded, items, chunksize=size):
                if not ok:
                    exc, formatted = payload  # type: ignore[misc]
                    raise exc from RemoteTraceback(formatted)
                results.append(payload)  # type: ignore[arg-type]
            return results
        packed = _pack_tasks(items, labels)
        stack = collector._stack()
        parent_id = stack[-1].span_id if stack else None
        if self.kind == "process":
            snap_call = functools.partial(_snapshot_call, fn)
            outcomes = self._pool.map(snap_call, packed, chunksize=size)
            for (index, label, _), (ok, payload, snapshot) in zip(
                packed, outcomes
            ):
                # Adopt before raising: the failing task's spans (error
                # attribute included) belong in the trace either way.
                xproc.adopt(collector, snapshot, parent_id=parent_id)
                if not ok:
                    exc, formatted = payload  # type: ignore[misc]
                    raise exc from RemoteTraceback(formatted)
                results.append(payload)  # type: ignore[arg-type]
            return results
        traced = functools.partial(
            _traced_thread_call, fn, collector, parent_id
        )
        for ok, payload in self._pool.map(traced, packed, chunksize=size):
            if not ok:
                exc, formatted = payload  # type: ignore[misc]
                raise exc from RemoteTraceback(formatted)
            results.append(payload)  # type: ignore[arg-type]
        return results

    def close(self) -> None:
        """Shut the pool down and release its workers."""
        self._pool.shutdown(wait=True)


class ReadWriteLock:
    """A re-entrant readers-writer lock with writer preference.

    The sharded storage provider serves many concurrent readers (query
    evaluation never mutates index state) while ingestion needs
    exclusive access across several structures (chain, DO trees, shard
    engines) that must move together.  Semantics:

    * any number of readers proceed concurrently; a writer waits for
      them to drain and excludes everyone;
    * waiting writers block *new* readers (writer preference), so a
      steady query stream cannot starve ingestion;
    * both sides are re-entrant per thread: a thread holding the write
      lock may take the read lock (the facade's query path runs under
      the SP's read lock even when invoked from an ingest hook), and
      nested read acquisitions never deadlock against a queued writer;
    * read -> write upgrades are not supported and raise immediately
      rather than deadlocking.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer: int | None = None  # owning thread ident
        self._writer_depth = 0
        self._writers_waiting = 0
        self._local = threading.local()  # per-thread read re-entry depth

    def _read_depth(self) -> int:
        return getattr(self._local, "depth", 0)

    def acquire_read(self) -> None:
        """Take (or re-enter) the shared side."""
        me = threading.get_ident()
        depth = self._read_depth()
        if depth > 0 or self._writer == me:
            # Already privileged on this thread; bypass writer
            # preference so nesting cannot deadlock.
            self._local.depth = depth + 1
            return
        with self._cond:
            while self._writer is not None or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        self._local.depth = 1

    def release_read(self) -> None:
        """Release one level of the shared side."""
        depth = self._read_depth()
        if depth <= 0:
            raise ParameterError("release_read without acquire_read")
        self._local.depth = depth - 1
        if depth > 1 or self._writer == threading.get_ident():
            return
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        """Take (or re-enter) the exclusive side."""
        me = threading.get_ident()
        if self._writer == me:
            self._writer_depth += 1
            return
        if self._read_depth() > 0:
            raise ParameterError(
                "read -> write lock upgrade is not supported"
            )
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._readers or self._writer is not None:
                    self._cond.wait()
                self._writer = me
                self._writer_depth = 1
            finally:
                self._writers_waiting -= 1

    def release_write(self) -> None:
        """Release one level of the exclusive side."""
        if self._writer != threading.get_ident():
            raise ParameterError("release_write by a non-owning thread")
        self._writer_depth -= 1
        if self._writer_depth == 0:
            with self._cond:
                self._writer = None
                self._cond.notify_all()

    @contextlib.contextmanager
    def read(self) -> Iterator[None]:
        """Context manager form of the shared side."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextlib.contextmanager
    def write(self) -> Iterator[None]:
        """Context manager form of the exclusive side."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


Executor = SerialExecutor | PoolExecutor


def make_executor(
    spec: "str | Executor | None",
    workers: int | None = None,
    chunksize: int = 1,
) -> Executor:
    """Resolve an executor from its name (or pass one through).

    ``None`` and ``"serial"`` yield the inline executor; ``"thread"``
    and ``"process"`` build pools with ``workers`` workers (``None``
    lets the pool pick the host default) and the given ``chunksize``.
    """
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, (SerialExecutor, PoolExecutor)):
        return spec
    if spec == "serial":
        return SerialExecutor()
    if spec in ("thread", "process"):
        return PoolExecutor(spec, workers=workers, chunksize=chunksize)
    raise ParameterError(
        f"unknown executor {spec!r}; expected one of: "
        + ", ".join(EXECUTOR_KINDS)
    )
