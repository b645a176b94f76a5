"""Concurrency primitives the SP's two dispatch modes share.

A shard's work runs either in the calling process or in the affine
worker that owns the shard (:mod:`repro.sp.affine`); there is no third
way.  What both need lives here:

* :class:`ReadWriteLock` — the facade's readers-writer lock that
  serialises ingestion against query serving;
* :class:`RemoteTraceback` — carries a worker's formatted traceback
  across the pipe so a failure inside a worker stays readable.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator

from repro.errors import ParameterError


class RemoteTraceback(Exception):
    """Carries a worker's formatted traceback across the pipe.

    An exception pickled back to the parent loses the worker-side
    traceback — the parent's stack then points at the ``dispatch`` call
    instead of the line that failed.  The worker captures the formatted
    traceback and the parent chains it onto the re-raised exception as
    its ``__cause__``, so ``raise`` sites inside workers stay visible in
    the parent's error output.
    """

    def __init__(self, formatted: str) -> None:
        super().__init__(formatted)
        self.formatted = formatted

    def __str__(self) -> str:
        return f"\n\n(worker traceback)\n{self.formatted}"


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
