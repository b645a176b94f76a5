"""Background verification-cache warming for hot keywords.

The PR-2 fast path made *repeated* verifications ~free (the shared
:class:`~repro.core.proofcache.VerificationCache`), but the first query
after an insert still pays the full CVC exponentiation chain per entry —
~800 ms at corpus 150 versus ~4 ms warm.  The :class:`CacheWarmer`
closes that gap by doing the first verification *ahead of the query*:

* **on insert** the touched keywords are marked dirty (their on-chain
  digests changed, so previously cached tuples no longer apply);
* **on access** a trailing per-keyword frequency signal accumulates —
  either directly via :meth:`note_access` or pulled from the obs metrics
  registry (``sp.keyword.access.*`` counters) via
  :meth:`sync_from_metrics`;
* :meth:`run_pending` (deterministic, inline) or the background thread
  (:meth:`start`/:meth:`stop`) then warms the hot dirty keywords: it
  asks the SP for the keyword's full-scan table and does what a client
  verifying a scan of that keyword does — attach the table, open it
  with ``proven_run`` and read every entry, inside ``settling()`` — so
  it warms exactly the keys a scan presents, and only if the whole
  table verifies.

Soundness is inherited, not re-argued: the cache stores successful
verifications keyed on the complete proven tuple, and the warmer adds
them only through the client's own verification path.  A tampered
table fails at warm time and caches nothing, so a later query
re-verifies (and fails) from scratch — warming can never turn an
invalid proof into an accepted one.

Telemetry: ``sp.warm.keywords`` / ``sp.warm.entries`` /
``sp.warm.failures`` counters and one ``sp.warm.keyword`` span per
warmed keyword.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING, Any

from repro import obs
from repro.errors import VerificationError

if TYPE_CHECKING:
    from repro.sp.engine import ShardRouter

#: Accesses within the trailing window before a keyword counts as hot.
DEFAULT_HOT_THRESHOLD = 2

#: Metrics-registry counter prefix carrying the access signal.
ACCESS_METRIC_PREFIX = "sp.keyword.access."


class CacheWarmer:
    """Precomputes successful proof verifications for hot keywords.

    ``prove(keyword)`` returns the keyword's full-scan table (``None``
    when it has no entry); ``proof_system(keywords)`` builds the
    client-side proof system bound to the *current* on-chain digests,
    sharing the verification cache to be warmed.  Both are supplied by
    :class:`~repro.core.system.HybridStorageSystem`, but any pair with
    the same contract works (the warmer is scheme-agnostic: node tables
    and Merkle multiproofs warm identically).

    A keyword is warmed when it is *dirty* (inserted since the last
    warm) and *hot* (trailing accesses ≥ ``hot_threshold``).  Passing
    ``hot_threshold=0`` warms every dirty keyword — the eager on-insert
    policy the witness benchmark uses.
    """

    def __init__(
        self,
        prove: Callable[[str], Any],
        proof_system: Callable[[frozenset[str]], Any],
        hot_threshold: int = DEFAULT_HOT_THRESHOLD,
    ) -> None:
        self._prove = prove
        self._proof_system = proof_system
        self.hot_threshold = hot_threshold
        self._lock = threading.Lock()
        self._dirty: dict[str, None] = {}  # insertion-ordered set
        self._accesses: dict[str, int] = {}
        self._synced: dict[str, int] = {}  # registry counts already consumed
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # -- signals ----------------------------------------------------------------

    def note_insert(self, keywords: Iterable[str]) -> None:
        """Mark keywords dirty: their digests (and proofs) just changed."""
        with self._lock:
            for keyword in keywords:
                self._dirty[keyword] = None

    def note_access(self, keywords: Iterable[str]) -> None:
        """Record one access to each keyword (the trailing hot signal)."""
        with self._lock:
            for keyword in keywords:
                self._accesses[keyword] = self._accesses.get(keyword, 0) + 1
        for keyword in keywords:
            obs.inc(ACCESS_METRIC_PREFIX + keyword)

    def sync_from_metrics(self) -> int:
        """Pull the access signal from the obs metrics registry.

        Consumes the delta of every ``sp.keyword.access.<kw>`` counter
        since the previous sync, so components that only emit metrics
        (e.g. a remote SP front-end) still feed the warmer.  Returns the
        number of accesses absorbed.
        """
        registry = obs.metrics()
        if registry is None:
            return 0
        snapshot = registry.snapshot()
        absorbed = 0
        with self._lock:
            for name in sorted(snapshot):
                if not name.startswith(ACCESS_METRIC_PREFIX):
                    continue
                keyword = name[len(ACCESS_METRIC_PREFIX):]
                total = int(snapshot[name])
                delta = total - self._synced.get(keyword, 0)
                if delta > 0:
                    self._accesses[keyword] = (
                        self._accesses.get(keyword, 0) + delta
                    )
                    self._synced[keyword] = total
                    absorbed += delta
        return absorbed

    def pending(self) -> list[str]:
        """Dirty keywords whose trailing access count clears the bar."""
        with self._lock:
            return [
                keyword
                for keyword in self._dirty
                if self._accesses.get(keyword, 0) >= self.hot_threshold
            ]

    # -- warming ----------------------------------------------------------------

    def warm(self, keyword: str) -> int:
        """Verify the keyword's full-scan table into the cache.

        Returns the number of entries warmed: all of them or, when the
        table does not verify, none — nothing of it is cached (fail
        closed) and the keyword stays dirty so the failure is
        re-observed.
        """
        table = self._prove(keyword)
        if table is None:
            with self._lock:
                self._dirty.pop(keyword, None)
            return 0
        entries = len(table.leaves)
        ps = self._proof_system(frozenset((keyword,)))
        with obs.span("sp.warm.keyword", keyword=keyword, entries=entries):
            # What a client verifying a scan does; the scope's exit
            # settles whatever the proof system deferred.
            try:
                ps.attach_multiproofs((table,))
                with ps.settling():
                    ps.proven_run(keyword, 0).scan()
                warmed = entries
            except VerificationError:
                warmed = 0
        obs.inc("sp.warm.entries", warmed)
        if warmed < entries:
            obs.inc("sp.warm.failures", entries - warmed)
        else:
            with self._lock:
                self._dirty.pop(keyword, None)
                self._accesses[keyword] = 0
        obs.inc("sp.warm.keywords")
        return warmed

    def run_pending(self, limit: int | None = None) -> int:
        """Warm up to ``limit`` pending keywords inline; returns entries."""
        total = 0
        for keyword in self.pending()[: limit if limit is not None else None]:
            total += self.warm(keyword)
        return total

    # -- background mode --------------------------------------------------------

    def start(self, interval_s: float = 0.05) -> None:
        """Run :meth:`run_pending` on a daemon thread every ``interval_s``."""
        with self._lock:
            if self._thread is not None:
                return
            self._stop.clear()
            thread = threading.Thread(
                target=self._loop, args=(interval_s,), daemon=True,
                name="cache-warmer",
            )
            self._thread = thread
        thread.start()

    def stop(self, timeout_s: float = 2.0) -> bool:
        """Stop the background thread and join it (idempotent).

        The stop event is set *before* the thread slot is cleared, so a
        concurrent :meth:`start` cannot race a half-stopped loop; the
        join is bounded by ``timeout_s`` so a warmer wedged inside a
        slow verification can never hang ``close()`` or a test teardown.
        Returns ``True`` once the thread has actually exited (including
        the no-thread case), ``False`` if the join timed out.
        """
        self._stop.set()
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is None:
            return True
        thread.join(timeout_s)
        return not thread.is_alive()

    def _loop(self, interval_s: float) -> None:
        while not self._stop.wait(interval_s):
            self.sync_from_metrics()
            self.run_pending()

    # -- test hooks -------------------------------------------------------------

    def wait_idle(self, timeout_s: float = 2.0) -> bool:
        """Block until nothing is pending (background-mode tests)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if not self.pending():
                return True
            time.sleep(0.01)
        return not self.pending()


class ShardedCacheWarmer:
    """Routes warming signals to the per-shard :class:`CacheWarmer`\\ s.

    Each shard engine owns the warmer for its keyword partition; this
    facade presents them as one warmer to the system: signals are
    routed to the owning shard, aggregate views iterate the warmers in
    shard-index order (deterministic), and the background thread hooks
    fan out.  A keyword only ever becomes dirty on its owning shard, so
    the per-shard pending sets are disjoint by construction.
    """

    def __init__(
        self, warmers: Iterable[CacheWarmer], router: ShardRouter
    ) -> None:
        self._warmers: list[CacheWarmer] = list(warmers)
        self._router = router

    def _warmer_for(self, keyword: str) -> CacheWarmer:
        return self._warmers[self._router.route(keyword)]

    @property
    def hot_threshold(self) -> int:
        """The shared trailing-access bar (identical across shards)."""
        return self._warmers[0].hot_threshold

    def note_insert(self, keywords: Iterable[str]) -> None:
        """Mark keywords dirty on their owning shards."""
        for keyword in keywords:
            self._warmer_for(keyword).note_insert((keyword,))

    def note_access(self, keywords: Iterable[str]) -> None:
        """Record one access per keyword on its owning shard."""
        for keyword in keywords:
            self._warmer_for(keyword).note_access((keyword,))

    def sync_from_metrics(self) -> int:
        """Absorb the registry access signal on every shard warmer.

        Every warmer consumes the full counter set; accesses to
        keywords a shard does not own are harmless, because those
        keywords never become dirty there.
        """
        return sum(warmer.sync_from_metrics() for warmer in self._warmers)

    def pending(self) -> list[str]:
        """Pending keywords across shards, in shard-index order."""
        out: list[str] = []
        for warmer in self._warmers:
            out.extend(warmer.pending())
        return out

    def warm(self, keyword: str) -> int:
        """Warm one keyword on its owning shard."""
        return self._warmer_for(keyword).warm(keyword)

    def run_pending(self, limit: int | None = None) -> int:
        """Warm up to ``limit`` pending keywords inline; returns entries."""
        total = 0
        for keyword in self.pending()[: limit if limit is not None else None]:
            total += self.warm(keyword)
        return total

    def start(self, interval_s: float = 0.05) -> None:
        """Start every shard warmer's background thread."""
        for warmer in self._warmers:
            warmer.start(interval_s)

    def stop(self, timeout_s: float = 2.0) -> bool:
        """Stop every shard warmer's background thread (idempotent).

        Returns ``True`` only if every thread exited within its join
        timeout; all warmers are stopped regardless.
        """
        return all(
            [warmer.stop(timeout_s) for warmer in self._warmers]
        )

    def wait_idle(self, timeout_s: float = 2.0) -> bool:
        """Block until no shard has pending work."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if not self.pending():
                return True
            time.sleep(0.01)
        return not self.pending()
