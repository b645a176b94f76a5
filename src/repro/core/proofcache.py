"""Bounded LRU cache for successful proof verifications.

A CVC opening costs a multi-hundred-bit modular exponentiation — orders
of magnitude more than a hash — and a DNF query presents the same
openings across conjuncts, while hot keywords repeat them across
queries.  A :class:`VerificationCache` lets a proof system skip
re-verifying a tuple it has already accepted.

Soundness: only *successful* verifications are cached, and the key must
include **every** input that determines the verdict.  The Chameleon
family keys on one *opening* — ``(modulus, commitment, slot, message,
proof)``, the whole input of one ``vc.verify`` — and stores it only once
the batch it was checked in has passed.  A tampered tuple differs in at
least one key component, misses the cache, and is re-verified from
scratch — a cache hit can therefore never mask a failing proof.

The Merkle family's multiproofs follow the same rule with a structural
token instead of the raw object: their key is ``(root,
TreeMultiproof.cache_token())``, where the token hashes the complete
proof content — heights, per-node slot codes, helper digests and the
leaf table.  Any tamper changes the token, so a warmed fold can only
ever be replayed for the byte-identical proof against the same root.

Hits and misses are exported through :mod:`repro.obs` under
``<prefix>.cache_hit`` / ``<prefix>.cache_miss`` (e.g.
``vc.verify.cache_hit``) and mirrored on the instance for callers
without a collector installed.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable

from repro import obs

#: Default number of proven tuples a cache retains.
DEFAULT_CACHE_SIZE = 4096


class CacheKey:
    """A verification-cache key with its hash computed exactly once.

    Cache keys deliberately embed the *full* proof object (soundness —
    see the module docstring), which makes Python's tuple hash walk the
    whole proof.  A bare tuple gets re-hashed by every dict operation
    (`in`, ``move_to_end``, insert, eviction) — for cheap schemes like
    the Merkle index that bookkeeping rivals the verification itself and
    erased the cold-path win.  Wrapping the tuple pins the hash at
    construction so each ``seen``/``add`` round trip hashes the proof
    once instead of four-plus times.

    Unpickling recomputes the hash: ``str`` hashes are salted per
    process, so a carried-over value would corrupt the receiving dict.
    """

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: tuple) -> None:
        self.parts = parts
        self._hash = hash(parts)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CacheKey):
            return self.parts == other.parts
        return NotImplemented

    def __reduce__(self) -> tuple:
        return (CacheKey, (self.parts,))


class VerificationCache:
    """A bounded, thread-safe LRU set of successfully verified tuples.

    ``maxsize <= 0`` disables the cache entirely (every lookup misses
    and nothing is stored), which keeps call sites branch-free.
    """

    def __init__(
        self,
        maxsize: int = DEFAULT_CACHE_SIZE,
        metric_prefix: str = "vc.verify",
    ) -> None:
        self.maxsize = maxsize
        self.metric_prefix = metric_prefix
        self._hit_metric = f"{metric_prefix}.cache_hit"
        self._miss_metric = f"{metric_prefix}.cache_miss"
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[Hashable, None] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def key(self, *parts: Hashable) -> CacheKey:
        """Build a hash-consed key; pass the same key to seen and add."""
        return CacheKey(parts)

    def seen(self, key: Hashable) -> bool:
        """Whether ``key`` was verified before; records the hit/miss."""
        if self.maxsize <= 0:
            with self._lock:
                self.misses += 1
            obs.inc(self._miss_metric)
            return False
        with self._lock:
            present = key in self._entries
            if present:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
        obs.inc(self._hit_metric if present else self._miss_metric)
        return present

    def count_hit(self) -> None:
        """Count a lookup its caller answered without asking the cache.

        A proof system that defers checks meets the same tuple again
        before the first meeting has been settled: it is not stored yet,
        and it will not be verified twice.
        """
        with self._lock:
            self.hits += 1
        obs.inc(self._hit_metric)

    def add(self, key: Hashable) -> None:
        """Record a tuple that verified successfully."""
        if self.maxsize <= 0:
            return
        with self._lock:
            self._entries[key] = None
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every cached tuple and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __getstate__(self) -> dict:
        # Locks cannot cross process boundaries; the worker gets a copy
        # of the entries and a fresh lock.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
