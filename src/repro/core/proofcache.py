"""Bounded LRU cache for successful proof verifications.

A CVC opening costs a multi-hundred-bit modular exponentiation — orders
of magnitude more than a hash — and a DNF query presents the same
openings across conjuncts, while hot keywords repeat them across
queries.  A :class:`VerificationCache` lets a proof system skip
re-checking what it has already accepted: :meth:`~VerificationCache.recall`
returns what the check returned, so a hit skips the check itself.

Soundness: only *successful* verifications are cached, and the key must
include **every** input that determines the verdict.  A tampered input
differs in at least one key component, misses the cache, and is checked
from scratch — a cache hit can therefore never mask a failing proof.

The Chameleon family remembers at two granularities, both stored only
once the batch they were checked in has passed:

* one *node* statement (stores ``True``) — the modulus and the bytes of
  its commitment, its whole-vector opening, the ``id || h(o)`` its slot
  1 commits to and its filled child slots' commitments, the whole input
  of one ``vc.verify_vector``;
* one *table* — ``(modulus, c_0, cnt, ChameleonMultiproof.cache_token())``,
  where the token hashes the table's arity, element width, row count
  and bytes.  Authenticating a table under ``<c_0, cnt>`` reads nothing
  else, so a table that authenticated once is recalled whole: no node
  statement is built.  It is a *summary* — its node statements are held
  beside it — so its lookup counts nothing itself, a hit counts one hit
  per node it holds, and ``len()`` leaves it out.

The Merkle family's multiproofs follow the same rule with a structural
token instead of the raw object: their key is ``(root,
TreeMultiproof.cache_token())``, where the token hashes the table's
whole wire body — height, per-node slot codes, helper digests and the
leaf rows — and the entry stores the fold's leaf counts, which are a
function of that content.  Any tamper changes the token, so a warmed
fold can only ever be replayed for the byte-identical proof against the
same root.

Each table verdict also *holds* the table it was given for — the
object, filed under the keyword it was opened for — so that a client
can tell the SP which tables it has (:meth:`VerificationCache.held`)
and the SP can send a reference in their place (DESIGN.md §6.3).  At
most :data:`HELD_TABLES` are held, most recently used first; a held
table leaves with its verdict, and :meth:`~VerificationCache.clear`
drops them all.  Holding a table adds nothing to what is trusted: a
referenced table is recalled under the *current* key, exactly as if its
bytes had been sent again.

Each table that settles also *indexes* its nodes: per keyword, the
positions it proved under one ``<c_0, cnt>``, each pointing at the node
statement's cache key (:class:`HeldNodes`).  A client lists those
positions (:meth:`VerificationCache.held_nodes`) and the SP writes each
listed node as a short row; the client rebuilds the row's cold bytes
from the key, which holds them all, and verifies the rebuilt table as
if it had been sent (DESIGN.md §6.3).  A position leaves the index when
its statement is evicted, and on :meth:`~VerificationCache.clear`.

A Merkle table that folds indexes its leaf rows by object ID: a row
``id || h(o)`` is the same bytes under every later root of its keyword,
so the index outlives appends (:meth:`VerificationCache.index_rows`).

Hits and misses are exported through :mod:`repro.obs` under
``<prefix>.cache_hit`` / ``<prefix>.cache_miss`` (e.g.
``vc.verify.cache_hit``) and mirrored on the instance for callers
without a collector installed.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections import OrderedDict
from itertools import islice
from typing import Hashable

from repro import obs
from repro.crypto.bloom import MaskMemo, optimal_hash_count
from repro.errors import ParameterError

#: Default number of proven tuples a cache retains.
DEFAULT_CACHE_SIZE = 4096

#: Verified tables a cache holds for reference by the SP.
HELD_TABLES = 64

#: Held tables a request names per keyword, most recently used first.
HELD_PER_KEYWORD = 2

#: Keywords a request lists held nodes for.
HELD_NODE_KEYWORDS = 64

#: Bytes of a keyword's held-node bitmap: positions below 8 times this.
HELD_NODE_BYTES = 512


class CacheKey:
    """A verification-cache key with its hash computed exactly once.

    Cache keys deliberately embed the *full* proof object (soundness —
    see the module docstring), which makes Python's tuple hash walk the
    whole proof.  A bare tuple gets re-hashed by every dict operation
    (`in`, ``move_to_end``, insert, eviction) — for cheap schemes like
    the Merkle index that bookkeeping rivals the verification itself and
    erased the cold-path win.  Wrapping the tuple pins the hash at
    construction so each ``recall``/``add`` round trip hashes the proof
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


class HeldTables:
    """The verified tables a session holds: at most :data:`HELD_TABLES`,
    and at most :data:`HELD_PER_KEYWORD` — as many as a request lists —
    under each keyword, least recently used out first; filed under the
    keyword each was opened for and keyed by its ``cache_token()`` (a
    ``bytes`` hash).

    Not thread-safe: its :class:`VerificationCache` calls it under the
    cache's lock.
    """

    def __init__(self) -> None:
        #: Per token: the keyword its table is filed under, LRU first ...
        self._keywords: OrderedDict[bytes, str] = OrderedDict()
        #: ... and per keyword, the tables in the same order.
        self._filed: dict[str, OrderedDict[bytes, object]] = {}

    def hold(self, keyword: str, table) -> bytes:
        """Hold ``table`` as the most recently used; returns its token."""
        token = table.cache_token()
        keywords = self._keywords
        filed = keywords.get(token)
        if filed == keyword:
            keywords.move_to_end(token)
            self._filed[keyword].move_to_end(token)
            return token
        if filed is not None:
            self.drop(token)
        keywords[token] = keyword
        tables = self._filed.get(keyword)
        if tables is None:
            tables = self._filed[keyword] = OrderedDict()
        tables[token] = table
        if len(tables) > HELD_PER_KEYWORD:
            self.drop(next(iter(tables)))
        elif len(keywords) > HELD_TABLES:
            self.drop(next(iter(keywords)))
        return token

    def drop(self, token: bytes) -> None:
        """Let the table of ``token`` go, if it is held."""
        keyword = self._keywords.pop(token, None)
        if keyword is None:
            return
        tables = self._filed[keyword]
        del tables[token]
        if not tables:
            del self._filed[keyword]

    def of(self, keywords: list[str]) -> list:
        """Per keyword, in the order given, its :data:`HELD_PER_KEYWORD`
        most recently used tables."""
        out: list = []
        for keyword in keywords:
            tables = self._filed.get(keyword)
            if tables:
                out += islice(reversed(tables.values()), HELD_PER_KEYWORD)
        return out

    def clear(self) -> None:
        """Hold nothing."""
        self._keywords.clear()
        self._filed.clear()


class _NodeGroup:
    """One keyword's indexed nodes, all proven under one ``<c_0, cnt>``."""

    __slots__ = ("root", "count", "keys", "listing")

    def __init__(self, root: int, count: int) -> None:
        self.root = root
        self.count = count
        #: Per position, the key of the node's cached statement.
        self.keys: dict[int, CacheKey] = {}
        #: :meth:`HeldNodes.of`'s answer for this group until it changes.
        self.listing: tuple | None = None

    def summary(self, keyword: str) -> tuple:
        limit = 8 * HELD_NODE_BYTES
        statements = {p: key.parts[1] for p, key in self.keys.items() if p < limit}
        mask = sum(map((1).__lshift__, statements))
        bitmap = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
        # The rows rebuilt from the statements, filled by the decoder.
        return (keyword, self.count, bitmap, statements, {})


class _RowGroup:
    """One Merkle keyword's held rows, ``(id || h(o), entry digest)`` by
    ID; ``mask`` has bit ``i`` set for each, the ID ``base - i``.  A dict
    a listing holds is copied before it is written: it keeps what it
    lists."""

    __slots__ = ("base", "mask", "rows", "listing")

    def __init__(self, base: int) -> None:
        self.base = base
        self.mask = 0
        self.rows: dict[int, tuple[bytes, bytes]] = {}
        self.listing: tuple | None = None

    def summary(self, keyword: str) -> tuple:
        bitmap = self.mask.to_bytes((self.mask.bit_length() + 7) // 8, "little")
        return (keyword, self.base, bitmap, self.rows, self.base - 8 * len(bitmap))


class HeldNodes:
    """The node statements and Merkle rows a session holds, by keyword.

    One group per Chameleon keyword: the positions the keyword's settled
    tables proved under the ``<c_0, cnt>`` of the latest, each mapped to
    its statement's :class:`CacheKey` — ``shape || node || children``,
    the node's bytes and its filled children's commitments, so the index
    copies nothing.  A table settling under another ``<c_0, cnt>`` starts
    the keyword's group afresh.

    One :class:`_RowGroup` per Merkle keyword, at most
    :data:`HELD_NODE_KEYWORDS`, least recently indexed out first: the
    rows its folded tables proved, within ``8 *`` :data:`HELD_NODE_BYTES`
    IDs of the highest.

    Not thread-safe: its :class:`VerificationCache` calls it under the
    cache's lock.
    """

    def __init__(self) -> None:
        self._groups: dict[str, _NodeGroup] = {}
        self._rows: OrderedDict[str, _RowGroup] = OrderedDict()

    def index(
        self,
        keyword: str,
        root: int,
        count: int,
        nodes: dict[int, CacheKey],
        entries: OrderedDict,
    ) -> None:
        """File ``nodes`` — position to statement key, one settled
        table's — whose statements are in ``entries``; each such entry
        learns its ``(keyword, position)`` so that its eviction can drop
        it."""
        group = self._groups.get(keyword)
        if group is None or group.root != root or group.count != count:
            group = self._groups[keyword] = _NodeGroup(root, count)
        keys = group.keys
        for position, key in nodes.items():
            # Every statement filed is one the session proved: whichever
            # of them a position keeps, a node rebuilt from it is sound.
            if position in keys:
                continue
            entry = entries.get(key)
            if entry is None:
                continue
            keys[position] = key
            entries[key] = (entry[0], False, (keyword, position))
            group.listing = None

    def index_rows(self, keyword: str, ids: list[int], rows: list[tuple[bytes, bytes]]) -> None:
        """File the ``(id || h(o), entry digest)`` rows of a Merkle table
        that folded, by ID (ascending); a higher ID slides the window up."""
        limit = 8 * HELD_NODE_BYTES
        group = self._rows.pop(keyword, None) or _RowGroup(ids[-1])
        self._rows[keyword] = group
        if len(self._rows) > HELD_NODE_KEYWORDS:
            self._rows.popitem(last=False)
        held = group.rows
        if ids[-1] > group.base:
            group.mask = group.mask << ids[-1] - group.base & (1 << limit) - 1
            group.base = ids[-1]
            held = {i: row for i, row in held.items() if i > group.base - limit}
        first = bisect_right(ids, group.base - limit)
        new = dict(zip(ids[first:], rows[first:]))
        fresh = new.keys() - held.keys()
        if fresh or held is not group.rows:
            group.rows = held = dict(held) if held is group.rows and group.listing else held
            held.update(new)
            group.mask |= sum(map((1).__lshift__, map(group.base.__sub__, fresh)))
            group.listing = None

    def drop(self, keyword: str, position: int, key: CacheKey) -> None:
        """Forget ``position`` of ``keyword`` if it still maps to ``key``."""
        group = self._groups.get(keyword)
        if group is None or group.keys.get(position) != key:
            return
        del group.keys[position]
        group.listing = None
        if not group.keys:
            del self._groups[keyword]

    def of(self, keywords: list[str]) -> list[tuple]:
        """Per keyword held, in the order given and at most
        :data:`HELD_NODE_KEYWORDS` of them (as many as a request lists):
        ``(keyword, cnt, bitmap, statements, rebuilt)``.  ``bitmap`` has
        bit ``p % 8`` of byte ``p // 8`` set for each position ``p`` held
        below ``8 *`` :data:`HELD_NODE_BYTES`, and no trailing zero byte;
        ``statements`` maps exactly those positions to their statements'
        bytes (a key's second part); ``rebuilt`` is the decoder's memo of
        the rows it rebuilt from them
        (:func:`~repro.core.chameleon.expand_rows`).  A Merkle keyword's
        is ``(keyword, base, bitmap, rows, floor)``: :class:`_RowGroup`'s
        fields as they stood, ``floor`` the ID below the bitmap's last
        bit.  Each is kept until the group changes."""
        out = []
        for keyword in keywords:
            group = self._groups.get(keyword) or self._rows.get(keyword)
            if group is None:
                continue
            if group.listing is None:
                group.listing = group.summary(keyword)
            if group.listing[2]:
                out.append(group.listing)
                if len(out) == HELD_NODE_KEYWORDS:
                    break
        return out

    def clear(self) -> None:
        """Hold nothing."""
        self._groups.clear()
        self._rows.clear()


class VerificationCache:
    """A bounded, thread-safe LRU of successful verifications and their results.

    ``maxsize`` bounds the entries, summaries included; it is at least
    one.
    """

    def __init__(
        self,
        maxsize: int = DEFAULT_CACHE_SIZE,
        metric_prefix: str = "vc.verify",
    ) -> None:
        if maxsize < 1:
            raise ParameterError(
                f"a verification cache holds at least one entry, not {maxsize}"
            )
        self.maxsize = maxsize
        self.metric_prefix = metric_prefix
        self._hit_metric = f"{metric_prefix}.cache_hit"
        self._miss_metric = f"{metric_prefix}.cache_miss"
        self.hits = 0
        self.misses = 0
        #: Per key: what its check returned, whether it is a summary, and
        #: what it holds — a summary its table's token, an indexed node
        #: statement its ``(keyword, position)``, else ``None``.
        self._entries: OrderedDict[Hashable, tuple[object, bool, object]] = (
            OrderedDict()
        )
        self._summaries = 0
        #: The tables the verdicts were given for, filed by keyword.
        self._tables = HeldTables()
        #: The node statements, filed by keyword and position.
        self._nodes = HeldNodes()
        #: The session's Bloom masks, one memo per (filter_bits, hash_count).
        self._masks: dict[tuple[int, int], MaskMemo] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        """The verdicts held; a summary adds none of its own."""
        return len(self._entries) - self._summaries

    def key(self, *parts: Hashable) -> CacheKey:
        """Build a hash-consed key; pass the same key to recall and add."""
        return CacheKey(parts)

    def recall(
        self,
        key: Hashable,
        *,
        summary: bool = False,
        hold: tuple[str, object] | None = None,
    ) -> object | None:
        """What the check of ``key`` returned when it passed, else ``None``.

        Records the hit or miss — except for a ``summary`` lookup, whose
        caller counts the statements it stands for (:meth:`count_hit`).
        On a hit, ``hold`` — ``(keyword, table)`` — is held as the most
        recently used table (see :meth:`add`).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                if hold is not None:
                    self._tables.hold(*hold)
            if not summary:
                if entry is None:
                    self.misses += 1
                else:
                    self.hits += 1
        if not summary:
            obs.inc(self._miss_metric if entry is None else self._hit_metric)
        return None if entry is None else entry[0]

    def seen(self, key: Hashable) -> bool:
        """:meth:`recall` as a yes or no: was ``key`` verified before?"""
        return self.recall(key) is not None

    def count_hit(self, count: int = 1) -> None:
        """Count lookups their caller answered without asking the cache.

        A proof system that defers checks meets the same tuple again
        before the first meeting has been settled: it is not stored yet,
        and it will not be verified twice.  A recalled summary counts the
        statements it stands for here.
        """
        with self._lock:
            self.hits += count
        obs.inc(self._hit_metric, count)

    def add(
        self,
        key: Hashable,
        result: object = True,
        *,
        summary: bool = False,
        hold: tuple[str, object] | None = None,
    ) -> None:
        """Record a check that passed and what it returned (never ``None``).

        A ``summary`` stands for statements stored beside it (a whole
        Chameleon table over its nodes) and is not counted by ``len()``.
        ``hold`` — ``(keyword, table)`` for a table's verdict — keeps the
        table beside the verdict until either is evicted.
        """
        entries = self._entries
        with self._lock:
            old = entries.get(key)
            held = None
            if old is not None:
                self._summaries -= old[1]
                if not old[1]:
                    held = old[2]  # an indexed statement stays indexed
            if hold is not None:
                held = self._tables.hold(*hold)
            entries[key] = (result, summary, held)
            entries.move_to_end(key)
            self._summaries += summary
            while len(entries) > self.maxsize:
                key, (_, was_summary, held) = entries.popitem(last=False)
                self._summaries -= was_summary
                if held is None:
                    continue
                if was_summary:
                    self._tables.drop(held)
                else:
                    self._nodes.drop(*held, key)

    def index(
        self,
        keyword: str,
        root: int,
        count: int,
        nodes: dict[int, CacheKey],
    ) -> None:
        """File the nodes of a table that settled under ``<root, count>``:
        position to key, each statement one this cache holds."""
        with self._lock:
            self._nodes.index(keyword, root, count, nodes, self._entries)

    def index_rows(self, keyword: str, table) -> None:
        """File the leaf rows of a Merkle table that folded under
        ``keyword``'s root, by object ID (:meth:`HeldNodes.index_rows`)."""
        ids, rows = table.arrived_rows()
        if ids:
            with self._lock:
                self._nodes.index_rows(keyword, ids, rows)

    def held(self, keywords: list[str]) -> list:
        """The held tables of ``keywords``: per keyword, in the order
        given, its :data:`HELD_PER_KEYWORD` most recently used."""
        with self._lock:
            return self._tables.of(keywords)

    def held_nodes(self, keywords: list[str]) -> list[tuple]:
        """The indexed nodes of ``keywords``, per keyword held, in the
        order given: ``(keyword, cnt, bitmap, statements, rebuilt)`` (see
        :meth:`HeldNodes.of`)."""
        with self._lock:
            return self._nodes.of(keywords)

    def bloom_masks(self, filter_bits: int, capacity: int) -> MaskMemo:
        """The session's Bloom masks for chains of these parameters (one
        memo per ``(filter_bits, hash_count)``)."""
        hash_count = optimal_hash_count(filter_bits, capacity)
        with self._lock:
            return self._masks.setdefault(
                (filter_bits, hash_count),
                MaskMemo(filter_bits, hash_count, self.maxsize),
            )

    def clear(self) -> None:
        """Drop every cached tuple, held table and node and every mask,
        and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._tables.clear()
            self._nodes.clear()
            for masks in self._masks.values():
                masks.clear()
            self._summaries = 0
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
