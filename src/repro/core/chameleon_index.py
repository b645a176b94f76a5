"""The Chameleon^inv index (Section V): constant on-chain maintenance.

Per keyword the smart contract holds only the invariant root commitment
``c_0`` (written once at keyword setup) and the object count ``cnt``
(one ``C_supdate`` per insertion) — the ``O(L * C_1)`` constant cost of
Table II.  The data owner performs all the cryptographic work off-chain
(Algorithm 4) and streams insertion proofs to the SP; the DO's single
transaction per object updates the counts of all its keywords.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

from repro import obs
from repro.core.chameleon import (
    DEFAULT_ARITY,
    ChameleonMultiproof,
    ChameleonTreeDO,
    ChameleonTreeSP,
    parent_position,
)
from repro.core.multiproof import LocatedRun, ProvenRun, settle_tables
from repro.core.objects import ObjectMetadata
from repro.core.proofcache import CacheKey, VerificationCache
from repro.core.query.join import remember_key
from repro.crypto import vc
from repro.crypto.bloom import BloomFilterChain, MaskMemo, optimal_hash_count
from repro.crypto.hashing import DIGEST_SIZE
from repro.errors import ReproError, VerificationError
from repro.ethereum.contract import SmartContract

#: One debt of a settling scope: a node statement and the ``(keyword,
#: position)`` it belongs to, or ``None`` and the ``(keyword, table,
#: nodes)`` authenticated over such statements, ``nodes`` mapping each
#: of its positions to its node statement's key.
_Owed = tuple[
    vc.Statement | None,
    tuple[str, int] | tuple[str, ChameleonMultiproof, dict[int, CacheKey]],
]


def commitment_to_words(value: int, value_bytes: int) -> list[bytes]:
    """Split a group element into 32-byte storage words."""
    raw = value.to_bytes(value_bytes, "big")
    return [raw[i : i + DIGEST_SIZE] for i in range(0, len(raw), DIGEST_SIZE)]


def words_to_commitment(words: list[bytes]) -> int:
    """Reassemble a group element from storage words."""
    return int.from_bytes(b"".join(words), "big")


@dataclass(frozen=True)
class CountUpdate:
    """One keyword's new count inside the DO's update transaction."""

    keyword: str
    count: int


class ChameleonContract(SmartContract):
    """On-chain side of the Chameleon^inv index."""

    def __init__(self, value_bytes: int = 128) -> None:
        super().__init__()
        self.value_bytes = value_bytes

    def setup_keyword(self, keyword: str, commitment: int) -> None:
        """Store a new keyword's invariant root commitment ``c_0``.

        Paid once per keyword; the commitment spans several words.
        """
        words = commitment_to_words(commitment, self.value_bytes)
        self.env.read_calldata(b"".join(words))
        for i, word in enumerate(words):
            self.storage.store(("c0", keyword, i), word)
        self.storage.store(("c0words", keyword), len(words))
        self.emit("KeywordSetup", keyword=keyword)

    def insert_object(
        self,
        object_id: int,
        object_hash: bytes,
        updates: list[CountUpdate],
        new_keywords: list[tuple[str, int]] = (),
    ) -> None:
        """DO entry point: register meta-data and bump every count.

        First-seen keywords piggyback their one-time ``c_0`` setup on the
        same transaction via ``new_keywords``.
        """
        with obs.span("maintain.ci.insert", keywords=len(updates)):
            self.env.read_calldata(object_hash)
            self.storage.store(("objhash", object_id), object_hash)
            for keyword, commitment in new_keywords:
                self.setup_keyword(keyword, commitment)
            for update in updates:
                self.storage.store(("cnt", update.keyword), update.count)
            self.emit(
                "ObjectInserted", object_id=object_id, keywords=len(updates)
            )

    def insert_objects(self, batch: list[tuple]) -> None:
        """Batched DO entry point: many objects in one transaction.

        Each batch item is ``(object_id, object_hash, updates,
        new_keywords)``.  Per-object work is identical to
        :meth:`insert_object`; the 21,000-gas transaction base cost is
        paid once for the whole batch — the amortisation studied by the
        batch-size ablation.
        """
        for object_id, object_hash, updates, new_keywords in batch:
            self.insert_object(object_id, object_hash, updates, new_keywords)
        self.emit("BatchInserted", count=len(batch))

    # -- free views --------------------------------------------------------------

    def view_digest(self, keyword: str) -> tuple[int | None, int]:
        """``<c_0, cnt>`` for one keyword (``None`` if never set up)."""
        n_words = self.storage.peek_int(("c0words", keyword))
        if n_words == 0:
            return None, 0
        words = [
            self.storage.peek(("c0", keyword, i)) for i in range(n_words)
        ]
        count = self.storage.peek_int(("cnt", keyword))
        return words_to_commitment(words), count

    def view_object_hash(self, object_id: int) -> bytes:
        """Free view: the registered hash of one object."""
        return self.storage.peek(("objhash", object_id))


class ChameleonDataOwner:
    """DO-side state for the whole Chameleon^inv index.

    Owns the CVC trapdoor and PRF key; lazily creates one
    :class:`ChameleonTreeDO` per keyword and emits the insertion proofs
    the SP needs plus the count updates the chain needs.
    """

    def __init__(
        self,
        cvc: vc.ChameleonVectorCommitment,
        prf_key: bytes,
        arity: int = DEFAULT_ARITY,
    ) -> None:
        if not cvc.has_trapdoor:
            raise ReproError("the data owner requires the CVC trapdoor")
        self.cvc = cvc
        self.prf_key = prf_key
        self.arity = arity
        self.trees: dict[str, ChameleonTreeDO] = {}

    def tree_for(self, keyword: str) -> tuple[ChameleonTreeDO, bool]:
        """The keyword's DO tree; second element marks first use."""
        created = keyword not in self.trees
        if created:
            self.trees[keyword] = ChameleonTreeDO(
                self.cvc, self.prf_key, keyword, arity=self.arity
            )
        return self.trees[keyword], created

    def insert(self, metadata: ObjectMetadata, undo: list | None = None):
        """Run Algorithm 4 for every keyword of a new object.

        Returns ``(insertion_proofs, count_updates, new_keywords)`` where
        ``new_keywords`` maps first-seen keywords to their ``c_0``.
        ``undo``, when given, receives one record per insertion — the
        keyword, the new position and the aux its parent held before —
        which is all :meth:`rollback` needs should the receipt fail.
        """
        proofs = {}
        counts = []
        new_keywords = {}
        for keyword in metadata.keywords:
            tree, created = self.tree_for(keyword)
            if created:
                new_keywords[keyword] = tree.root_commitment
            if undo is not None:
                position = tree.count + 1
                parent, _ = parent_position(position, self.arity)
                undo.append((keyword, position, tree.aux_at(parent)))
            proofs[keyword] = tree.insert(
                metadata.object_id, metadata.object_hash
            )
            counts.append(CountUpdate(keyword=keyword, count=tree.count))
        return proofs, counts, new_keywords

    def insert_many(self, metadatas: list[ObjectMetadata], undo: list):
        """:meth:`insert` for each object of a transaction, under one span."""
        with obs.span("do.open", objects=len(metadatas)):
            return [self.insert(metadata, undo) for metadata in metadatas]

    def rollback(self, undo: list) -> None:
        """Take back every insertion recorded in ``undo`` (failed receipt).

        Costs one step per record, whatever the trees' sizes.  A tree
        whose first position is taken back was created by the failed
        batch — the chain never saw its ``c_0`` — and is forgotten.
        """
        while undo:
            keyword, position, parent_aux = undo.pop()
            self.trees[keyword].retract(position, parent_aux)
            if position == 1:
                del self.trees[keyword]


@dataclass
class ChameleonView:
    """One keyword's Chameleon tree as the SP's join walk reads it.

    A :class:`~repro.core.query.join.KeyView`: the walk gets object IDs,
    each probe one bisect of the tree's ID list (IDs ascend with
    positions, so an ID's rank is its position), and nothing is proven.
    The view remembers, ascending, the *positions* it handed out;
    :meth:`run` packs them with the tree's ``c_0 || cnt`` for the prove
    step (:func:`~repro.core.multiproof.compress_query_vo`), which asks
    each tree once for the node table over everything a query read from
    it.

    ``bloom`` is populated only by the starred variant; when set, the
    walk skips probes for IDs the on-chain filters prove absent — the
    client's view holds the same filters and skips the same probes.
    """

    keyword: str
    tree: ChameleonTreeSP
    bloom: BloomFilterChain | None = None
    positions: list[int] = field(default_factory=list, init=False, compare=False)

    def __len__(self) -> int:
        return self.tree.count

    def first(self) -> int:
        """The smallest ID."""
        remember_key(self.positions, 1)
        return self.tree.ids[0]

    def boundaries(self, target: int) -> tuple[int | None, int | None]:
        """The IDs around a target."""
        ids = self.tree.ids
        rank = self.tree.rank_of(target)  # also lower's position
        lower = upper = None
        if rank:
            lower = ids[rank - 1]
            remember_key(self.positions, rank)
        if rank < len(ids):
            upper = ids[rank]
            remember_key(self.positions, rank + 1)
        return lower, upper

    def scan(self) -> list[int]:
        """Every ID, in order."""
        ids = self.tree.ids
        self.positions = list(range(1, len(ids) + 1))
        return list(ids)

    def run(self) -> LocatedRun:
        """What has been read so far, under the ``<c_0, cnt>`` it was read at."""
        return LocatedRun(
            keyword=self.keyword,
            root=self.tree.run_root,
            keys=tuple(self.positions),
            tree=self.tree,
        )

    def definitely_absent(self, object_id: int) -> bool:
        """Whether on-chain filters prove the ID absent."""
        return self.bloom is not None and self.bloom.definitely_absent(object_id)


@dataclass
class ChameleonSP:
    """The SP's complete Chameleon^inv index.

    ``bloom`` is ``(filter_bits, capacity)`` under CI*.  A keyword's
    Bloom filter chain is then a function of the IDs applied to its
    tree, so the index derives it, never stores it: each ID the tree
    accepts is added, :meth:`adopt` rebuilds every chain from its tree,
    and all chains share the index's one mask memo.
    """

    pp: vc.CVCPublicParams
    arity: int = DEFAULT_ARITY
    bloom: tuple[int, int] | None = None
    trees: dict[str, ChameleonTreeSP] = field(default_factory=dict)
    blooms: dict[str, BloomFilterChain] = field(default_factory=dict, init=False)
    masks: MaskMemo | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.bloom is not None:
            self.masks = MaskMemo(self.bloom[0], optimal_hash_count(*self.bloom))

    @property
    def value_bytes(self) -> int:
        """Group-element width for this modulus."""
        return (self.pp.modulus.bit_length() + 7) // 8

    def register_keyword(self, keyword: str, root_commitment: int) -> None:
        """Register a keyword's root commitment."""
        if keyword not in self.trees:
            self.trees[keyword] = ChameleonTreeSP(
                root_commitment,
                arity=self.arity,
                value_bytes=self.value_bytes,
            )

    def apply_insertion(self, keyword: str, proof) -> None:
        """Ingest one DO insertion proof."""
        if keyword not in self.trees:
            raise ReproError(f"keyword {keyword!r} was never set up")
        with obs.span("sp.index.apply"):
            self.trees[keyword].apply_insertion(proof)
            self._add_to_chain(keyword, proof.object_id)

    def _add_to_chain(self, keyword: str, object_id: int) -> None:
        if self.masks is not None:
            chain = self.blooms.get(keyword)
            if chain is None:
                chain = self.blooms[keyword] = BloomFilterChain(
                    *self.bloom, masks=self.masks
                )
            chain.add(object_id)

    def adopt(self, trees: dict[str, ChameleonTreeSP]) -> None:
        """Install checkpoint-restored trees; rebuild each chain from its
        tree's IDs in position order, the order they were applied in."""
        self.trees = dict(trees)
        self.blooms = {}
        if self.masks is not None:
            for keyword, tree in trees.items():
                for object_id in tree.ids:
                    self._add_to_chain(keyword, object_id)

    def view(self, keyword: str) -> ChameleonView:
        """The join engine's view of one keyword's tree."""
        tree = self.trees.get(keyword)
        if tree is None:
            # Unknown keyword: an empty placeholder (len == 0 routes the
            # join engine to the emptiness short-circuit).
            tree = ChameleonTreeSP(
                root_commitment=0,
                arity=self.arity,
                value_bytes=self.value_bytes,
            )
        return ChameleonView(
            keyword=keyword, tree=tree, bloom=self.blooms.get(keyword)
        )


@dataclass
class ChameleonProofSystem:
    """Client verifier for CVC node tables (Algorithm 6 checks).

    ``digests`` binds each queried keyword to its on-chain ``<c_0, cnt>``;
    ``blooms`` (starred variant only) carries the on-chain Bloom filter
    snapshots, which the client's join views consult exactly as the
    SP's do.

    A query's tables arrive through :meth:`attach_multiproofs`.  A
    conjunct opens each table it names through :meth:`proven_run`: the
    first opening of a table authenticates every node under the keyword's
    ``<c_0, cnt>`` (:meth:`ChameleonMultiproof.authenticate`) — or
    recalls that the byte-identical table did — and the read rows become the :class:`~repro.core.multiproof.ProvenRun` the
    join is replayed over — positions are the DO's insertion order and
    IDs ascend, so two entries at ``position`` and ``position + 1`` have
    nothing between them, position 1 is the first entry and position
    ``cnt`` the last.

    No opening is checked when a row is: inside :meth:`settling` — the
    only place tables can be opened — each node's statement (its
    commitment, its opening and the whole vector it claims: slot 1 and
    every filled child slot, DESIGN.md §6.1) is looked up, range-checked
    and *recorded*, and the scope's exit checks everything recorded as
    one :func:`repro.crypto.vc.verify_batch`.  Nothing the join
    concluded counts until that exit returns: ``verify_query`` compares,
    caches and counts only afterwards.  The exit also settles the
    account of the tables: none unused, no entry row unread.

    ``cache``, when set, memoises *successful* checks at two
    granularities, both stored only once the batch they were checked in
    has passed.  A *node* key is built from the bytes the table holds —
    the modulus, ``c``, ``Lambda``, the ``id || h(o)`` slot 1 commits to
    and the filled child slots' commitments — so a node shared between
    queries costs its share of a batch once, whichever of its children
    arrived as rows.  That a statement holds says nothing about where
    its commitment hangs: a table is authenticated from ``c_0`` over
    (cached) statements.  A *table* key is ``(modulus, c_0, cnt,
    ChameleonMultiproof.cache_token())``: everything
    :meth:`~ChameleonMultiproof.authenticate` reads, so a table met
    again under the same ``<c_0, cnt>`` is recalled whole — its read
    rows are taken from the structure the codec already checked, and no
    statement is built.  Any tampered byte changes a key, misses, and is
    checked (and fails) from scratch.  Hits and misses count nodes: a
    recalled table counts one hit per node it holds, its lookup nothing.
    """

    pp: vc.CVCPublicParams
    digests: dict[str, tuple[int | None, int]]
    arity: int = DEFAULT_ARITY
    blooms: dict[str, BloomFilterChain] | None = None
    value_bytes: int = 128
    cache: VerificationCache | None = None
    #: The current query's tables (see :meth:`attach_multiproofs`).
    multiproofs: tuple = field(
        default=(), init=False, repr=False, compare=False
    )
    #: Per attached table in use: the ``c_0`` it was authenticated
    #: under, its entry rows, their gap counts and their read marks.
    _opened: dict[int, tuple[int, list, tuple[int, ...], bytearray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: What the open :meth:`settling` scope owes, by cache key: each
    #: recorded statement with the ``(keyword, position)`` of the node
    #: it belongs to, and each table authenticated over them as ``None``
    #: with the ``(keyword, table)`` the cache will hold; ``None``
    #: outside a scope.
    _pending: dict[CacheKey, _Owed] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def _digest(self, keyword: str) -> tuple[int | None, int]:
        return self.digests.get(keyword, (None, 0))

    def attach_multiproofs(self, multiproofs: tuple) -> None:
        """Bind the current query's node tables (per-query state)."""
        self.multiproofs = tuple(multiproofs)
        self._opened = {}

    @contextmanager
    def settling(self) -> Iterator[None]:
        """The scope in which tables are opened; leaving it settles.

        Leaving normally requires every attached table used and every
        entry row read, then checks every opening recorded inside as one
        batch, and raises :class:`VerificationError` if any of it fails;
        leaving on an error checks nothing.  Either way nothing recorded
        survives the scope, so no later one can inherit a check that was
        never made.
        """
        if self._pending is not None:
            raise ReproError("settling() scopes do not nest")
        self._pending = {}
        try:
            yield
            settle_tables(
                len(self.multiproofs),
                {index: opened[3] for index, opened in self._opened.items()},
            )
            self._settle(self._pending)
        finally:
            self._pending = None

    def _holds(
        self,
        keyword: str,
        table: ChameleonMultiproof,
        nodes: dict[int, CacheKey],
        position: int,
        node: bytes,
        children: list[bytes],
    ) -> bool:
        """Recall one node statement that held, or record it as owed.

        ``(keyword, position)`` names the node: should its opening fail
        at settle time, the error says whose it was.  ``nodes`` collects
        each position's key for the cache's node index.
        """
        pending = self._pending
        # One byte says root or row and how many child slots are filled:
        # the rest of the key is fixed-width fields, so it reads one way
        # (and :func:`~repro.core.chameleon.expand_rows` reads it back).
        shape = len(children) | (0 if position else 0x80)
        key = CacheKey(
            (self.pp.modulus, bytes((shape,)) + node + b"".join(children))
        )
        nodes[position] = key
        if key in pending:
            # Owed already: like a cached statement, it costs nothing more.
            if self.cache is not None:
                self.cache.count_hit()
            return True
        if self.cache is not None and self.cache.recall(key):
            return True
        statement = table.statement(node, children)
        modulus = self.pp.modulus
        if not vc.statement_in_range(self.pp, statement) or not all(
            0 < message < modulus for message in statement[1][1 : 1 + len(children)]
        ):
            return False
        pending[key] = (statement, (keyword, position))
        return True

    def _settle(self, pending: dict[CacheKey, _Owed]) -> None:
        """Check the recorded statements together; cache what was owed if all hold."""
        owed = [node for node in pending.values() if node[0] is not None]
        if owed and not vc.verify_batch(self.pp, [statement for statement, _ in owed]):
            # The batch only says that something is wrong; one by one
            # names it.  Should every statement pass on its own after all,
            # that is the stronger verdict and stands.
            obs.inc("vc.verify.batch_fallbacks")
            for statement, (keyword, position) in owed:
                if not vc.verify_vector(self.pp, *statement):
                    raise VerificationError(
                        f"opening of node {position} of keyword {keyword!r} "
                        "failed commitment verification"
                    )
        cache = self.cache
        if cache is not None:
            for key, (statement, owner) in pending.items():
                if statement is not None:
                    cache.add(key)
                    continue
                keyword, table, nodes = owner
                cache.add(key, summary=True, hold=(keyword, table))
                # The table key is (modulus, c_0, cnt, token).
                cache.index(keyword, key.parts[1], key.parts[2], nodes)

    def _authenticate(
        self,
        keyword: str,
        table: ChameleonMultiproof,
        commitment: int,
        count: int,
    ) -> tuple[list[int], list[tuple[int, bytes]]]:
        """A table's read rows under ``<c_0, cnt>``: recalled, or authenticated.

        A table that authenticated under this ``<c_0, cnt>`` before is
        recalled whole; any other has its nodes recorded as owed, and the
        table itself is cached beside them once they have settled.
        """
        pending = self._pending
        if pending is None:
            raise ReproError(
                "CVC tables are opened inside ChameleonProofSystem."
                "settling(), whose exit checks their openings"
            )
        cache = self.cache
        key = None
        if cache is not None:
            key = CacheKey((self.pp.modulus, commitment, count, table.cache_token()))
            if cache.recall(key, summary=True, hold=(keyword, table)):
                cache.count_hit(len(table.rows()))
                return table.entries()
        nodes: dict[int, CacheKey] = {}
        proven = table.authenticate(
            partial(self._holds, keyword, table, nodes), commitment, count
        )
        if key is not None:
            pending[key] = (None, (keyword, table, nodes))
        return proven

    def proven_run(self, keyword: str, table: int | None) -> ProvenRun:
        """Open one tree of a conjunct as the walk's view.

        ``table`` indexes the attached node tables; ``None`` says the
        walk reads nothing from this tree, which is only believed of a
        keyword the chain shows non-empty (an empty one makes the whole
        component an empty-keyword claim).  Only inside :meth:`settling`.
        """
        commitment, count = self._digest(keyword)
        bloom = None if self.blooms is None else self.blooms.get(keyword)
        if commitment is None or count == 0:
            raise VerificationError(
                f"join lists keyword {keyword!r}, which VO_chain shows empty"
            )
        if table is None:
            return ProvenRun.unread(keyword, bloom)
        opened = self._opened.get(table)
        if opened is None:
            if not 0 <= table < len(self.multiproofs):
                raise VerificationError(
                    f"node table index {table} out of range "
                    f"({len(self.multiproofs)} attached)"
                )
            node_table = self.multiproofs[table]
            if not isinstance(node_table, ChameleonMultiproof):
                raise VerificationError("conjunct names a table of another kind")
            if node_table.arity != self.arity:
                raise VerificationError(
                    f"node table arity {node_table.arity} is not the scheme's "
                    f"{self.arity}"
                )
            positions, leaves = self._authenticate(
                keyword, node_table, commitment, count
            )
            gaps = (
                0,
                *[position - at for at, position in enumerate(positions, 1)],
                count - len(positions),
            )
            opened = self._opened[table] = (
                commitment, leaves, gaps, bytearray(len(leaves) + 2)
            )
        bound, leaves, gaps, read = opened
        if bound != commitment:
            # Rows authenticated under one root say nothing under another.
            raise VerificationError(
                f"node table {table} is bound to a different tree than "
                f"keyword {keyword!r}"
            )
        return ProvenRun(keyword, table, leaves, gaps, read, bloom)

    def keyword_empty(self, keyword: str) -> bool:
        """Whether VO_chain shows the keyword's tree empty."""
        commitment, count = self._digest(keyword)
        return commitment is None or count == 0

    def chain_digest_bytes(self) -> int:
        """``VO_chain`` size: ``c_0`` + ``cnt`` per keyword, plus filters."""
        total = len(self.digests) * (self.value_bytes + 8)
        if self.blooms is not None:
            for chain in self.blooms.values():
                total += len(chain) * (32 + 8)
        return total
