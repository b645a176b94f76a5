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
    MembershipProof,
    NodeRef,
    parent_position,
    verify_position,
)
from repro.core.objects import ObjectMetadata
from repro.core.proofcache import CacheKey, VerificationCache
from repro.core.query.vo import ProvenEntry
from repro.crypto import vc
from repro.crypto.bloom import BloomFilterChain
from repro.crypto.hashing import DIGEST_SIZE
from repro.errors import ReproError, VerificationError
from repro.ethereum.contract import SmartContract


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
    """IndexView adapter over one keyword's SP-side Chameleon tree.

    ``bloom`` is populated only by the starred variant; when set, the
    join engine can skip probes for IDs the on-chain filters prove
    absent.

    A view serves one conjunct of one query, and a join walk probes it
    once per round: the link chains it has read out of the tree's store
    are kept for the next probe, so each node is read once per walk.
    """

    keyword: str
    tree: ChameleonTreeSP
    bloom: BloomFilterChain | None = None
    _chains: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return self.tree.count

    def first_proven(self) -> ProvenEntry | None:
        """The smallest entry with proof, or None when empty."""
        pair = self.tree.first()
        if pair is None:
            return None
        entry, proof = pair
        return ProvenEntry(
            object_id=entry.key, object_hash=entry.value_hash, proof=proof
        )

    def boundaries_proven(
        self, target: int
    ) -> tuple[ProvenEntry | None, ProvenEntry | None]:
        """Boundary entries with proofs around a target."""
        search = self.tree.boundaries(target, self._chains)
        lower = None
        upper = None
        if search.lower is not None:
            lower = ProvenEntry(
                object_id=search.lower.key,
                object_hash=search.lower.value_hash,
                proof=search.lower_proof,
            )
        if search.upper is not None:
            upper = ProvenEntry(
                object_id=search.upper.key,
                object_hash=search.upper.value_hash,
                proof=search.upper_proof,
            )
        return lower, upper

    def all_proven(self) -> list[ProvenEntry]:
        """Every entry with proof, in key order."""
        return [
            ProvenEntry(
                object_id=entry.key, object_hash=entry.value_hash, proof=proof
            )
            for entry, proof in self.tree.all_entries()
        ]

    def definitely_absent(self, object_id: int) -> bool:
        """Whether on-chain filters prove the ID absent."""
        if self.bloom is None:
            return False
        return self.bloom.definitely_absent(object_id)


@dataclass
class ChameleonSP:
    """The SP's complete Chameleon^inv index."""

    pp: vc.CVCPublicParams
    arity: int = DEFAULT_ARITY
    trees: dict[str, ChameleonTreeSP] = field(default_factory=dict)

    @property
    def _value_bytes(self) -> int:
        """Group-element width for this modulus."""
        return (self.pp.modulus.bit_length() + 7) // 8

    def register_keyword(self, keyword: str, root_commitment: int) -> None:
        """Register a keyword's root commitment."""
        if keyword not in self.trees:
            self.trees[keyword] = ChameleonTreeSP(
                root_commitment,
                arity=self.arity,
                value_bytes=self._value_bytes,
            )

    def apply_insertion(self, keyword: str, proof) -> None:
        """Ingest one DO insertion proof."""
        if keyword not in self.trees:
            raise ReproError(f"keyword {keyword!r} was never set up")
        with obs.span("sp.index.apply"):
            self.trees[keyword].apply_insertion(proof)

    def view(self, keyword: str) -> ChameleonView:
        """The join engine's IndexView for one keyword."""
        tree = self.trees.get(keyword)
        if tree is None:
            # Unknown keyword: an empty placeholder (len == 0 routes the
            # join engine to the emptiness short-circuit).
            tree = ChameleonTreeSP(
                root_commitment=0,
                arity=self.arity,
                value_bytes=self._value_bytes,
            )
        return ChameleonView(keyword=keyword, tree=tree)


@dataclass
class ChameleonProofSystem:
    """Client verifier for CVC membership VOs (Algorithm 6 checks).

    ``digests`` binds each queried keyword to its on-chain ``<c_0, cnt>``;
    ``blooms`` (starred variant only) carries the on-chain Bloom filter
    snapshots used to validate skip rounds.

    An entry arrives as a :class:`~repro.core.chameleon.NodeRef` into
    one of the query's node tables (bound by
    :meth:`attach_multiproofs`) or as a legacy per-entry
    :class:`~repro.core.chameleon.MembershipProof`; either way it is a
    position over ``position -> node`` rows and goes through
    :func:`~repro.core.chameleon.verify_position`.  Within a query, a
    table node whose chain reached ``c_0`` is not walked again.

    No opening is checked when an entry is: inside :meth:`settling` —
    the only place entries can be verified — each opening an entry needs
    is looked up, range-checked and *recorded*, and the scope's exit
    checks everything recorded as one :func:`repro.crypto.vc.verify_batch`
    (DESIGN.md §6.1).  Nothing an entry "passed" counts until that exit
    returns: ``verify_query`` and the warmer compare, cache and count
    only afterwards.

    ``cache``, when set, memoises *successful* openings keyed on the
    complete tuple ``(modulus, commitment, slot, message, proof)`` — the
    whole input of one ``vc.verify`` — so an opening shared between
    entries, conjuncts or queries costs its share of a batch once.  Only
    the openings of a batch that passed are stored.  That an opening
    holds says nothing about where its commitment hangs: the chain from
    ``c_0`` is re-walked over (cached) openings every query, and any
    tampered component changes a key, misses, and is checked (and fails)
    from scratch.
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
    #: Per attached table in use: the table, the ``c_0`` it was first
    #: verified under, and the positions whose chain reached it.
    _walked: dict[int, tuple[ChameleonMultiproof, int, set[int]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: The openings recorded in the open :meth:`settling` scope, by cache
    #: key, each with the ``(keyword, object_id)`` of the entry that first
    #: needed it; ``None`` outside a scope.
    _pending: dict[CacheKey, tuple[vc.Opening, tuple[str, int]]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def _digest(self, keyword: str) -> tuple[int | None, int]:
        return self.digests.get(keyword, (None, 0))

    def attach_multiproofs(self, multiproofs: tuple) -> None:
        """Bind the current query's node tables (per-query state)."""
        self.multiproofs = tuple(multiproofs)
        self._walked = {}

    @contextmanager
    def settling(self) -> Iterator[None]:
        """The scope in which entries are verified; leaving it settles.

        Leaving normally checks every opening recorded inside as one
        batch and raises :class:`VerificationError` if one fails; leaving
        on an error checks nothing.  Either way nothing recorded
        survives the scope, so no later one can inherit a check that was
        never made.
        """
        if self._pending is not None:
            raise ReproError("settling() scopes do not nest")
        self._pending = {}
        try:
            yield
            self._settle(self._pending)
        finally:
            self._pending = None

    def _opens(
        self,
        owner: tuple[str, int],
        commitment: int,
        slot: int,
        message: int | bytes,
        proof: int,
    ) -> bool:
        """Recall one CVC ``Ver`` that succeeded, or record it as owed.

        ``owner`` is the ``(keyword, object_id)`` of the entry being
        verified: should the opening fail at settle time, the error says
        whose it was.
        """
        pending = self._pending
        if pending is None:
            raise ReproError(
                "CVC entries are verified inside ChameleonProofSystem."
                "settling(), whose exit checks their openings"
            )
        key = CacheKey((self.pp.modulus, commitment, slot, message, proof))
        if key in pending:
            # Owed already: like a cached opening, it costs nothing more.
            if self.cache is not None:
                self.cache.count_hit()
            return True
        if self.cache is not None and self.cache.seen(key):
            return True
        if not vc.opening_in_range(self.pp, commitment, slot, proof):
            return False
        pending[key] = ((commitment, slot, message, proof), owner)
        return True

    def _settle(
        self, pending: dict[CacheKey, tuple[vc.Opening, tuple[str, int]]]
    ) -> None:
        """Check the recorded openings together; cache them if all hold."""
        if not pending:
            return
        if not vc.verify_batch(
            self.pp, [opening for opening, _ in pending.values()]
        ):
            # The batch only says that something is wrong; one by one
            # names it.  Should every opening pass on its own after all,
            # that is the stronger verdict and stands.
            obs.inc("vc.verify.batch_fallbacks")
            for opening, (keyword, object_id) in pending.values():
                if not vc.verify(self.pp, *opening):
                    slot = opening[1]
                    raise VerificationError(
                        (
                            "slot-1 opening of the node commitment failed"
                            if slot == 1
                            else f"parent link in child slot {slot - 1} "
                            "failed commitment verification"
                        )
                        + f" (entry {object_id} of keyword {keyword!r})"
                    )
        if self.cache is not None:
            for key in pending:
                self.cache.add(key)

    def _table(
        self, ref: NodeRef, commitment: int
    ) -> tuple[ChameleonMultiproof, set[int]]:
        """The table a ref points into, and its walked positions.

        The first ref into a table binds it to the ``c_0`` it is checked
        under: chains walked to one root say nothing under another.
        """
        state = self._walked.get(ref.table_index)
        if state is None:
            if not 0 <= ref.table_index < len(self.multiproofs):
                raise VerificationError(
                    f"node table index {ref.table_index} out of range "
                    f"({len(self.multiproofs)} attached)"
                )
            table = self.multiproofs[ref.table_index]
            if not isinstance(table, ChameleonMultiproof):
                raise VerificationError(
                    "entry references a table of another kind"
                )
            if table.arity != self.arity:
                raise VerificationError(
                    f"node table arity {table.arity} is not the scheme's "
                    f"{self.arity}"
                )
            state = self._walked[ref.table_index] = (table, commitment, set())
        table, bound, walked = state
        if bound != commitment:
            raise VerificationError(
                f"node table {ref.table_index} is bound to a different tree"
            )
        return table, walked

    def verify_entry(self, keyword: str, entry: ProvenEntry) -> None:
        """Authenticate one proven entry; raises on failure."""
        proof = entry.proof
        commitment, count = self._digest(keyword)
        if commitment is None:
            raise VerificationError(
                f"keyword {keyword!r} has no on-chain commitment"
            )
        if isinstance(proof, NodeRef):
            table, walked = self._table(proof, commitment)
            node_at = table.node
        elif isinstance(proof, MembershipProof):
            node_at, walked = proof.nodes(self.arity).__getitem__, set()
        else:
            raise VerificationError("expected a CVC membership proof")
        verify_position(
            partial(self._opens, (keyword, entry.object_id)),
            commitment,
            count,
            self.arity,
            node_at,
            proof.position,
            entry.object_id,
            entry.object_hash,
            proof.slot1_proof,
            walked,
        )

    def _settles(self, keyword: str, entries: list[ProvenEntry]) -> bool:
        """Whether ``entries`` verify, settled together as one batch."""
        try:
            with self.settling():
                for entry in entries:
                    self.verify_entry(keyword, entry)
        except VerificationError:
            return False
        return True

    def warm_entries(self, keyword: str, entries: list[ProvenEntry]) -> int:
        """Pre-verify a keyword's posting list for the warmer.

        The whole list settles as one batch.  When that fails, each
        entry settles alone, so a tampered entry is skipped and left
        uncached while the rest still warm.  Returns how many verified.
        """
        if self._settles(keyword, entries):
            return len(entries)
        return sum(self._settles(keyword, [entry]) for entry in entries)

    @staticmethod
    def _position(entry: ProvenEntry) -> int | None:
        proof = entry.proof
        if isinstance(proof, (NodeRef, MembershipProof)):
            return proof.position
        return None

    def is_first(self, keyword: str, entry: ProvenEntry) -> bool:
        """Whether the entry is provably the tree's first."""
        return self._position(entry) == 1

    def is_last(self, keyword: str, entry: ProvenEntry) -> bool:
        """Whether the entry is provably the tree's last."""
        _, count = self._digest(keyword)
        return self._position(entry) == count

    def adjacent(
        self, keyword: str, lower: ProvenEntry, upper: ProvenEntry
    ) -> bool:
        """Whether two verified entries are consecutive."""
        below, above = self._position(lower), self._position(upper)
        return below is not None and above is not None and above == below + 1

    def keyword_empty(self, keyword: str) -> bool:
        """Whether VO_chain shows the keyword's tree empty."""
        commitment, count = self._digest(keyword)
        return commitment is None or count == 0

    def definitely_absent(self, keyword: str, object_id: int) -> bool:
        """Whether on-chain filters prove the ID absent."""
        if self.blooms is None or keyword not in self.blooms:
            return False
        return self.blooms[keyword].definitely_absent(object_id)

    def chain_digest_bytes(self) -> int:
        """``VO_chain`` size: ``c_0`` + ``cnt`` per keyword, plus filters."""
        total = len(self.digests) * (self.value_bytes + 8)
        if self.blooms is not None:
            for chain in self.blooms.values():
                total += len(chain) * (32 + 8)
        return total
