"""The hybrid-storage blockchain system facade (Fig. 1).

Wires the four parties together for any of the ADS schemes:

* the **data owner** (:class:`~repro.core.owner.DataOwnerPipeline`)
  streams objects: raw data to the SP, meta-data and ADS updates to the
  blockchain.  There is one ingest path,
  :meth:`HybridStorageSystem.add_objects_batched`; ``add_object`` is a
  batch of one.  A batch is checked (non-empty, no ID stored or
  repeated) before its first transaction.  The Chameleon family
  confirms it whole or not at all; the Merkle family keeps the prefix
  confirmed before a failure, stored and queryable;
* the **blockchain** runs the scheme's smart contract under the gas
  model of Table I;
* the **SP** (:class:`~repro.core.sp_frontend.ShardedStorageProvider`)
  homes raw objects and the complete ADS across ``shards`` keyword
  partitions, and answers keyword queries with verification objects;
* the **client** queries the SP and verifies results against the
  authenticated digests read from the chain.

The facade owns only the wiring: gas accounting, block mining, the
readers-writer lock serialising ingestion against query serving, and
the client's verification cache.  Sharding is configured
here (``shards=N``, ``engine="memory"|"disk"``) and is invisible to the
client and the contract — per-keyword state is byte-identical for any
shard count.

Typical use::

    from repro import HybridStorageSystem, DataObject

    system = HybridStorageSystem(scheme="ci*")
    system.add_object(DataObject(1, ("covid-19", "vaccine"), b"..."))
    result = system.query('"covid-19" AND vaccine')  # raises unless verified
    assert result.result_ids == [1]
"""

from __future__ import annotations

import time
import weakref
from collections.abc import Sequence
from contextlib import AbstractContextManager
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.core import merkle_inv, suppressed
from repro.core.chameleon_index import (
    ChameleonContract,
    ChameleonDataOwner,
    ChameleonProofSystem,
)
from repro.core.chameleon_star import ChameleonStarContract
from repro.core.mbtree import DEFAULT_FANOUT
from repro.core.merkle_family import MerkleProofSystem
from repro.core.objects import DataObject, ObjectMetadata
from repro.core.owner import ADS_CONTRACT, DataOwnerPipeline
from repro.core.proofcache import VerificationCache
from repro.core.query.parser import KeywordQuery
from repro.core.query.vo import QueryAnswer
from repro.core.scheme import Scheme
from repro.core.sp_frontend import ShardedStorageProvider
from repro.crypto import vc
from repro.crypto.bloom import DEFAULT_CAPACITY, DEFAULT_FILTER_BITS, BloomFilterChain
from repro.crypto.prf import generate_key
from repro.errors import DatasetError, IntegrityError
from repro.ethereum.chain import Blockchain, Receipt
from repro.ethereum.gas import BLOCK_GAS_LIMIT, GasMeter
from repro.parallel import ReadWriteLock
from repro.sp.engine import holds_shard_state
from repro.sp.protocol import QueryResult, RemoteClient, StorageProviderServer

__all__ = [
    "ADS_CONTRACT",
    "HybridStorageSystem",
    "InsertReport",
    "QueryResult",
    "Scheme",
]


@dataclass
class InsertReport:
    """Outcome of one object insertion: the transactions it cost."""

    object_id: int
    receipts: list[Receipt]

    @property
    def gas(self) -> int:
        """Total gas across this insertion's transactions."""
        return sum(r.gas.total for r in self.receipts)


class HybridStorageSystem:
    """End-to-end hybrid-storage blockchain with a pluggable ADS scheme.

    Parameters mirror the paper's experimental knobs: MB-tree ``fanout``
    (default 4), Chameleon tree ``arity`` (q, default 2), Bloom filter
    capacity ``bloom_capacity`` (b, default 30) and the CVC modulus size.
    ``seed`` makes all key material deterministic for reproducible runs.

    Fixed, not knobs: 256-bit Bloom filters, smallest-tree-first join
    order, the join plan :func:`~repro.core.query.join.rule_plan` gives,
    and a client cache that ``verify_cache.clear()`` makes cold again.

    Sharding knobs: ``shards`` splits the SP into that many keyword
    partitions behind deterministic seeded routing; ``engine`` picks the
    per-shard storage engine (``memory`` default, or ``disk`` for an
    append-only binary journal and a checkpoint per shard under
    ``engine_dir``, which must hold no shard state yet: the chain and
    the DO start empty, so a directory from an earlier run is refused with
    :class:`~repro.errors.IntegrityError` — a system is restored by
    replaying its object log, :func:`~repro.core.persistence.load_system`);
    ``pool`` says
    where the engines live (``stateless``, the default: in this process;
    ``affine``: each shard's engine resident in a long-lived worker
    process that is sent only delta ops per batch).  Shard layout and pool mode never change
    answers, VO bytes or gas — only capacity and throughput.
    """

    #: There is one VO shape; ``benchmarks/e2e`` still reads this, and it
    #: goes when a benchmark-only PR stops doing so.
    vo_version = 3
    #: The SP's join order and plan (``None``: the rule's); ``benchmarks/e2e``
    #: still reads these, and they go when a benchmark-only PR stops doing so.
    join_order = "size"
    join_plan = None

    def __init__(
        self,
        scheme: Scheme | str = Scheme.SUPPRESSED,
        fanout: int = DEFAULT_FANOUT,
        arity: int = 2,
        bloom_capacity: int = DEFAULT_CAPACITY,
        cvc_modulus_bits: int = 1024,
        seed: int | None = 7,
        gas_limit: int = BLOCK_GAS_LIMIT,
        track_state: bool = False,
        shards: int = 1,
        engine: str = "memory",
        engine_dir: str | Path | None = None,
        pool: str = "stateless",
    ) -> None:
        self.scheme = Scheme.parse(scheme)
        if engine == "disk" and engine_dir is not None and holds_shard_state(engine_dir):
            # The SP would replay it over an empty chain and an empty DO,
            # and no query or insertion would verify again.
            raise IntegrityError(
                f"{engine_dir} already holds shard state; a new system "
                "starts from an empty chain and cannot adopt it"
            )
        self.fanout = fanout
        self.arity = arity
        self.bloom_capacity = bloom_capacity
        self.cvc_modulus_bits = cvc_modulus_bits
        self.gas_limit = gas_limit
        self.track_state = track_state
        self.shards = shards
        self.engine = engine
        self.pool = pool
        self.chain = Blockchain(gas_limit=gas_limit, track_state=track_state)
        self._maintenance = GasMeter()
        self._object_count = 0
        self._rwlock = ReadWriteLock()
        self.verify_cache = VerificationCache(
            metric_prefix="vc.verify" if self.uses_cvc else "merkle.verify"
        )

        do: ChameleonDataOwner | None = None
        if self.scheme in (Scheme.CHAMELEON, Scheme.CHAMELEON_STAR):
            pp, td = vc.keygen(
                arity + 1, modulus_bits=cvc_modulus_bits, seed=seed
            )
            self._cvc = vc.ChameleonVectorCommitment(arity + 1, _pp=pp, _td=td)
            self.value_bytes = (pp.modulus.bit_length() + 7) // 8
            do = ChameleonDataOwner(
                self._cvc, generate_key(seed=seed), arity=arity
            )
            index_params = {"pp": pp, "arity": arity}
            if self.scheme is Scheme.CHAMELEON_STAR:
                index_params["bloom"] = bloom_capacity
                contract = ChameleonStarContract(
                    value_bytes=self.value_bytes,
                    bloom_capacity=bloom_capacity,
                )
            else:
                contract = ChameleonContract(value_bytes=self.value_bytes)
            index_spec = ("chameleon", index_params)
        else:
            self.value_bytes = 32
            index_spec = ("merkle", {"fanout": fanout})
            if self.scheme is Scheme.MERKLE_INV:
                contract = merkle_inv.MerkleInvContract(fanout=fanout)
            else:
                contract = suppressed.SuppressedMerkleContract(fanout=fanout)
        self.contract = contract
        self.chain.deploy(ADS_CONTRACT, contract)
        self._sp = ShardedStorageProvider(
            index_spec=index_spec,
            scheme_value=self.scheme.value,
            shards=shards,
            engine=engine,
            engine_dir=engine_dir,
            seed=seed,
            pool=pool,
        )
        self._owner = DataOwnerPipeline(
            scheme=self.scheme,
            chain=self.chain,
            sp=self._sp,
            value_bytes=self.value_bytes,
            do=do,
        )
        # Through a weak proxy: a system that held a strong reference to
        # itself would outlive its last user until the cyclic collector
        # ran, and a caller that builds systems in turn would hold several.
        this = weakref.proxy(self)
        self._client = RemoteClient(StorageProviderServer(this).handle, this)

    # -- compatibility surface over the layered internals --------------------------

    @property
    def _do(self) -> ChameleonDataOwner | None:
        return self._owner.do

    @property
    def store(self):
        """The first shard's object store (the whole store at shards=1)."""
        return self._sp.engines[0].store

    @property
    def sp_index(self):
        """The first shard's index mirror (the whole index at shards=1)."""
        return self._sp.engines[0].index

    # -- ingestion ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._object_count

    def all_object_ids(self) -> list[int]:
        """Every stored object ID across shards, ascending."""
        return self._sp.all_object_ids()

    def get_object(self, object_id: int) -> DataObject:
        """Fetch one stored object from its owning shard.

        Under the read lock: a read ships the SP's buffered records, so
        it must not land inside an ingest section.
        """
        with self._rwlock.read():
            return self._sp.get_object(object_id)

    def add_object(self, obj: DataObject) -> InsertReport:
        """Insert one new object: a batch of one."""
        return self.add_objects_batched([obj])

    def add_objects(self, objects) -> list[InsertReport]:
        """Insert many objects, one batch of one each."""
        return [self.add_object(obj) for obj in objects]

    def add_objects_batched(self, objects) -> InsertReport:
        """Run the DO pipeline for a batch of new objects.

        An empty batch, an ID already stored and an ID repeated within
        the batch are refused with :class:`~repro.errors.DatasetError`
        before any transaction is sent.  The Chameleon family confirms
        the batch in one transaction, paying the 21,000-gas ``C_tx``
        once, or confirms nothing; the Merkle family sends each object's
        transactions in turn and keeps the prefix confirmed before a
        failure.  Confirmed objects reach the SP's store, their gas the
        maintenance meter and their receipts one mined block before any
        error propagates, so a failure leaves the system queryable.
        """
        objects = list(objects)
        t0 = time.perf_counter()
        with self._rwlock.write(), obs.span(
            "insert", scheme=self.scheme.value, count=len(objects)
        ) as ins_span:
            self._check_batch(objects)
            metadatas = [ObjectMetadata.of(obj) for obj in objects]
            receipts: list[Receipt] = []
            stored = 0
            try:
                for step, confirmed in self._owner.confirm(metadatas):
                    receipts += step
                    for obj in objects[stored : stored + confirmed]:
                        self._sp.put_object(obj)
                    stored += confirmed
            finally:
                if stored:
                    self._sp.flush_mutations()
                    for receipt in receipts:
                        self._maintenance.merge(receipt.gas)
                    self._object_count += stored
                    self.chain.mine_block()
                gas = sum(r.gas.total for r in receipts)
                ins_span.set(gas=gas)
                obs.inc("insert.count", stored)
                obs.observe("insert.seconds", time.perf_counter() - t0,
                            buckets=obs.TIME_BUCKETS_S)
                obs.observe("insert.gas", gas, buckets=obs.GAS_BUCKETS)
        return InsertReport(object_id=objects[-1].object_id, receipts=receipts)

    def _check_batch(self, objects: list[DataObject]) -> None:
        """Refuse a batch no transaction may be sent for."""
        if not objects:
            raise DatasetError("empty batch")
        seen: set[int] = set()
        for obj in objects:
            # The SP's location map is authoritative across all shards
            # (and the only option in affine mode, where the stores live
            # in the resident workers).
            if self._sp.has_object(obj.object_id):
                raise DatasetError(
                    f"object {obj.object_id} already stored; "
                    "objects are immutable"
                )
            if obj.object_id in seen:
                raise DatasetError(
                    f"object {obj.object_id} appears twice in one batch"
                )
            seen.add(obj.object_id)

    # -- query processing --------------------------------------------------------

    def _sp_view(self, keyword: str):
        with self._rwlock.read():
            return self._sp.view(keyword)

    def process_query(
        self,
        query: KeywordQuery,
        held: Sequence[tuple[int, bytes]] = (),
        nodes: Sequence[tuple[str, int, bytes]] = (),
    ) -> QueryAnswer:
        """SP side: evaluate the query and build ``VO_sp``; ``held`` and
        ``nodes`` are the asking client's lists (protocol v4), empty for
        the cold VO."""
        with self._rwlock.read():
            return self._sp.process_query(query, held, nodes)

    def chain_proof_system(self, keywords: frozenset[str]):
        """Client side: read ``VO_chain`` and build the proof system."""
        if self.scheme in (Scheme.MERKLE_INV, Scheme.SUPPRESSED):
            roots = {
                kw: self.chain.call_view(ADS_CONTRACT, "view_root", kw)
                for kw in keywords
            }
            return MerkleProofSystem(roots=roots, cache=self.verify_cache)
        digests = {
            kw: self.chain.call_view(ADS_CONTRACT, "view_digest", kw)
            for kw in keywords
        }
        blooms = None
        if self.scheme is Scheme.CHAMELEON_STAR:
            # The session's masks: a cleared cache derives them afresh.
            masks = self.verify_cache.bloom_masks(
                DEFAULT_FILTER_BITS, self.bloom_capacity
            )
            blooms = {}
            for kw in keywords:
                snapshot = self.chain.call_view(
                    ADS_CONTRACT, "view_bloom_snapshot", kw
                )
                blooms[kw] = BloomFilterChain.from_snapshot(
                    snapshot, capacity=self.bloom_capacity, masks=masks
                )
        return ChameleonProofSystem(
            pp=self._cvc.pp,
            digests=digests,
            arity=self.arity,
            blooms=blooms,
            value_bytes=self.value_bytes,
            cache=self.verify_cache,
        )

    def reading(self) -> AbstractContextManager[None]:
        """Hold the SP and the chain still: no insertion lands inside.

        The client holds it from sending its request until its chain
        read returns, so the answer and ``VO_chain`` describe one state.
        """
        return self._rwlock.read()

    def query(self, query: KeywordQuery | str) -> QueryResult:
        """Full round trip: the client over the in-process SP server.

        A :class:`KeywordQuery` is sent as its text.  Any failed check
        raises :class:`~repro.errors.VerificationError`.
        """
        return self._client.query(str(query))

    @property
    def uses_cvc(self) -> bool:
        """Whether the scheme authenticates with chameleon commitments.

        Merkle-only schemes (MI/SMI) hash — they make no CVC openings
        and never load the exponentiation kernel.
        """
        return self.scheme in (Scheme.CHAMELEON, Scheme.CHAMELEON_STAR)

    def prewarm_crypto(self) -> int:
        """Nothing to warm: every exponentiation is one stateless libcrypto
        call.  Kept, returning 0, because ``benchmarks/e2e/harness.py``
        calls it."""
        return 0

    def compact(self) -> dict:
        """Checkpoint + truncate every durable shard journal.

        Takes the write lock: compaction swaps journal files underneath
        the engines, which must not race an ingest batch.  Returns the
        aggregate stats from
        :meth:`~repro.core.sp_frontend.ShardedStorageProvider.compact`.
        """
        with self._rwlock.write():
            return self._sp.compact()

    def close(self) -> None:
        """Release the shard engines (and their workers, if affine)."""
        self._sp.close()

    # -- reporting ------------------------------------------------------------------

    def maintenance_meter(self) -> GasMeter:
        """Aggregate gas across every maintenance transaction so far."""
        return self._maintenance.snapshot()

    def average_gas_per_object(self) -> float:
        """Mean maintenance gas per inserted object."""
        if self._object_count == 0:
            return 0.0
        return self._maintenance.total / self._object_count
