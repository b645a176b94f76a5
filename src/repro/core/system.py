"""The hybrid-storage blockchain system facade (Fig. 1).

Wires the four parties together for any of the ADS schemes:

* the **data owner** (:class:`~repro.core.owner.DataOwnerPipeline`)
  streams objects: raw data to the SP, meta-data and ADS updates to the
  blockchain;
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
from repro.core.proofcache import DEFAULT_CACHE_SIZE, VerificationCache
from repro.core.query.parser import KeywordQuery
from repro.core.query.vo import QueryAnswer
from repro.core.scheme import Scheme
from repro.core.sp_frontend import ShardedStorageProvider
from repro.crypto import vc
from repro.crypto.bloom import DEFAULT_CAPACITY, DEFAULT_FILTER_BITS, BloomFilterChain
from repro.crypto.prf import generate_key
from repro.errors import ChainError, DatasetError, ReproError
from repro.ethereum.chain import Blockchain, Receipt
from repro.ethereum.gas import BLOCK_GAS_LIMIT, GasMeter
from repro.parallel import ReadWriteLock
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

    Sharding knobs: ``shards`` splits the SP into that many keyword
    partitions behind deterministic seeded routing; ``engine`` picks the
    per-shard storage engine (``memory`` default, or ``disk`` for an
    append-only JSONL segment log under ``engine_dir``); ``pool`` says
    where the engines live (``stateless``, the default: in this process;
    ``affine``: each shard's engine resident in a long-lived worker
    process that is sent only delta records per batch).  Shard layout and pool mode never change
    answers, VO bytes or gas — only capacity and throughput.

    ``verify_cache_size`` bounds the client's LRU of successfully
    verified proof tuples reused across conjuncts and queries (0
    disables it); verification always runs in the caller.
    """

    #: There is one VO shape; ``benchmarks/e2e`` still reads this, and it
    #: goes when a benchmark-only PR stops doing so.
    vo_version = 3

    def __init__(
        self,
        scheme: Scheme | str = Scheme.SUPPRESSED,
        fanout: int = DEFAULT_FANOUT,
        arity: int = 2,
        bloom_capacity: int = DEFAULT_CAPACITY,
        filter_bits: int = DEFAULT_FILTER_BITS,
        cvc_modulus_bits: int = 1024,
        seed: int | None = 7,
        gas_limit: int = BLOCK_GAS_LIMIT,
        join_order: str = "size",
        join_plan: str = "cyclic",
        track_state: bool = False,
        verify_cache_size: int = DEFAULT_CACHE_SIZE,
        shards: int = 1,
        engine: str = "memory",
        engine_dir: str | Path | None = None,
        pool: str = "stateless",
    ) -> None:
        self.scheme = Scheme.parse(scheme)
        self.fanout = fanout
        self.join_order = join_order
        self.join_plan = join_plan
        self.arity = arity
        self.bloom_capacity = bloom_capacity
        self.filter_bits = filter_bits
        self.cvc_modulus_bits = cvc_modulus_bits
        self.gas_limit = gas_limit
        self.track_state = track_state
        self.verify_cache_size = verify_cache_size
        self.shards = shards
        self.engine = engine
        self.pool = pool
        self.chain = Blockchain(gas_limit=gas_limit, track_state=track_state)
        self._maintenance = GasMeter()
        self._object_count = 0
        self._rwlock = ReadWriteLock()
        if verify_cache_size > 0:
            prefix = (
                "vc.verify"
                if self.scheme in (Scheme.CHAMELEON, Scheme.CHAMELEON_STAR)
                else "merkle.verify"
            )
            self.verify_cache: VerificationCache | None = VerificationCache(
                maxsize=verify_cache_size, metric_prefix=prefix
            )
        else:
            self.verify_cache = None

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
                index_params["bloom"] = (filter_bits, bloom_capacity)
                contract = ChameleonStarContract(
                    value_bytes=self.value_bytes,
                    bloom_capacity=bloom_capacity,
                    filter_bits=filter_bits,
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
            join_order=join_order,
            join_plan=join_plan,
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
        self._object_count = self._sp.object_count()  # disk-engine replay
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

    @store.setter
    def store(self, value) -> None:
        self._sp.engines[0].store = value

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
        """Run the full DO pipeline for one new object.

        The raw object reaches the SP's store only once every receipt
        confirmed, so a failed transaction leaves the store, the DO
        state and the SP index exactly as they were.
        """
        t0 = time.perf_counter()
        with self._rwlock.write(), obs.span(
            "insert", scheme=self.scheme.value, object_id=obj.object_id
        ) as ins_span:
            # The SP's location map is authoritative across all shards
            # (and the only option in affine mode, where the stores live
            # in the resident workers).
            if self._sp.has_object(obj.object_id):
                raise DatasetError(
                    f"object {obj.object_id} already stored; "
                    "objects are immutable"
                )
            metadata = ObjectMetadata.of(obj)
            receipts = self._owner.insert(metadata)
            for receipt in receipts:
                if not receipt.status:
                    raise ChainError(
                        f"insertion transaction failed: {receipt.error}"
                    )
            self._sp.put_object(obj)
            self._sp.flush_mutations()
            for receipt in receipts:
                self._maintenance.merge(receipt.gas)
            self._object_count += 1
            self.chain.mine_block()
            gas = sum(r.gas.total for r in receipts)
            ins_span.set(gas=gas, keywords=len(metadata.keywords))
        obs.inc("insert.count")
        obs.observe("insert.seconds", time.perf_counter() - t0,
                    buckets=obs.TIME_BUCKETS_S)
        obs.observe("insert.gas", gas, buckets=obs.GAS_BUCKETS)
        return InsertReport(object_id=obj.object_id, receipts=receipts)

    def add_objects(self, objects) -> list[InsertReport]:
        """Insert many objects, one transaction pipeline each."""
        return [self.add_object(obj) for obj in objects]

    def add_objects_batched(self, objects) -> InsertReport:
        """Insert many objects with a single DO transaction.

        Amortises the 21,000-gas ``C_tx`` base cost across the batch.
        Supported by the Chameleon family (whose per-object on-chain
        work is a handful of word writes).  MI pays per-object
        transactions but mirrors the confirmed batch into the SP in one
        pass; SMI falls back to per-object pipelines (its update spines
        must interleave with the insertions) and returns a merged
        report.
        """
        objects = list(objects)
        if not objects:
            raise ReproError("empty batch")
        with obs.span(
            "insert.batch", scheme=self.scheme.value, count=len(objects)
        ):
            return self._add_objects_batched(objects)

    def _add_objects_batched(self, objects: list[DataObject]) -> InsertReport:
        if self.scheme is Scheme.SUPPRESSED:
            reports = self.add_objects(objects)
            return InsertReport(
                object_id=objects[-1].object_id,
                receipts=[r for report in reports for r in report.receipts],
            )
        metadatas = [ObjectMetadata.of(obj) for obj in objects]
        with self._rwlock.write():
            for metadata in metadatas:
                if self._sp.has_object(metadata.object_id):
                    raise DatasetError(
                        f"object {metadata.object_id} already stored; "
                        "objects are immutable"
                    )
            if self.scheme is Scheme.MERKLE_INV:
                return self._add_merkle_batched(objects, metadatas)
            # Chameleon family: stage every mutation — the store is
            # untouched and the DO's state snapshotted until the batched
            # transaction's receipt confirms, so a failed receipt leaves
            # the system able to answer queries (and retry the batch)
            # consistently.
            receipt = self._owner.insert_chameleon_batched(metadatas)
            for obj in objects:
                self._sp.put_object(obj)
            self._sp.flush_mutations()
            self._maintenance.merge(receipt.gas)
            self._object_count += len(objects)
            self.chain.mine_block()
            return InsertReport(
                object_id=objects[-1].object_id, receipts=[receipt]
            )

    def _add_merkle_batched(
        self, objects: list[DataObject], metadatas: list[ObjectMetadata]
    ) -> InsertReport:
        """MI batched path: per-object transactions, then the SP mirror."""
        receipts: list[Receipt] = []
        failure: Receipt | None = None
        for metadata in metadatas:
            receipt = self._owner.insert_merkle_tx(metadata)
            if not receipt.status:
                failure = receipt
                break
            receipts.append(receipt)
        confirmed = len(receipts)
        if confirmed:
            for metadata, obj in zip(metadatas[:confirmed], objects):
                self._sp.insert_entries(metadata)
                self._sp.put_object(obj)
            self._sp.flush_mutations()
            for receipt in receipts:
                self._maintenance.merge(receipt.gas)
            self._object_count += confirmed
            self.chain.mine_block()
        if failure is not None:
            raise ChainError(
                f"insertion transaction failed: {failure.error}"
            )
        return InsertReport(
            object_id=objects[-1].object_id, receipts=receipts
        )

    # -- query processing --------------------------------------------------------

    def _sp_view(self, keyword: str):
        with self._rwlock.read():
            return self._sp.view(keyword)

    def process_query(self, query: KeywordQuery) -> QueryAnswer:
        """SP side: evaluate the query and build ``VO_sp``."""
        with self._rwlock.read():
            return self._sp.process_query(query)

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
            # The session's masks: a fresh session derives its own.
            masks = None
            if self.verify_cache is not None:
                masks = self.verify_cache.bloom_masks(self.filter_bits, self.bloom_capacity)
            blooms = {}
            for kw in keywords:
                snapshot = self.chain.call_view(
                    ADS_CONTRACT, "view_bloom_snapshot", kw
                )
                blooms[kw] = BloomFilterChain.from_snapshot(
                    snapshot,
                    filter_bits=self.filter_bits,
                    capacity=self.bloom_capacity,
                    masks=masks,
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
