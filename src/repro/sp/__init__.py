"""Storage-provider layer.

The SP stores the raw objects (:class:`~repro.core.objects.ObjectStore`)
and mirrors the complete ADS of the active scheme.  The scheme-specific
index mirrors live with their schemes; this package re-exports them so
deployment code can depend on a single "SP" namespace:

* :class:`~repro.core.merkle_family.MerkleInvertedSP` — MI/SMI mirror;
* :class:`~repro.core.chameleon_index.ChameleonSP` — CI/CI* mirror.

Sharding (:mod:`repro.sp.engine`) partitions the keyword space across
pluggable :class:`IndexShardEngine` instances behind a deterministic
:class:`ShardRouter`; the front-end that drives them — in its own
process (:class:`InProcessShards`) or through resident affine workers
(:mod:`repro.sp.affine`), with the same calls — is
:class:`repro.core.sp_frontend.ShardedStorageProvider`.
"""

from repro.core.chameleon_index import ChameleonSP, ChameleonView
from repro.core.merkle_family import MBTreeView, MerkleInvertedSP
from repro.core.objects import ObjectStore
from repro.sp.affine import AffineWorkerPool, guarded_dumps
from repro.sp.engine import (
    ENGINE_KINDS,
    POOL_KINDS,
    DiskShardEngine,
    EngineSpec,
    IndexShardEngine,
    InProcessShards,
    ShardRouter,
    make_engine,
)
from repro.sp.protocol import (
    QueryRequest,
    QueryResponse,
    RemoteClient,
    StorageProviderServer,
)

__all__ = [
    "AffineWorkerPool",
    "EngineSpec",
    "POOL_KINDS",
    "guarded_dumps",
    "ChameleonSP",
    "ChameleonView",
    "DiskShardEngine",
    "ENGINE_KINDS",
    "IndexShardEngine",
    "InProcessShards",
    "MBTreeView",
    "MerkleInvertedSP",
    "ObjectStore",
    "ShardRouter",
    "QueryRequest",
    "QueryResponse",
    "RemoteClient",
    "StorageProviderServer",
    "make_engine",
]
