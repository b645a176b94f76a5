"""repro — Authenticated Keyword Search in Scalable Hybrid-Storage Blockchains.

A full reproduction of Zhang, Xu, Wang, Xu & Choi (ICDE 2021): four
authenticated-data-structure schemes for gas-efficient keyword search
over a hybrid-storage blockchain, together with the substrates they run
on (an Ethereum-style gas-metered chain simulator, Merkle B-trees,
chameleon vector commitments, Bloom filters) and the paper's full
experimental harness.

Quick start::

    from repro import DataObject, HybridStorageSystem

    system = HybridStorageSystem(scheme="ci*")
    system.add_object(DataObject(1, ("covid-19", "vaccine"), b"report"))
    result = system.query("covid-19 AND vaccine")  # raises unless verified
    print(result.result_ids)
"""

import os as _os

if _os.environ.get("REPRO_SANITIZE") == "1":
    # Must run before any submodule creates a lock, so every
    # threading.Lock/RLock born in repro code is a sanitized one.
    from repro.analysis.sanitize import install as _install_sanitizer

    _install_sanitizer()

from repro.core.objects import DataObject, ObjectMetadata, ObjectStore
from repro.core.persistence import load_system, save_system
from repro.core.query.parser import KeywordQuery
from repro.core.system import (
    HybridStorageSystem,
    InsertReport,
    QueryResult,
    Scheme,
)
from repro.errors import (
    ChainError,
    CryptoError,
    IntegrityError,
    OutOfGasError,
    QueryError,
    ReproError,
    VerificationError,
)

__version__ = "1.0.0"

__all__ = [
    "ChainError",
    "CryptoError",
    "DataObject",
    "HybridStorageSystem",
    "InsertReport",
    "IntegrityError",
    "KeywordQuery",
    "ObjectMetadata",
    "ObjectStore",
    "OutOfGasError",
    "QueryError",
    "QueryResult",
    "ReproError",
    "Scheme",
    "VerificationError",
    "load_system",
    "save_system",
    "__version__",
]
