"""Ethereum substrate: the gas model of Table I, metered contract
storage, a metered execution environment and a hash-chained blockchain
with receipts and events.
"""

from repro.ethereum.chain import Block, BlockHeader, Blockchain, Receipt, Transaction
from repro.ethereum.contract import SmartContract
from repro.ethereum.gas import (
    BLOCK_GAS_LIMIT,
    GAS_HASH_BASE,
    GAS_HASH_PER_WORD,
    GAS_MEM,
    GAS_SLOAD,
    GAS_SSTORE,
    GAS_SUPDATE,
    GAS_TX,
    GAS_TXDATA_PER_BYTE,
    GasMeter,
    gas_to_usd,
    hash_gas,
)
from repro.ethereum.state import (
    LightClient,
    StateCommitment,
    StorageProof,
    verify_storage_proof,
)
from repro.ethereum.storage import ContractStorage, to_word, word_to_int
from repro.ethereum.vm import ExecutionContext, LogEvent

__all__ = [
    "BLOCK_GAS_LIMIT",
    "Block",
    "BlockHeader",
    "Blockchain",
    "ContractStorage",
    "ExecutionContext",
    "GAS_HASH_BASE",
    "GAS_HASH_PER_WORD",
    "GAS_MEM",
    "GAS_SLOAD",
    "GAS_SSTORE",
    "GAS_SUPDATE",
    "GAS_TX",
    "GAS_TXDATA_PER_BYTE",
    "GasMeter",
    "LightClient",
    "LogEvent",
    "Receipt",
    "SmartContract",
    "StateCommitment",
    "StorageProof",
    "Transaction",
    "gas_to_usd",
    "hash_gas",
    "to_word",
    "verify_storage_proof",
    "word_to_int",
]
