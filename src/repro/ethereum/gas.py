"""The Ethereum gas model of Table I.

Every on-chain operation the paper prices is metered here:

=============  =========  ==========================================
operation      gas        explanation
=============  =========  ==========================================
``C_sload``    200        load a word from storage
``C_sstore``   20,000     save a (fresh) word to storage
``C_supdate``  5,000      update an existing storage word
``C_mem``      3          access a word in memory
``C_hash``     30 + 6x    hash an x-word message
``C_tx``       21,000     execute a transaction
``C_txdata``   68         transact one byte of data
=============  =========  ==========================================

US$ conversion follows the paper's footnote: an average gas price of
15 Gwei and an Ether price of US$229 (June 15, 2020).

The meter tallies every charge by operation; Table III's three
categories — *write* (``sstore``/``supdate``), *read* (``sload``) and
*others* (``txdata``/``hash``/``mem``/``tx``) — are sums over those
operations, so the breakdown table can be reproduced directly from a
run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.errors import OutOfGasError

# --- Table I constants -----------------------------------------------------

GAS_SLOAD = 200
GAS_SSTORE = 20_000
GAS_SUPDATE = 5_000
GAS_MEM = 3
GAS_HASH_BASE = 30
GAS_HASH_PER_WORD = 6
GAS_TX = 21_000
GAS_TXDATA_PER_BYTE = 68

#: Default block gas limit (Section VII-A experiment setting).
BLOCK_GAS_LIMIT = 8_000_000

#: Paper's pricing assumptions (footnote 2).
GAS_PRICE_GWEI = 15
ETH_PRICE_USD = 229.0
WEI_PER_GWEI = 10**9
WEI_PER_ETH = 10**18


def gas_to_usd(gas: int | float) -> float:
    """Convert a gas amount to US$ using the paper's price assumptions."""
    wei = gas * GAS_PRICE_GWEI * WEI_PER_GWEI
    return wei / WEI_PER_ETH * ETH_PRICE_USD


def hash_gas(input_words: int) -> int:
    """Gas to hash an ``input_words``-word message: ``30 + 6x``."""
    if input_words < 0:
        raise ValueError("input_words must be non-negative")
    return GAS_HASH_BASE + GAS_HASH_PER_WORD * input_words


#: Table III's columns, by operation: ``sstore`` and ``supdate`` are
#: *write*, ``sload`` is *read*, and every other operation is *others*
#: (the paper's tables say "others", so the live counter does too).
_OBS_CATEGORY = {"sstore": "gas.write", "supdate": "gas.write", "sload": "gas.read"}


@dataclass
class GasMeter:
    """Accumulates gas charges with a per-operation breakdown.

    A meter is attached to each transaction execution; the chain enforces
    the block ``gasLimit`` by raising :class:`OutOfGasError` when a charge
    would exceed ``limit``.  Table III's categories are sums of
    operations (:attr:`write_gas`, :attr:`read_gas`, :attr:`other_gas`).
    """

    limit: int | None = None
    total: int = 0
    by_operation: dict[str, int] = field(default_factory=dict)

    def charge(self, amount: int, operation: str) -> None:
        """Record ``amount`` gas; raises OutOfGasError past the limit."""
        if amount < 0:
            raise ValueError("gas amounts are non-negative")
        if self.limit is not None and self.total + amount > self.limit:
            raise OutOfGasError(
                f"charge of {amount} gas for {operation} exceeds limit "
                f"{self.limit} (already used {self.total})"
            )
        self.total += amount
        self.by_operation[operation] = self.by_operation.get(operation, 0) + amount
        obs.record_gas(
            amount, _OBS_CATEGORY.get(operation, "gas.others"), operation
        )

    # -- convenience wrappers, one per Table I row ---------------------------

    def sload(self, words: int = 1) -> None:
        """Charge ``C_sload`` per word."""
        self.charge(GAS_SLOAD * words, "sload")

    def sstore(self, words: int = 1) -> None:
        """Charge ``C_sstore`` per word."""
        self.charge(GAS_SSTORE * words, "sstore")

    def supdate(self, words: int = 1) -> None:
        """Charge ``C_supdate`` per word."""
        self.charge(GAS_SUPDATE * words, "supdate")

    def mem(self, words: int = 1) -> None:
        """Charge ``C_mem`` per word."""
        self.charge(GAS_MEM * words, "mem")

    def hash(self, input_words: int) -> None:
        """Charge hashing an ``input_words``-word message (``C_hash``)."""
        self.charge(hash_gas(input_words), "hash")

    def tx_base(self) -> None:
        """Charge the transaction base cost ``C_tx``."""
        self.charge(GAS_TX, "tx")

    def txdata(self, num_bytes: int) -> None:
        """Charge ``C_txdata`` per byte."""
        self.charge(GAS_TXDATA_PER_BYTE * num_bytes, "txdata")

    # -- reporting ------------------------------------------------------------

    @property
    def write_gas(self) -> int:
        """Gas spent on storage writes (sstore/supdate)."""
        operations = self.by_operation
        return operations.get("sstore", 0) + operations.get("supdate", 0)

    @property
    def read_gas(self) -> int:
        """Gas spent on storage reads (sload)."""
        return self.by_operation.get("sload", 0)

    @property
    def other_gas(self) -> int:
        """Gas spent on txdata/hash/memory/transaction base."""
        return sum(self.by_operation.values()) - self.write_gas - self.read_gas

    def usd(self) -> float:
        """Total cost in US$."""
        return gas_to_usd(self.total)

    def merge(self, other: "GasMeter") -> None:
        """Fold another meter's charges into this one (for aggregation)."""
        self.total += other.total
        for op, amount in other.by_operation.items():
            self.by_operation[op] = self.by_operation.get(op, 0) + amount

    def snapshot(self) -> "GasMeter":
        """An independent copy of the current tallies (limit dropped)."""
        copy = GasMeter()
        copy.merge(self)
        return copy
