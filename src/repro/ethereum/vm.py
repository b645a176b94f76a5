"""Metered execution context for smart-contract code.

Contract methods in this simulator are ordinary Python, but every
cost-bearing step of the paper's model is routed through an
:class:`ExecutionContext` so the gas trace matches what the Solidity
implementation would pay:

* in-memory word touches -> ``C_mem``;
* hashing an x-word message -> ``C_hash = 30 + 6x``;
* storage accesses are metered by :class:`ContractStorage` directly.

The context also performs the *actual* computation (SHA3 digests), so a
contract cannot diverge from what it was charged for.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro import obs
from repro.crypto.hashing import word_count
from repro.ethereum.gas import GasMeter


@dataclass
class LogEvent:
    """An EVM-style event emitted during a transaction."""

    name: str
    fields: dict

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        rendered = ", ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"{self.name}({rendered})"


@dataclass
class ExecutionContext:
    """The per-transaction environment handed to contract code."""

    meter: GasMeter
    events: list[LogEvent] = field(default_factory=list)

    def touch_memory(self, words: int = 1) -> None:
        """Charge ``C_mem`` for each in-memory word access."""
        self.meter.mem(words)

    def read_calldata(self, data: bytes) -> bytes:
        """Charge memory-access gas for consuming ``data`` from calldata.

        The ``C_txdata`` transmission cost is charged once at transaction
        entry by the chain; this models the contract *reading* the bytes
        into memory word by word.
        """
        self.touch_memory(word_count(data))
        return data

    def keccak(self, data: bytes) -> bytes:
        """Hash ``data``, charging ``C_hash`` for its word count."""
        self.meter.hash(word_count(data))
        obs.inc("vm.hashes")
        return hashlib.sha3_256(data).digest()

    def emit(self, name: str, **fields) -> None:
        """Emit an event into the transaction log.

        Events live in the receipt, not in storage, so per the paper's
        model they carry no storage cost; the payload was already paid
        for as calldata/memory.
        """
        obs.inc("vm.events")
        self.events.append(LogEvent(name=name, fields=fields))
