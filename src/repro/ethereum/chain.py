"""A hash-chained blockchain with gas-metered transaction execution.

Implements the substrate of Section II-A at the fidelity the paper's
evaluation needs:

* an append-only chain of blocks, each holding a transaction root and
  the previous block's header hash.  The transaction root is the root
  of an MB-tree (:mod:`repro.core.mbtree`, the chain's one Merkle tree
  type) keyed by each transaction's ordinal in the block, with the
  transaction digest as value;
* per-transaction gas metering against the 8,000,000 block ``gasLimit``,
  with the base ``C_tx`` and per-byte ``C_txdata`` charges of Table I;
* contract deployment and invocation with receipts (gas used, events);
* a proof-of-work-shaped sealing step (a nonce ground against a small
  difficulty target) so header linkage is exercised — consensus itself is
  out of scope per the threat model ("the adversary cannot gain any
  advantage in attacking the consensus protocol").

Clients read confirmed state through free ``view_*`` calls, mirroring how
a light client reads contract state locally.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import obs
from repro.crypto.hashing import EMPTY_DIGEST, digests_equal, sha3
from repro.errors import ChainError, IntegrityError, OutOfGasError
from repro.ethereum.contract import SmartContract
from repro.ethereum.gas import BLOCK_GAS_LIMIT, GasMeter
from repro.ethereum.vm import ExecutionContext, LogEvent

#: Number of leading zero bits required of a sealed header hash.  Kept tiny:
#: the experiments measure gas, not mining time.
POW_DIFFICULTY_BITS = 8


@dataclass
class Transaction:
    """A signed-message abstraction: who calls what with which payload."""

    sender: str
    contract: str
    method: str
    payload: bytes
    nonce: int

    def digest(self) -> bytes:
        """Canonical digest of this value."""
        return sha3(
            b"tx"
            + self.sender.encode()
            + self.contract.encode()
            + self.method.encode()
            + self.nonce.to_bytes(8, "big")
            + self.payload
        )


@dataclass
class Receipt:
    """Execution outcome of one transaction."""

    tx: Transaction
    status: bool
    gas: GasMeter
    events: list[LogEvent]
    error: str | None = None
    result: object = None


@dataclass
class BlockHeader:
    """Chained block header (Fig. 2): parent hash, tx root, state root.

    ``state_root`` commits to every contract's storage after the block's
    transactions, so light clients can verify individual storage words
    (the ``VO_chain`` digests) against headers alone.
    """

    number: int
    parent_hash: bytes
    tx_root: bytes
    timestamp: float
    state_root: bytes = EMPTY_DIGEST
    nonce: int = 0

    def hash(self) -> bytes:
        """The header's digest (chains blocks together)."""
        return sha3(
            b"header"
            + self.number.to_bytes(8, "big")
            + self.parent_hash
            + self.tx_root
            + self.state_root
            + int(self.timestamp * 1000).to_bytes(16, "big")
            + self.nonce.to_bytes(16, "big")
        )


@dataclass
class Block:
    """A sealed block: header plus its receipts.

    ``state`` holds the block's state commitment when the chain tracks
    state (full nodes keep it to serve light-client storage proofs).
    """

    header: BlockHeader
    receipts: list[Receipt] = field(default_factory=list)
    state: object = None

    @property
    def gas_used(self) -> int:
        """Total gas consumed by the block's transactions."""
        return sum(r.gas.total for r in self.receipts)


class Blockchain:
    """The simulated chain: contracts, pending pool, sealed blocks.

    ``track_state=True`` seals a commitment to all contract storage
    into every header (see :mod:`repro.ethereum.state`), enabling
    light-client verification of ``VO_chain`` reads at an O(slots)
    cost per block.
    """

    def __init__(
        self,
        gas_limit: int = BLOCK_GAS_LIMIT,
        seal_proof_of_work: bool = False,
        track_state: bool = False,
    ) -> None:
        self.gas_limit = gas_limit
        self.seal_proof_of_work = seal_proof_of_work
        self.track_state = track_state
        self.contracts: dict[str, SmartContract] = {}
        self.blocks: list[Block] = []
        self.pending: list[Receipt] = []
        self.receipts_by_tx: dict[bytes, Receipt] = {}
        self._nonces: dict[str, int] = {}
        genesis_header = BlockHeader(
            number=0,
            parent_hash=EMPTY_DIGEST,
            tx_root=EMPTY_DIGEST,
            timestamp=0.0,
        )
        self.blocks.append(Block(header=genesis_header))

    # -- contract lifecycle ----------------------------------------------------

    def deploy(self, name: str, contract: SmartContract) -> None:
        """Register a contract under ``name``.

        Deployment gas is out of the paper's scope (it measures per-object
        maintenance), so deployment itself is not metered.
        """
        if name in self.contracts:
            raise ChainError(f"contract {name!r} already deployed")
        self.contracts[name] = contract

    def contract(self, name: str) -> SmartContract:
        """Look up a deployed contract by name."""
        try:
            return self.contracts[name]
        except KeyError as exc:
            raise ChainError(f"no contract named {name!r}") from exc

    # -- transactions ------------------------------------------------------------

    def send_transaction(
        self,
        sender: str,
        contract_name: str,
        method: str,
        *args,
        payload: bytes = b"",
        **kwargs,
    ) -> Receipt:
        """Execute ``contract.method(*args, **kwargs)`` as a transaction.

        Charges ``C_tx`` plus ``C_txdata`` per payload byte before the
        method runs, enforces the block gas limit throughout, and records
        a receipt.  A failed execution (``IntegrityError`` or out-of-gas)
        produces a ``status=False`` receipt with the gas consumed so far,
        and every storage write the method made is *reverted* — EVM
        semantics: a failed transaction burns gas but leaves no state
        behind.  Any other error propagates to the caller with the
        storage writes reverted and the sender's nonce unspent.  Without
        the revert, a batched insertion aborting mid-way (e.g. at the
        block gas limit) would leave partial count updates on chain that
        no honest SP could ever prove against.
        """
        contract = self.contract(contract_name)
        nonce = self._nonces.get(sender, 0)
        self._nonces[sender] = nonce + 1
        tx = Transaction(
            sender=sender,
            contract=contract_name,
            method=method,
            payload=payload,
            nonce=nonce,
        )
        meter = GasMeter(limit=self.gas_limit)
        env = ExecutionContext(meter=meter)
        receipt = Receipt(tx=tx, status=False, gas=meter, events=env.events)
        with obs.span(
            "chain.tx", contract=contract_name, method=method
        ) as tx_span:
            contract.bind(env)
            state_snapshot = contract.storage.snapshot()
            try:
                meter.tx_base()
                meter.txdata(len(payload))
                bound_method = getattr(contract, method, None)
                if bound_method is None or method.startswith("_"):
                    raise ChainError(
                        f"contract {contract_name!r} has no method {method!r}"
                    )
                receipt.result = bound_method(*args, **kwargs)
                receipt.status = True
            except (IntegrityError, OutOfGasError) as exc:
                receipt.error = f"{type(exc).__name__}: {exc}"
                contract.storage.restore(state_snapshot)
            except BaseException:
                # Any other error leaves the call: no receipt, so no
                # storage write and no nonce either.
                contract.storage.restore(state_snapshot)
                self._nonces[sender] = nonce
                raise
            finally:
                contract.bind(None)
            tx_span.set(gas=meter.total, status=receipt.status)
        obs.inc("chain.tx.count")
        obs.inc("chain.tx.payload_bytes", len(payload))
        if not receipt.status:
            obs.inc("chain.tx.failed")
        self.pending.append(receipt)
        self.receipts_by_tx[tx.digest()] = receipt
        return receipt

    def call_view(self, contract_name: str, method: str, *args, **kwargs):
        """Free read-only call: clients reading confirmed contract state.

        View methods run without a meter-bearing transaction; they may
        only ``peek`` at storage (enforced by the storage layer, which
        rejects metered access without a bound meter).
        """
        contract = self.contract(contract_name)
        bound_method = getattr(contract, method, None)
        if bound_method is None or not method.startswith("view_"):
            raise ChainError(
                f"{method!r} is not a view method of {contract_name!r}"
            )
        return bound_method(*args, **kwargs)

    # -- blocks ------------------------------------------------------------------

    def mine_block(self) -> Block:
        """Seal all pending receipts into a new block."""
        # Imported here: repro.core's package init reaches back into
        # this module.
        from repro.core.mbtree import MBTree

        obs.inc("chain.blocks")
        tx_tree = MBTree()
        for ordinal, receipt in enumerate(self.pending):
            tx_tree.insert(ordinal, receipt.tx.digest())
        state = None
        state_root = EMPTY_DIGEST
        if self.track_state:
            from repro.ethereum.state import StateCommitment

            state = StateCommitment.build(self.contracts)
            state_root = state.root
        header = BlockHeader(
            number=len(self.blocks),
            parent_hash=self.blocks[-1].header.hash(),
            tx_root=tx_tree.root_hash,
            timestamp=time.time(),
            state_root=state_root,
        )
        if self.seal_proof_of_work:
            header = self._seal(header)
        block = Block(header=header, receipts=self.pending, state=state)
        self.pending = []
        self.blocks.append(block)
        return block

    def prove_storage(
        self, contract_name: str, key: tuple, block_number: int = -1
    ):
        """Full-node service: a light-client proof for one storage slot."""
        block = self.blocks[block_number]
        if block.state is None:
            raise ChainError(
                "state tracking is disabled; construct the chain with "
                "track_state=True to serve storage proofs"
            )
        return block.state.prove(contract_name, key)

    def _seal(self, header: BlockHeader) -> BlockHeader:
        """Grind the nonce until the header hash meets the difficulty."""
        target_prefix_bits = POW_DIFFICULTY_BITS
        while True:
            digest = header.hash()
            if int.from_bytes(digest[:4], "big") >> (32 - target_prefix_bits) == 0:
                return header
            header.nonce += 1

    def verify_chain(self) -> bool:
        """Check hash linkage of every sealed block."""
        for prev, block in zip(self.blocks, self.blocks[1:]):
            if not digests_equal(block.header.parent_hash, prev.header.hash()):
                return False
        return True

    @property
    def height(self) -> int:
        """Block height (number of sealed blocks after genesis)."""
        return len(self.blocks) - 1

    def total_gas_used(self) -> int:
        """Gas across all sealed blocks and the pending pool."""
        sealed = sum(b.gas_used for b in self.blocks)
        return sealed + sum(r.gas.total for r in self.pending)
