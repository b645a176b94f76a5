"""Data-owner pipeline: the scheme's maintenance transactions for a batch.

The DO side of Fig. 1.  :meth:`DataOwnerPipeline.confirm` is the one
way in: it takes a batch of object meta-data, sends the scheme's
on-chain transactions, rolls back its own off-chain state when a
receipt fails, and — only after confirmation — queues the resulting
mirror updates (tree postings, root commitments, insertion proofs,
Bloom additions) into the storage provider it was wired to.  A single
object is a batch of one.

The failure rule follows the scheme family:

* **Chameleon family** — the whole batch is one ``insert_objects``
  transaction, so it is all or nothing: a failed receipt rolls the DO
  back and confirms no object;
* **Merkle family** — each object's transactions go in order (MI:
  ``register_and_insert``; SMI: ``register_object``, then the SP's
  ``UpdVO`` spines, then ``insert``), and the first failed receipt or
  raised error stops the batch: the confirmed prefix stays mirrored.

The pipeline never touches the raw object payloads: homing those on the
SP (and the surrounding gas accounting, mining cadence and telemetry)
stays with the :class:`~repro.core.system.HybridStorageSystem` facade.

For the Chameleon family every opening is computed here, not in the
shard engines: it needs the trapdoor and the per-node aux state, neither
of which ever leaves the data owner, so shards always receive finished
proofs.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.core import suppressed
from repro.core.chameleon_index import ChameleonDataOwner
from repro.core.objects import ObjectMetadata
from repro.core.scheme import Scheme
from repro.errors import ChainError
from repro.ethereum.chain import Blockchain, Receipt

#: Contract registration name on the simulated chain.
ADS_CONTRACT = "ads"


class DataOwnerPipeline:
    """Builds and confirms maintenance transactions for one scheme.

    ``sp`` is the storage provider the confirmed mirror updates go to
    (a :class:`~repro.core.sp_frontend.ShardedStorageProvider`); ``do``
    is the Chameleon data-owner state, ``None`` for the Merkle family.
    """

    def __init__(
        self,
        *,
        scheme: Scheme,
        chain: Blockchain,
        sp,
        value_bytes: int,
        do: ChameleonDataOwner | None = None,
    ) -> None:
        self.scheme = scheme
        self.chain = chain
        self.sp = sp
        self.value_bytes = value_bytes
        self.do = do

    def confirm(
        self, metadatas: list[ObjectMetadata]
    ) -> Iterator[tuple[list[Receipt], int]]:
        """Send the batch's transactions in order.

        Yields, per confirmed step, its receipts and how many objects
        they confirmed (the leading objects of ``metadatas`` not yet
        counted), with their mirror updates already queued on the SP.
        Raises :class:`~repro.errors.ChainError` at the first failed
        receipt; the steps yielded before it stay confirmed.
        """
        if self.do is not None:
            yield self._send_chameleon(metadatas), len(metadatas)
        else:
            for metadata in metadatas:
                yield self._send_merkle(metadata), 1

    def _send(self, sender: str, method: str, *args, payload: bytes) -> Receipt:
        """One transaction to the ADS contract; a failed receipt raises."""
        receipt = self.chain.send_transaction(
            sender, ADS_CONTRACT, method, *args, payload=payload
        )
        if not receipt.status:
            raise ChainError(f"insertion transaction failed: {receipt.error}")
        return receipt

    def _send_merkle(self, metadata: ObjectMetadata) -> list[Receipt]:
        """One object's MI or SMI transactions, then its SP postings.

        SMI reads the spines before it registers the object: the SP
        refuses an ID below a keyword's last key there, and so nothing
        reaches the chain for an object that cannot be inserted.
        """
        updates = None
        register = "register_and_insert"
        if self.scheme is Scheme.SUPPRESSED:
            register = "register_object"
            # The spines read the SP, which ships the postings queued for
            # the objects confirmed before this one.
            updates = suppressed.keyword_updates(
                metadata.keywords,
                self.sp.spines(metadata.object_id, metadata.keywords),
            )
        receipts = [
            self._send(
                "do",
                register,
                metadata.object_id,
                metadata.object_hash,
                metadata.keywords,
                payload=metadata.payload_bytes(),
            )
        ]
        if updates is not None:
            receipts.append(
                self._send(
                    "sp",
                    "insert",
                    metadata.object_id,
                    metadata.object_hash,
                    updates,
                    payload=suppressed.updates_payload(updates),
                )
            )
        self.sp.insert_entries(metadata)
        return receipts

    def _send_chameleon(self, metadatas: list[ObjectMetadata]) -> list[Receipt]:
        """Build, send and confirm one ``insert_objects`` transaction.

        The DO's off-chain state mutates while the transaction is built,
        so it is rolled back when the receipt fails or anything raises —
        otherwise the DO and the chain diverge — and mirrored into the
        SP once it confirms.
        """
        undo: list = []
        items = []
        payload = b""
        sp_work = []
        try:
            for metadata, (proofs, counts, new_keywords) in zip(
                metadatas, self.do.insert_many(metadatas, undo)
            ):
                new_kw_list = sorted(new_keywords.items())
                items.append((metadata.object_id, metadata.object_hash, counts, new_kw_list))
                payload += metadata.payload_bytes()
                payload += b"".join(
                    kw.encode() + c.to_bytes(self.value_bytes, "big")
                    for kw, c in new_kw_list
                )
                payload += b"".join(
                    u.keyword.encode() + u.count.to_bytes(8, "big")
                    for u in counts
                )
                sp_work.append((proofs, new_kw_list))
            receipt = self._send("do", "insert_objects", items, payload=payload)
        except BaseException:
            self.do.rollback(undo)
            raise
        for proofs, new_kw_list in sp_work:
            self._mirror_chameleon(proofs, new_kw_list)
        return [receipt]

    def _mirror_chameleon(self, proofs: dict, new_kw_list: list) -> None:
        """Queue one confirmed object's updates for the SP."""
        for keyword, commitment in new_kw_list:
            self.sp.register_keyword(keyword, commitment)
        for keyword, proof in proofs.items():
            self.sp.apply_insertion(keyword, proof)
