"""Data-owner pipeline: scheme-specific maintenance transactions.

The DO side of Fig. 1, extracted from the old ``core/system.py``
monolith: for each new object it builds the scheme's on-chain
transaction(s), rolls back its own off-chain state when a receipt
fails, and — only after confirmation — streams the resulting
mirror updates (tree postings, root commitments, insertion proofs,
Bloom additions) into the storage provider it was wired to.

The pipeline never touches the raw object payloads: homing those on the
SP (and the surrounding gas accounting, mining cadence and telemetry)
stays with the :class:`~repro.core.system.HybridStorageSystem` facade.

For the Chameleon family every opening is computed here, not in the
shard engines: it needs the trapdoor and the per-node aux state, neither
of which ever leaves the data owner, so shards always receive finished
proofs.
"""

from __future__ import annotations

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

    # -- single-object pipeline --------------------------------------------------

    def insert(self, metadata: ObjectMetadata) -> list[Receipt]:
        """Run the scheme's transaction pipeline for one object.

        Confirmed insertions are mirrored into the SP before returning;
        a failed receipt leaves the DO and the SP untouched (the caller
        inspects receipt statuses and raises).
        """
        if self.scheme is Scheme.MERKLE_INV:
            receipt = self.insert_merkle_tx(metadata)
            if receipt.status:
                self.sp.insert_entries(metadata)
            return [receipt]

        if self.scheme is Scheme.SUPPRESSED:
            register = self.chain.send_transaction(
                "do",
                ADS_CONTRACT,
                "register_object",
                metadata.object_id,
                metadata.object_hash,
                metadata.keywords,
                payload=metadata.payload_bytes(),
            )
            updates = suppressed.build_updates(
                self.sp.trees, metadata.object_id, metadata.keywords
            )
            update_tx = self.chain.send_transaction(
                "sp",
                ADS_CONTRACT,
                "insert",
                metadata.object_id,
                metadata.object_hash,
                updates,
                payload=suppressed.updates_payload(updates),
            )
            if update_tx.status:
                self.sp.insert_entries(metadata)
            return [register, update_tx]

        # Chameleon family.  The DO's off-chain state mutates while
        # building the transaction, so record how to undo it and roll
        # back when the receipt fails — otherwise the DO and the chain
        # diverge.
        undo: list = []
        try:
            ((proofs, counts, new_keywords),) = self.do.insert_many(
                [metadata], undo
            )
            new_kw_list = sorted(new_keywords.items())
            payload = metadata.payload_bytes()
            payload += b"".join(
                kw.encode() + c.to_bytes(self.value_bytes, "big")
                for kw, c in new_kw_list
            )
            payload += b"".join(
                u.keyword.encode() + u.count.to_bytes(8, "big") for u in counts
            )
            receipt = self.chain.send_transaction(
                "do",
                ADS_CONTRACT,
                "insert_object",
                metadata.object_id,
                metadata.object_hash,
                counts,
                new_kw_list,
                payload=payload,
            )
        except BaseException:
            self.do.rollback(undo)
            raise
        if not receipt.status:
            self.do.rollback(undo)
        else:
            self._mirror_chameleon(metadata, proofs, new_kw_list)
        return [receipt]

    def insert_merkle_tx(self, metadata: ObjectMetadata) -> Receipt:
        """Send the MI register-and-insert transaction, nothing else.

        The bulk-ingest path confirms a whole batch of these before
        mirroring the SP trees in one scatter pass.
        """
        return self.chain.send_transaction(
            "do",
            ADS_CONTRACT,
            "register_and_insert",
            metadata.object_id,
            metadata.object_hash,
            metadata.keywords,
            payload=metadata.payload_bytes(),
        )

    # -- batched pipeline --------------------------------------------------------

    def insert_chameleon_batched(
        self, metadatas: list[ObjectMetadata]
    ) -> Receipt:
        """One batched DO transaction for the whole object list.

        Stages every off-chain mutation, sends a single ``insert_objects``
        transaction, and rolls the DO back completely when it fails.
        """
        undo: list = []
        batch = []
        payload = b""
        sp_work = []
        try:
            for metadata, (proofs, counts, new_keywords) in zip(
                metadatas, self.do.insert_many(metadatas, undo)
            ):
                new_kw_list = sorted(new_keywords.items())
                batch.append(
                    (
                        metadata.object_id,
                        metadata.object_hash,
                        counts,
                        new_kw_list,
                    )
                )
                payload += metadata.payload_bytes()
                payload += b"".join(
                    kw.encode() + c.to_bytes(self.value_bytes, "big")
                    for kw, c in new_kw_list
                )
                payload += b"".join(
                    u.keyword.encode() + u.count.to_bytes(8, "big")
                    for u in counts
                )
                sp_work.append((metadata, proofs, new_kw_list))
            receipt = self.chain.send_transaction(
                "do", ADS_CONTRACT, "insert_objects", batch, payload=payload
            )
        except BaseException:
            self.do.rollback(undo)
            raise
        if not receipt.status:
            self.do.rollback(undo)
            raise ChainError(f"batched insertion failed: {receipt.error}")
        for metadata, proofs, new_kw_list in sp_work:
            self._mirror_chameleon(metadata, proofs, new_kw_list)
        # Affine SPs buffer mirror deltas; ship the whole batch before
        # the receipt is reported confirmed upstream.
        flush = getattr(self.sp, "flush_mutations", None)
        if flush is not None:
            flush()
        return receipt

    def _mirror_chameleon(
        self, metadata: ObjectMetadata, proofs: dict, new_kw_list: list
    ) -> None:
        """Stream one confirmed object's updates into the SP."""
        for keyword, commitment in new_kw_list:
            self.sp.register_keyword(keyword, commitment)
        for keyword, proof in proofs.items():
            self.sp.apply_insertion(keyword, proof)
        if self.scheme is Scheme.CHAMELEON_STAR:
            for keyword in metadata.keywords:
                self.sp.bloom_add(keyword, metadata.object_id)
