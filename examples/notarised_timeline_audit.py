"""Timeline audit: authenticated range queries plus offline checkpoints.

Two extensions built on the paper's machinery (DESIGN.md section 5b):

1. a *suppressed primary index* answers "give me every object notarised
   in the ID window [lo, hi]" with completeness proofs — the Section IX
   remark about extending the Suppressed Merkle^inv to other indexes;
2. *signed checkpoints* let an auditor verify those answers offline,
   holding only the data owner's public key.

Run with::

    python examples/notarised_timeline_audit.py
"""

from repro.core.checkpoints import CheckpointIssuer, CheckpointVerifier
from repro.core.objects import DataObject, ObjectMetadata
from repro.core.range_queries import (
    PRIMARY_INDEX_KEY,
    AuthenticatedRangeIndex,
    verify_range,
)
from repro.crypto.signatures import generate_keypair
from repro.errors import VerificationError


def main() -> None:
    index = AuthenticatedRangeIndex(fanout=4)
    issuer = CheckpointIssuer(generate_keypair(seed=99))

    print("Notarising a stream of records (IDs are event timestamps):")
    for object_id in range(100, 160, 3):  # 100, 103, ..., 157
        metadata = ObjectMetadata.of(
            DataObject(object_id, ("audit",), b"record-%d" % object_id)
        )
        receipts = index.insert(metadata)
        assert all(r.status for r in receipts)
    print(f"  {len(index.tree)} records notarised on-chain (root only)")

    # On-chain verification path.
    lo, hi = 120, 140
    entries, vo = index.query(lo, hi)
    verified = index.verify(vo)
    print(f"\nRange [{lo}, {hi}] -> {[e.key for e in verified]}")
    print(f"  VO size: {vo.byte_size():,} bytes; verified against the chain")

    # Offline verification path: the DO signs a checkpoint of the root.
    root = index.chain.call_view("range-index", "view_root", PRIMARY_INDEX_KEY)
    checkpoint = issuer.issue(index.chain.height, {PRIMARY_INDEX_KEY: root})
    auditor = CheckpointVerifier(issuer.public_key)
    auditor.accept(checkpoint)
    offline_root = auditor.digest_for(PRIMARY_INDEX_KEY)
    offline_entries = verify_range(offline_root, vo)
    print(
        f"  offline auditor (checkpoint at height {checkpoint.height}) "
        f"re-verified {len(offline_entries)} entries without chain access"
    )

    # A malicious SP drops a record from the middle of the range: it
    # proves every other entry honestly, so the table still folds to the
    # root, but the gap where the record was shows.
    import dataclasses

    shown = [key for key, _ in vo.table.leaves]
    dropped = shown[:3] + shown[4:]
    forged = dataclasses.replace(vo, table=index.tree.multiproof(dropped))
    try:
        verify_range(offline_root, forged)
        print("  !!! dropped record went undetected")
    except VerificationError as exc:
        print(f"  dropped-record attack rejected: {exc}")


if __name__ == "__main__":
    main()
