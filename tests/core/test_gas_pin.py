"""Exact gas of the suppressed MB-tree contract, the spine bytes the SP
sends, and the Chameleon data owner's insertions, pinned.

The contract meters every hash it computes, and gas is a sum per hash,
so any change to the update fold that keeps each hashed payload keeps
these totals to the unit.  The SMI numbers were recorded before the SMI
append update (Algorithms 1/2) and a general update were folded into
one path, and held when that general update was removed; a change that
moves them changes what the contract charges or what the SP's update
transaction carries.  The Chameleon totals were
recorded before the one-object and batched transactions were built by
one routine.
"""

import random

import pytest

from repro.baselines.gem2 import Gem2Contract
from repro.core.mbtree import MBTree
from repro.core.merkle_inv import MerkleInvContract
from repro.core.objects import DataObject, ObjectMetadata
from repro.core.suppressed import (
    SuppressedMerkleContract,
    build_updates,
    updates_payload,
)
from repro.core.system import HybridStorageSystem
from repro.crypto.hashing import sha3
from repro.ethereum.chain import Blockchain

#: Total gas of appends 1..150 through the SMI contract, per fanout.
SMI_GAS = {3: 16_067_456, 4: 15_699_720, 5: 16_979_623}

#: sha3 over the serialised spines of appends 1..150, per fanout.
SPINE_BYTES = {
    3: "c0760873e3574298f507471590571f48c2aededdd6c2ff4a8d729a61070ccec4",
    4: "7b076ae219cf09738d9190ab6a1077a5dedbe3fa91baf8d259304d11134a5d4e",
    5: "9d6d4c35db858fbb2c8ff7d7505b6fa6c5b6d9d5956e1ec3a687c7756323906b",
}


def metadata_for(oid, keywords):
    return ObjectMetadata.of(DataObject(oid, keywords, b"c%d" % oid))


@pytest.mark.parametrize("fanout", sorted(SMI_GAS))
def test_smi_append_gas(fanout):
    chain = Blockchain()
    chain.deploy("smi", SuppressedMerkleContract(fanout=fanout))
    trees: dict[str, MBTree] = {}
    for oid in range(1, 151):
        keywords = ("a", "b") if oid % 3 else ("a",)
        md = metadata_for(oid, keywords)
        chain.send_transaction(
            "do", "smi", "register_object",
            md.object_id, md.object_hash, md.keywords,
            payload=md.payload_bytes(),
        )
        updates = build_updates(trees, oid, md.keywords)
        receipt = chain.send_transaction(
            "sp", "smi", "insert", oid, md.object_hash, updates,
            payload=updates_payload(updates),
        )
        assert receipt.status, receipt.error
        for keyword in keywords:
            trees.setdefault(keyword, MBTree(fanout)).insert(oid, md.object_hash)
    for keyword, tree in trees.items():
        assert chain.call_view("smi", "view_root", keyword) == tree.root_hash
    assert chain.total_gas_used() == SMI_GAS[fanout]


@pytest.mark.parametrize("fanout", sorted(SPINE_BYTES))
def test_spine_bytes(fanout):
    tree = MBTree(fanout)
    spines = []
    for key in range(1, 151):
        spines.append(tree.update_spine(key).serialise())
        tree.insert(key, sha3(b"v%d" % key))
    assert sha3(b"".join(spines)).hex() == SPINE_BYTES[fanout]


#: Total maintenance gas of ``chameleon_objects()`` per Chameleon scheme,
#: through one transaction per object and through batches of four.
CHAMELEON_GAS = {
    "ci": {"single": 1_032_880, "batched": 843_880},
    "ci*": {"single": 1_426_254, "batched": 1_237_254},
}


def chameleon_objects():
    return [
        DataObject(
            oid,
            tuple(kw for i, kw in enumerate(("a", "b", "c", "d")) if oid % (i + 2)),
            b"c%d" % oid,
        )
        for oid in range(1, 13)
    ]


@pytest.mark.parametrize("scheme", sorted(CHAMELEON_GAS))
def test_chameleon_insert_gas(scheme):
    objects = chameleon_objects()
    single = HybridStorageSystem(scheme=scheme, cvc_modulus_bits=512, seed=4)
    for obj in objects:
        single.add_object(obj)
    batched = HybridStorageSystem(scheme=scheme, cvc_modulus_bits=512, seed=4)
    for start in range(0, len(objects), 4):
        batched.add_objects_batched(objects[start : start + 4])
    assert {
        "single": single.maintenance_meter().total,
        "batched": batched.maintenance_meter().total,
    } == CHAMELEON_GAS[scheme]


#: Total maintenance gas of ``maintenance_objects()`` through the
#: baseline Merkle^inv contract and the GEM^2 contract, per insertion
#: order.  Both runs split the root, and GEM^2 merges every keyword's
#: buffer several times.
MI_GAS = {"ascending": 23_930_088, "shuffled": 23_978_638}
GEM2_GAS = {"ascending": 23_112_120, "shuffled": 23_718_624}

#: Per gas limit in ``FAILING_LIMITS``, the first receipt that runs out
#: of gas: its object's ID and the gas it burned.  Where a limit cuts a
#: transaction depends on the order the contract charges in, so these
#: pin that order too.  The rest of each run is not pinned.
FAILING_LIMITS = range(150_000, 800_001, 50_000)
FAILED_GAS = {
    "mi": [(6, 145_713), (10, 181_831), (28, 244_145), (42, 286_861), (84, 321_751)],
    "gem2": [
        (30, 144_126), (32, 197_993), (32, 217_993), (32, 262_993),
        (32, 348_393), (32, 368_393), (32, 433_593), (32, 473_593),
        (32, 538_793), (32, 578_793), (32, 623_793), (32, 668_793),
        (32, 734_393), (32, 799_467),
    ],
}


def maintenance_objects(order):
    ids = list(range(1, 151))
    if order == "shuffled":
        random.Random(37).shuffle(ids)
    return [
        metadata_for(
            oid, tuple(kw for i, kw in enumerate("abcde") if oid % (i + 2) == 0)
            or ("z",)
        )
        for oid in ids
    ]


def maintenance_chain(contract, gas_limit=None):
    chain = Blockchain() if gas_limit is None else Blockchain(gas_limit=gas_limit)
    chain.deploy("ads", contract)
    return chain


def register_and_insert(chain, md):
    return chain.send_transaction(
        "do", "ads", "register_and_insert",
        md.object_id, md.object_hash, md.keywords,
        payload=md.payload_bytes(),
    )


@pytest.mark.parametrize("order", sorted(MI_GAS))
def test_mi_insert_gas(order):
    chain = maintenance_chain(MerkleInvContract(fanout=4))
    trees: dict[str, MBTree] = {}
    for md in maintenance_objects(order):
        receipt = register_and_insert(chain, md)
        assert receipt.status, receipt.error
        for keyword in md.keywords:
            trees.setdefault(keyword, MBTree(4)).insert(md.object_id, md.object_hash)
    for keyword, tree in trees.items():
        assert tree.height >= 3
        assert chain.call_view("ads", "view_root", keyword) == tree.root_hash
    assert chain.total_gas_used() == MI_GAS[order]


@pytest.mark.parametrize("order", sorted(GEM2_GAS))
def test_gem2_insert_gas(order):
    chain = maintenance_chain(Gem2Contract(fanout=4, merge_threshold=16))
    merges = 0
    for md in maintenance_objects(order):
        receipt = register_and_insert(chain, md)
        assert receipt.status, receipt.error
        merges += sum(event.name == "Merged" for event in receipt.events)
    assert merges == 13
    assert chain.total_gas_used() == GEM2_GAS[order]


@pytest.mark.parametrize("scheme", sorted(FAILED_GAS))
def test_first_failed_receipt_gas(scheme):
    failed = []
    for limit in FAILING_LIMITS:
        contract = (
            MerkleInvContract(fanout=4) if scheme == "mi"
            else Gem2Contract(fanout=4, merge_threshold=16)
        )
        chain = maintenance_chain(contract, gas_limit=limit)
        for md in maintenance_objects("ascending"):
            receipt = register_and_insert(chain, md)
            if not receipt.status:
                assert receipt.error.startswith("OutOfGasError")
                failed.append((md.object_id, receipt.gas.total))
                break
    assert failed == FAILED_GAS[scheme]
