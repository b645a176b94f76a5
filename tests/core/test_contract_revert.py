"""A failed call leaves nothing behind in the Merkle^inv and GEM^2
contracts.

Both keep trees (and GEM^2 its buffers) as Python objects beside their
storage, which the chain's storage revert cannot reach, so each
contract restores what it touched before the error leaves.  Without
that, a transaction that runs out of gas half-way through a keyword
list leaves its entries in the trees while their stored roots revert:
the next insertion publishes a root the SP cannot match, and retrying
the object hits a duplicate key.
"""

import pytest

from repro import DataObject, HybridStorageSystem
from repro.baselines.gem2 import Gem2Contract
from repro.core.merkle_inv import MerkleInvContract
from repro.core.objects import ObjectMetadata
from repro.ethereum.chain import Blockchain

WIDE = tuple(f"k{i}" for i in range(8)) + ("a",)


def register_and_insert(chain, obj):
    md = ObjectMetadata.of(obj)
    return chain.send_transaction(
        "do", "ads", "register_and_insert",
        md.object_id, md.object_hash, md.keywords,
        payload=md.payload_bytes(),
    )


def state_of(contract):
    if isinstance(contract, MerkleInvContract):
        return {kw: tree.to_blob() for kw, tree in contract._trees.items()}
    return (
        {kw: list(buffer) for kw, buffer in contract._buffers.items()},
        {kw: tree.to_blob() for kw, tree in contract._materialised.items()},
    )


class TestMerkleInvSystem:
    """The failure as a data owner meets it (seed 7, tight gas limit)."""

    @pytest.fixture()
    def system(self):
        system = HybridStorageSystem(scheme="mi", seed=7, gas_limit=546_878)
        for oid in range(1, 30):
            system.add_object(DataObject(oid, ("a", "b"), b"o%d" % oid))
        with pytest.raises(Exception, match="OutOfGasError"):
            system.add_object(DataObject(50, WIDE, b"o50"))
        return system

    def test_the_next_insertion_still_verifies(self, system):
        system.add_object(DataObject(61, ("k0",), b"o61"))
        assert system.query("k0").result_ids == [61]
        assert system.query("a AND b").result_ids == list(range(1, 30))

    def test_the_failed_object_can_be_retried(self, system):
        system.chain.gas_limit = 10**8
        system.add_object(DataObject(50, WIDE, b"o50"))
        assert system.query("k0 AND a").result_ids == [50]


@pytest.mark.parametrize(
    "make",
    [
        lambda: MerkleInvContract(fanout=4),
        lambda: Gem2Contract(fanout=4, merge_threshold=4),
    ],
    ids=["mi", "gem2"],
)
def test_a_failed_call_restores_every_tree_it_touched(make):
    """Fail each object in turn at every limit that cuts its call, then
    retry it: the contract ends where a run that never failed ends."""
    objects = [
        DataObject(oid, WIDE[: 1 + oid % len(WIDE)], b"o%d" % oid)
        for oid in range(1, 25)
    ]
    clean = Blockchain()
    clean.deploy("ads", make())
    failing = Blockchain()
    failing.deploy("ads", make())
    failures = 0
    for obj in objects:
        gas = register_and_insert(clean, obj).gas.total
        before = state_of(failing.contract("ads"))
        for limit in (gas // 3, gas // 2, gas - 1):
            failing.gas_limit = limit
            receipt = register_and_insert(failing, obj)
            assert not receipt.status and "OutOfGasError" in receipt.error
            assert state_of(failing.contract("ads")) == before
            failures += 1
        failing.gas_limit = clean.gas_limit
        assert register_and_insert(failing, obj).gas.total == gas
        assert state_of(failing.contract("ads")) == state_of(clean.contract("ads"))
    for keyword in WIDE:
        assert failing.call_view("ads", "view_root", keyword) == clean.call_view(
            "ads", "view_root", keyword
        )
    assert failures == 3 * len(objects)
