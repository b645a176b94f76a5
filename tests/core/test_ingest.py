"""The one ingest path: ``add_object`` is a batch of one.

Every insertion goes through ``add_objects_batched``: the batch is
checked before its first transaction, and a failure leaves the confirmed
prefix (Merkle family) or nothing (Chameleon family) stored, mined and
queryable.  A system refuses a disk engine directory that already holds
shard state, since its chain and DO would start empty beside it.
"""

from __future__ import annotations

import pytest

from repro import DataObject, HybridStorageSystem
from repro.core.owner import ADS_CONTRACT
from repro.core.persistence import load_system, save_system
from repro.errors import ChainError, DatasetError, IntegrityError, ReproError
from repro.sp.protocol import QueryRequest, StorageProviderServer

SCHEMES = ("mi", "smi", "ci", "ci*")

KEYWORDS = ("alpha", "beta", "gamma", "delta")

QUERIES = ("alpha", "alpha AND beta", "gamma AND delta", "beta OR delta")


def make_docs(count: int, start: int = 1) -> list[DataObject]:
    return [
        DataObject(
            oid,
            tuple(kw for i, kw in enumerate(KEYWORDS) if (oid >> i) & 1)
            or ("alpha",),
            b"payload-%d" % oid,
        )
        for oid in range(start, start + count)
    ]


def make_system(scheme: str, **kwargs) -> HybridStorageSystem:
    return HybridStorageSystem(
        scheme=scheme, cvc_modulus_bits=512, seed=4, **kwargs
    )


def chain_state(system: HybridStorageSystem) -> dict:
    """Each keyword's on-chain root (Merkle) or ``<c_0, cnt>`` (Chameleon)."""
    view = "view_digest" if system.uses_cvc else "view_root"
    return {
        kw: system.chain.call_view(ADS_CONTRACT, view, kw) for kw in KEYWORDS
    }


def responses(system: HybridStorageSystem) -> list[bytes]:
    """The SP's encoded answers (objects and VO) to ``QUERIES``."""
    server = StorageProviderServer(system)
    return [server.handle(QueryRequest(text).encode()) for text in QUERIES]


def chain_tally(system: HybridStorageSystem) -> tuple:
    """What a transaction would move: nonces, pending receipts, gas."""
    chain = system.chain
    return (
        dict(chain._nonces),
        list(chain.pending),
        len(chain.receipts_by_tx),
        chain.height,
        system.maintenance_meter().total,
    )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_add_object_is_a_batch_of_one(scheme):
    one = make_system(scheme)
    batched = make_system(scheme)
    docs = make_docs(10)
    reports = [one.add_object(obj) for obj in docs]
    batched_reports = [batched.add_objects_batched([obj]) for obj in docs]
    assert [r.gas for r in reports] == [r.gas for r in batched_reports]
    assert [r.object_id for r in reports] == [obj.object_id for obj in docs]
    assert one.maintenance_meter().total == batched.maintenance_meter().total
    assert chain_state(one) == chain_state(batched)
    assert responses(one) == responses(batched)
    assert one.chain.height == batched.chain.height == len(docs)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_repeated_id_is_refused_before_any_transaction(scheme):
    system = make_system(scheme)
    system.add_objects(make_docs(3))
    tally = chain_tally(system)
    state = chain_state(system)
    repeated = [
        DataObject(5, ("alpha",), b"first"),
        DataObject(6, ("beta",), b"other"),
        DataObject(5, ("alpha", "beta"), b"second"),
    ]
    with pytest.raises(DatasetError, match="twice"):
        system.add_objects_batched(repeated)
    assert chain_tally(system) == tally
    assert chain_state(system) == state
    assert len(system) == 3
    # Nothing was opened, so the batch without its repeat goes through.
    system.add_objects_batched(repeated[:2])
    assert system.query("alpha AND beta").result_ids == [3]
    assert system.query("alpha").result_ids == [1, 3, 5]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_stored_id_and_empty_batch_are_refused(scheme):
    system = make_system(scheme)
    system.add_objects(make_docs(2))
    tally = chain_tally(system)
    with pytest.raises(DatasetError, match="already stored"):
        system.add_objects_batched(make_docs(2, start=2))
    with pytest.raises(DatasetError, match="empty"):
        system.add_objects_batched([])
    assert chain_tally(system) == tally


def test_mi_repeat_no_longer_wedges_the_system():
    """Sent as it came, the first copy of a repeated ID confirms on chain
    and the second raises inside the MB-tree before the SP mirrors the
    first: every later query on the keyword then fails verification."""
    system = HybridStorageSystem(scheme="mi", seed=3)
    system.add_object(DataObject(1, ("a",), b"one"))
    with pytest.raises(DatasetError):
        system.add_objects_batched(
            [DataObject(5, ("a",), b"five"), DataObject(5, ("a", "b"), b"again")]
        )
    assert system.query("a").result_ids == [1]
    system.add_object(DataObject(7, ("a",), b"seven"))
    assert system.query("a").result_ids == [1, 7]


def test_smi_keeps_the_prefix_before_a_raised_error():
    """Object 3 arrives after 6 on the same keyword; SMI appends only,
    so its update raises.  Objects 5 and 6 stay stored, mined (in one
    block) and verifiable, and the error reaches the caller.  Object 3
    is refused before its ``register_object``: no receipt, no registered
    hash, and the meter holds exactly the transactions of 5 and 6."""
    system = HybridStorageSystem(scheme="smi", seed=3)
    # The same history without object 3: what 5 and 6 alone cost.
    reference = HybridStorageSystem(scheme="smi", seed=3)
    for oid in (1, 2, 4):
        system.add_object(DataObject(oid, ("a",), b"o%d" % oid))
        reference.add_object(DataObject(oid, ("a",), b"o%d" % oid))
    height = system.chain.height
    gas = system.maintenance_meter().total
    with pytest.raises(ReproError, match="monotonically"):
        system.add_objects_batched(
            [DataObject(oid, ("a",), b"o%d" % oid) for oid in (5, 6, 3)]
        )
    reference.add_objects_batched(
        [DataObject(oid, ("a",), b"o%d" % oid) for oid in (5, 6)]
    )
    assert len(system) == 5
    assert system.all_object_ids() == [1, 2, 4, 5, 6]
    assert system.chain.height == height + 1
    assert system.maintenance_meter().total > gas
    assert system.maintenance_meter() == reference.maintenance_meter()
    assert len(system.chain.receipts_by_tx) == len(reference.chain.receipts_by_tx)
    assert not any(
        event.fields.get("object_id") == 3
        for receipt in system.chain.receipts_by_tx.values()
        for event in receipt.events
    )
    assert system.chain.call_view(ADS_CONTRACT, "view_object_hash", 3) == bytes(32)
    assert system.query("a").result_ids == [1, 2, 4, 5, 6]
    system.add_object(DataObject(7, ("a",), b"o7"))
    assert system.query("a").result_ids == [1, 2, 4, 5, 6, 7]


@pytest.mark.parametrize("scheme", ["mi", "smi"])
def test_merkle_family_keeps_the_prefix_before_a_failed_receipt(scheme):
    """Too many keywords for the gas limit: the third object's receipt
    fails, the first two stay confirmed and queryable."""
    system = HybridStorageSystem(scheme=scheme, seed=3, gas_limit=400_000)
    fat = tuple(f"kw{i:02d}" for i in range(40))
    batch = [
        DataObject(1, ("a",), b"one"),
        DataObject(2, ("a", "b"), b"two"),
        DataObject(3, ("a",) + fat, b"three"),
        DataObject(4, ("a",), b"four"),
    ]
    with pytest.raises(ChainError):
        system.add_objects_batched(batch)
    assert len(system) == 2
    assert system.chain.height == 1
    assert system.query("a").result_ids == [1, 2]
    system.add_object(batch[3])
    assert system.query("a").result_ids == [1, 2, 4]


def test_chameleon_failed_receipt_confirms_nothing():
    """One transaction carries the whole batch: it confirms every object
    or none, and the DO rolls back so the next batch goes through."""
    system = make_system("ci", gas_limit=300_000)
    system.add_objects(make_docs(2))
    height = system.chain.height
    gas = system.maintenance_meter().total
    with pytest.raises(ChainError):
        system.add_objects_batched(make_docs(12, start=3))
    assert len(system) == 2
    assert system.chain.height == height
    assert system.maintenance_meter().total == gas
    assert system.query("alpha").result_ids == [1]
    system.add_objects_batched(make_docs(2, start=3))
    assert system.query("alpha").result_ids == [1, 3]


@pytest.mark.parametrize("scheme", ["smi", "ci"])
def test_a_directory_holding_shard_state_is_refused(scheme, tmp_path):
    engines = tmp_path / "engines"
    system = make_system(scheme, engine="disk", engine_dir=engines)
    system.add_objects(make_docs(8))
    save_system(system, tmp_path / "saved", seed=4)
    system.close()
    files = {path.name: path.read_bytes() for path in engines.iterdir()}
    with pytest.raises(IntegrityError, match="already holds shard state"):
        make_system(scheme, engine="disk", engine_dir=engines)
    with pytest.raises(IntegrityError, match="already holds shard state"):
        load_system(tmp_path / "saved", engine_dir=engines)
    # Refused before any engine opened: not a byte moved.
    assert {path.name: path.read_bytes() for path in engines.iterdir()} == files
    restored = load_system(tmp_path / "saved", engine_dir=tmp_path / "fresh")
    assert len(restored) == 8
    assert restored.query("alpha AND beta").result_ids == [3, 7]
    restored.close()


def test_a_directory_with_empty_journals_is_accepted(tmp_path):
    make_system("smi", engine="disk", engine_dir=tmp_path).close()
    assert list(tmp_path.iterdir())
    system = make_system("smi", engine="disk", engine_dir=tmp_path)
    system.add_objects(make_docs(3))
    assert system.query("alpha").result_ids == [1, 3]
    system.close()
