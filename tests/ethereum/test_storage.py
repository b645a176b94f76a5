"""Unit tests for the metered contract storage."""

import pytest

from repro.errors import StorageError
from repro.ethereum.gas import GasMeter
from repro.ethereum.storage import ContractStorage, to_word, word_to_int


@pytest.fixture()
def storage():
    s = ContractStorage()
    s.bind_meter(GasMeter())
    return s


class TestWordEncoding:
    def test_int_roundtrip(self):
        assert word_to_int(to_word(123456)) == 123456

    def test_bytes_padded(self):
        assert to_word(b"\x01") == b"\x00" * 31 + b"\x01"

    def test_rejects_oversized(self):
        with pytest.raises(StorageError):
            to_word(b"x" * 33)
        with pytest.raises(StorageError):
            to_word(1 << 256)

    def test_rejects_negative(self):
        with pytest.raises(StorageError):
            to_word(-1)

    def test_rejects_other_types(self):
        with pytest.raises(StorageError):
            to_word("string")  # type: ignore[arg-type]


class TestMeteredAccess:
    def test_fresh_write_charges_sstore(self, storage):
        storage.store(("k",), 1)
        assert storage._meter.write_gas == 20_000

    def test_overwrite_charges_supdate(self, storage):
        storage.store(("k",), 1)
        storage.store(("k",), 2)
        assert storage._meter.by_operation["sstore"] == 20_000
        assert storage._meter.by_operation["supdate"] == 5_000

    def test_load_charges_sload(self, storage):
        storage.store(("k",), 7)
        assert storage.load_int(("k",)) == 7
        assert storage._meter.read_gas == 200

    def test_absent_key_reads_zero(self, storage):
        assert storage.load_int(("missing",)) == 0

    def test_write_zero_clears_slot(self, storage):
        storage.store(("k",), 5)
        storage.store(("k",), 0)
        assert storage.occupied_slots() == 0
        # Writing zero again into an empty slot is an sstore by the
        # zero->nonzero rule only when the value is nonzero; zero->zero
        # still charges (the EVM charges for the attempt).
        storage.store(("k",), 0)
        assert storage.peek_int(("k",)) == 0

    def test_no_meter_raises(self):
        s = ContractStorage()
        with pytest.raises(StorageError):
            s.load(("k",))
        with pytest.raises(StorageError):
            s.store(("k",), 1)


class TestUnmeteredAccess:
    def test_peek_poke_do_not_charge(self, storage):
        before = storage._meter.total
        storage.poke(("k",), 9)
        assert storage.peek_int(("k",)) == 9
        assert storage._meter.total == before

    def test_poke_zero_clears(self, storage):
        storage.poke(("k",), 9)
        storage.poke(("k",), 0)
        assert storage.occupied_slots() == 0

    def test_keys_iteration(self, storage):
        storage.poke(("a",), 1)
        storage.poke(("b",), 2)
        assert sorted(storage.keys()) == [("a",), ("b",)]
