"""Unit tests for the Table I gas model."""

import pytest

from repro.errors import OutOfGasError
from repro.ethereum import gas


class TestTableIConstants:
    """The schedule must match Table I of the paper exactly."""

    def test_constants(self):
        assert gas.GAS_SLOAD == 200
        assert gas.GAS_SSTORE == 20_000
        assert gas.GAS_SUPDATE == 5_000
        assert gas.GAS_MEM == 3
        assert gas.GAS_HASH_BASE == 30
        assert gas.GAS_HASH_PER_WORD == 6
        assert gas.GAS_TX == 21_000
        assert gas.GAS_TXDATA_PER_BYTE == 68
        assert gas.BLOCK_GAS_LIMIT == 8_000_000

    def test_hash_gas_formula(self):
        assert gas.hash_gas(0) == 30
        assert gas.hash_gas(4) == 54

    def test_hash_gas_rejects_negative(self):
        with pytest.raises(ValueError):
            gas.hash_gas(-1)

    def test_usd_conversion_matches_paper(self):
        # Table I: C_sstore = 20,000 gas = 6.87e-2 US$.
        assert gas.gas_to_usd(gas.GAS_SSTORE) == pytest.approx(0.0687, rel=1e-3)
        # C_tx = 21,000 gas = 7.21e-2 US$.
        assert gas.gas_to_usd(gas.GAS_TX) == pytest.approx(0.0721, rel=1e-2)
        # C_sload = 200 gas = 6.87e-4 US$.
        assert gas.gas_to_usd(gas.GAS_SLOAD) == pytest.approx(6.87e-4, rel=1e-3)


class TestGasMeter:
    def test_operations_accumulate(self):
        meter = gas.GasMeter()
        meter.sload()
        meter.sstore()
        meter.supdate()
        meter.mem(2)
        meter.hash(3)
        meter.tx_base()
        meter.txdata(10)
        expected = 200 + 20_000 + 5_000 + 6 + 48 + 21_000 + 680
        assert meter.total == expected

    def test_category_buckets(self):
        meter = gas.GasMeter()
        meter.sstore()
        meter.supdate()
        meter.sload()
        meter.txdata(1)
        assert meter.write_gas == 25_000
        assert meter.read_gas == 200
        assert meter.other_gas == 68

    def test_limit_enforced(self):
        meter = gas.GasMeter(limit=100)
        meter.charge(90, "x")
        with pytest.raises(OutOfGasError):
            meter.charge(20, "x")
        assert meter.total == 90  # failed charge not applied

    def test_rejects_negative_charge(self):
        with pytest.raises(ValueError):
            gas.GasMeter().charge(-1, "x")

    def test_merge_and_snapshot(self):
        a = gas.GasMeter()
        a.sstore()
        b = gas.GasMeter()
        b.sload(2)
        a.merge(b)
        assert a.total == 20_000 + 400
        snap = a.snapshot()
        a.sload()
        assert snap.total == 20_000 + 400
        assert snap.by_operation["sload"] == 400

    def test_by_operation_tracking(self):
        meter = gas.GasMeter()
        meter.sload()
        meter.sload()
        assert meter.by_operation["sload"] == 400
