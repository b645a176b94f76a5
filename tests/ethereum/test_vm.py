"""Unit tests for the metered execution context."""

import hashlib

from repro.ethereum.gas import GasMeter
from repro.ethereum.vm import ExecutionContext


def make_env(limit=None):
    return ExecutionContext(meter=GasMeter(limit=limit))


class TestKeccak:
    def test_correct_digest(self):
        env = make_env()
        assert env.keccak(b"abc") == hashlib.sha3_256(b"abc").digest()

    def test_charges_per_word(self):
        env = make_env()
        env.keccak(b"x" * 64)  # 2 words
        assert env.meter.by_operation["hash"] == 30 + 6 * 2


class TestMemory:
    def test_touch_memory(self):
        env = make_env()
        env.touch_memory(5)
        assert env.meter.by_operation["mem"] == 15

    def test_read_calldata_charges_words(self):
        env = make_env()
        data = b"z" * 70  # 3 words
        assert env.read_calldata(data) == data
        assert env.meter.by_operation["mem"] == 9


class TestEvents:
    def test_emit_records(self):
        env = make_env()
        env.emit("Stored", key=1, value="x")
        assert len(env.events) == 1
        assert env.events[0].name == "Stored"
        assert env.events[0].fields == {"key": 1, "value": "x"}
        assert "Stored" in str(env.events[0])
