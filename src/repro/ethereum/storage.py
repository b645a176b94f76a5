"""Word-addressable, gas-metered contract storage.

Models the EVM's persistent key/value store: 32-byte words addressed by
arbitrary keys.  Every access is charged to the active transaction's
:class:`~repro.ethereum.gas.GasMeter`:

* reading a word costs ``C_sload``;
* writing a fresh word (zero -> non-zero) costs ``C_sstore``;
* overwriting an existing word costs ``C_supdate``.

Keys are free-form (tuples of strings/ints), mirroring how Solidity maps
nested mappings onto the flat storage space via hashing — the addressing
scheme costs nothing extra, only the word accesses are priced, exactly as
in the paper's cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.crypto.hashing import DIGEST_SIZE
from repro.errors import StorageError
from repro.ethereum.gas import GasMeter

#: A storage key: any hashable tuple of primitive components.
StorageKey = tuple

ZERO_WORD = b"\x00" * DIGEST_SIZE


def to_word(value: bytes | int) -> bytes:
    """Normalise a value to a 32-byte storage word."""
    if isinstance(value, int):
        if value < 0:
            raise StorageError("storage words encode non-negative integers")
        if value >= 1 << (8 * DIGEST_SIZE):
            raise StorageError("integer does not fit in a 32-byte word")
        return value.to_bytes(DIGEST_SIZE, "big")
    if isinstance(value, bytes):
        if len(value) > DIGEST_SIZE:
            raise StorageError(
                f"storage words are {DIGEST_SIZE} bytes; got {len(value)}"
            )
        return value.rjust(DIGEST_SIZE, b"\x00")
    raise StorageError(f"cannot store value of type {type(value)!r}")


def word_to_int(word: bytes) -> int:
    """Decode a storage word as a big-endian unsigned integer."""
    return int.from_bytes(word, "big")


@dataclass
class ContractStorage:
    """One contract's persistent storage with gas metering.

    The active meter is injected per transaction via :meth:`bind_meter`;
    accesses outside a transaction (e.g. test assertions) use the
    unmetered ``peek``/``poke`` escape hatches, which never charge gas
    and never appear in measured costs.
    """

    _words: dict[StorageKey, bytes] = field(default_factory=dict)
    _meter: GasMeter | None = None

    def bind_meter(self, meter: GasMeter | None) -> None:
        """Attach (or detach) the gas meter charged for accesses."""
        self._meter = meter

    def _require_meter(self) -> GasMeter:
        if self._meter is None:
            raise StorageError(
                "storage accessed outside a transaction; use peek/poke "
                "for unmetered inspection"
            )
        return self._meter

    # -- metered interface (what contract code uses) --------------------------

    def load(self, key: StorageKey) -> bytes:
        """Metered read of one word (``C_sload``); absent keys read zero."""
        self._require_meter().sload()
        return self._words.get(key, ZERO_WORD)

    def load_int(self, key: StorageKey) -> int:
        """Metered read decoded as an unsigned integer."""
        return word_to_int(self.load(key))

    def store(self, key: StorageKey, value: bytes | int) -> None:
        """Metered write of one word.

        Charges ``C_sstore`` when the slot was previously zero/absent and
        ``C_supdate`` otherwise, matching Table I's distinction.
        """
        meter = self._require_meter()
        word = to_word(value)
        existing = self._words.get(key, ZERO_WORD)
        if existing == ZERO_WORD:
            meter.sstore()
        else:
            meter.supdate()
        if word == ZERO_WORD:
            self._words.pop(key, None)
        else:
            self._words[key] = word

    # -- transaction revert support -------------------------------------------

    def snapshot(self) -> dict[StorageKey, bytes]:
        """Copy of the occupied words (words themselves are immutable)."""
        return dict(self._words)

    def restore(self, words: dict[StorageKey, bytes]) -> None:
        """Reset to a :meth:`snapshot` — the EVM revert on a failed tx."""
        self._words = dict(words)

    # -- unmetered inspection (tests, reporting; not part of the cost model) --

    def peek(self, key: StorageKey) -> bytes:
        """Read a word without charging gas (off-model inspection)."""
        return self._words.get(key, ZERO_WORD)

    def peek_int(self, key: StorageKey) -> int:
        """Unmetered read decoded as an unsigned integer."""
        return word_to_int(self.peek(key))

    def poke(self, key: StorageKey, value: bytes | int) -> None:
        """Write a word without charging gas (test setup only)."""
        word = to_word(value)
        if word == ZERO_WORD:
            self._words.pop(key, None)
        else:
            self._words[key] = word

    def occupied_slots(self) -> int:
        """Number of non-zero storage words currently held."""
        return len(self._words)

    def keys(self) -> Iterator[StorageKey]:
        """Iterate over the occupied storage keys."""
        return iter(self._words.keys())
