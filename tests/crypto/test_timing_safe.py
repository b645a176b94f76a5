"""Regression tests: digest equality on verify paths is constant-time.

``digests_equal`` resolves ``hmac.compare_digest`` through the module
attribute at call time, so monkeypatching ``hmac.compare_digest`` with a
counting spy observes every constant-time comparison made anywhere in
the verification stack — even though call sites import ``digests_equal``
by name.
"""

import hmac

import pytest

from repro.core.mbtree import MBTree
from repro.core.multiproof import open_table
from repro.crypto.hashing import digests_equal, sha3


@pytest.fixture()
def compare_digest_spy(monkeypatch):
    calls = []
    real = hmac.compare_digest

    def spy(a, b):
        calls.append((bytes(a), bytes(b)))
        return real(a, b)

    monkeypatch.setattr(hmac, "compare_digest", spy)
    return calls


def test_digests_equal_wraps_compare_digest(compare_digest_spy):
    assert digests_equal(b"\x01" * 32, b"\x01" * 32)
    assert not digests_equal(b"\x01" * 32, b"\x02" * 32)
    assert len(compare_digest_spy) == 2


def make_tree() -> MBTree:
    tree = MBTree(fanout=4)
    for key in range(0, 30, 3):
        tree.insert(key, sha3(b"v%d" % key))
    return tree


def test_merkle_verify_path_uses_compare_digest(compare_digest_spy):
    tree = make_tree()
    open_table(tree.multiproof([3]), tree.root_hash, "kw")
    # The one fold of the table is compared with the actual root.
    assert len(compare_digest_spy) == 1
    assert tree.root_hash in compare_digest_spy[0]
