"""Property-based tests for the Merkle B-tree.

Model-based checking against a sorted list: for any key set and fan-out,
the tree must iterate in sorted order, prove every member and find the
boundaries ``bisect`` finds in the model.  (Algorithm 1's spine against real
appends: ``test_update_path.py``.)
"""

from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import mbtree
from repro.core.multiproof import open_table
from repro.crypto.hashing import sha3
from repro.errors import VerificationError

key_sets = st.sets(st.integers(0, 10_000), min_size=1, max_size=120)
fanouts = st.integers(3, 8)


def value_of(key: int) -> bytes:
    return sha3(b"v%d" % key)


@settings(max_examples=40, deadline=None)
@given(keys=key_sets, fanout=fanouts)
def test_sorted_iteration_and_proofs(keys, fanout):
    tree = mbtree.MBTree(fanout=fanout)
    for key in keys:
        tree.insert(key, value_of(key))
    ordered = sorted(keys)
    assert [e.key for e in tree.iter_entries()] == ordered
    # Every member proves against the root, as the 1-leaf table.
    for key in ordered[:: max(1, len(ordered) // 7)]:
        table = tree.multiproof([key])
        assert table.leaves == ((key, value_of(key)),)
        assert table.fold()[0] == tree.root_hash


@settings(max_examples=40, deadline=None)
@given(
    keys=key_sets,
    fanout=fanouts,
    target=st.integers(-5, 10_005),
)
def test_boundaries_match_sorted_model(keys, fanout, target):
    tree = mbtree.MBTree(fanout=fanout)
    for key in keys:
        tree.insert(key, value_of(key))
    ordered = sorted(keys)
    rank = bisect_right(ordered, target)
    expected_lower = ordered[rank - 1] if rank else None
    expected_upper = ordered[rank] if rank < len(ordered) else None
    assert tree.boundaries(target) == (expected_lower, expected_upper)
    # The pair's table folds to the root and shows the pair adjacent
    # (or at the tree's edge).
    keys = [key for key in (expected_lower, expected_upper) if key is not None]
    run = open_table(tree.multiproof(keys), tree.root_hash, "kw")
    assert run.boundaries(target) == (expected_lower, expected_upper)


@settings(max_examples=30, deadline=None)
@given(keys=st.sets(st.integers(0, 2_000), min_size=2, max_size=60))
def test_adjacency_exactly_consecutive(keys):
    tree = mbtree.MBTree(fanout=4)
    for key in keys:
        tree.insert(key, value_of(key))
    ordered = sorted(keys)

    def run_of(pair):
        return open_table(tree.multiproof(pair), tree.root_hash, "kw")

    for a, b in zip(ordered, ordered[1:]):
        assert run_of([a, b]).boundaries(a) == (a, b)
    # A non-consecutive pair must never verify as adjacent.
    if len(ordered) >= 3:
        with pytest.raises(VerificationError):
            run_of([ordered[0], ordered[2]]).boundaries(ordered[0])
