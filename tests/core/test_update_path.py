"""Algorithm 1's spine folds to the tree's roots.

For any fan-out and any key set (the empty tree included), folding
:meth:`MBTree.update_spine` of an appended key with :func:`fold_update`
gives the root before the append and, after ``tree.insert``, the root
after it.  Any key that is not an append is refused.  Every check
raises explicitly, so the file means the same under ``python -O`` (CI
runs it that way).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mbtree import MBTree, entry_digest, fold_update
from repro.crypto.hashing import sha3
from repro.errors import ReproError


def value_of(key: int) -> bytes:
    return sha3(b"v%d" % key)


def expect(condition, *context):
    if not condition:
        raise AssertionError(context)


@settings(max_examples=120, deadline=None)
@given(
    keys=st.lists(st.integers(0, 10_000), unique=True, max_size=120),
    fanout=st.integers(3, 8),
    steps=st.lists(st.integers(1, 5), min_size=1, max_size=25),
)
def test_an_append_folds_to_the_roots_before_and_after(keys, fanout, steps):
    tree = MBTree(fanout=fanout)
    for key in keys:
        tree.insert(key, value_of(key))
    for step in steps:
        key = (-1 if tree.max_key is None else tree.max_key) + step
        new_entry = entry_digest(key, value_of(key))
        old_root, new_root = fold_update(tree.update_spine(key), new_entry, fanout)
        expect(old_root == tree.root_hash, "old root", key, fanout)
        tree.insert(key, value_of(key))
        expect(new_root == tree.root_hash, "new root", key, fanout)


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.integers(0, 10_000), unique=True, min_size=1, max_size=120),
    fanout=st.integers(3, 8),
    pick=st.integers(0, 10_000),
)
def test_any_other_key_is_refused(keys, fanout, pick):
    tree = MBTree(fanout=fanout)
    for key in keys:
        tree.insert(key, value_of(key))
    key = pick % (max(keys) + 1)  # at most the largest key: present or not
    try:
        tree.update_spine(key)
    except ReproError as exc:
        expect("monotonically increasing" in str(exc), key, exc)
    else:
        raise AssertionError(("a spine for a non-append", key))
