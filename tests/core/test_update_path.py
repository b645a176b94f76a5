"""The one MB-tree update path folds to the tree's roots.

For any fan-out, any key set (the empty tree included) and a new key
that either appends or lands anywhere, folding
:meth:`MBTree.update_path` with :func:`fold_update` gives the root
before the insertion and, after ``tree.insert``, the root after it.  An
append also folds through Algorithm 1's spine the way the SMI contract
reads it, to the same two roots; any other key has no spine.  Every
check raises explicitly, so the file means the same under ``python -O``
(CI runs it that way).
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


def path_roots(path, new_entry, fanout):
    """Fold the path as the general contract reads it."""
    return fold_update(
        [entry_digest(key, value_hash) for key, value_hash in path.leaf],
        [(digests[:slot], digests[slot + 1 :]) for slot, digests in path.levels],
        path.index,
        new_entry,
        fanout,
    )


def spine_roots(spine, new_entry, fanout):
    """Fold the spine as the SMI contract reads it."""
    return fold_update(
        spine.leaf_entries,
        [(level, ()) for level in spine.internal_levels],
        len(spine.leaf_entries),
        new_entry,
        fanout,
    )


@settings(max_examples=120, deadline=None)
@given(
    keys=st.lists(st.integers(0, 10_000), unique=True, max_size=120),
    fanout=st.integers(3, 8),
    news=st.lists(st.integers(0, 10_000), min_size=1, max_size=25),
    append=st.booleans(),
)
def test_update_path_folds_to_the_roots_before_and_after(keys, fanout, news, append):
    tree = MBTree(fanout=fanout)
    for key in keys:
        tree.insert(key, value_of(key))
    present = set(keys)
    for key in news:
        if append:
            key = (-1 if tree.max_key is None else tree.max_key) + 1 + key % 5
        if key in present:
            continue
        path = tree.update_path(key)
        new_entry = entry_digest(key, value_of(key))
        old_root, new_root = path_roots(path, new_entry, fanout)
        expect(old_root == tree.root_hash, "old root", key, fanout)
        if tree.max_key is None or key > tree.max_key:
            spine = path.spine()
            expect(spine_roots(spine, new_entry, fanout) == (old_root, new_root), key)
        else:
            try:
                path.spine()
            except ReproError:
                pass
            else:
                raise AssertionError(("a spine for a non-append", key))
        tree.insert(key, value_of(key))
        present.add(key)
        expect(new_root == tree.root_hash, "new root", key, fanout)

