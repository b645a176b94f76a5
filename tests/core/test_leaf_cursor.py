"""The SP walk's forward cursor against ``MBTree.locate``.

``LeafCursor.seek`` must name the two keys a fresh root-to-leaf
``locate`` names, for every target: ascending targets walk the finger
forward, a smaller target than the last one and an insert between two
seeks both start it over from the root.  Every check raises explicitly,
so the file means the same under ``python -O`` (CI runs it that way).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mbtree import MBTree
from repro.core.merkle_family import MBTreeView
from repro.crypto.hashing import sha3


def value_of(key: int) -> bytes:
    return sha3(b"v%d" % key)


def expect(condition, *context):
    if not condition:
        raise AssertionError(context)


def located(tree: MBTree, target: int):
    lower, upper = tree.locate(target)
    return (lower and lower.key, upper and upper.key)


#: Insert order is the list order, so it is random too.
key_lists = st.lists(st.integers(0, 50_000), unique=True, min_size=1, max_size=150)
target_lists = st.lists(st.integers(-3, 50_003), min_size=1, max_size=60)


@settings(max_examples=150, deadline=None)
@given(
    keys=key_lists,
    fanout=st.integers(3, 8),
    targets=target_lists,
    ascending=st.booleans(),
    data=st.data(),
)
def test_seek_names_the_keys_locate_names(keys, fanout, targets, ascending, data):
    tree = MBTree(fanout=fanout)
    for key in keys:
        tree.insert(key, value_of(key))
    cursor = tree.cursor()
    if ascending:
        targets = sorted(targets)
    spare = [k for k in range(0, 50_000, 997) if k not in set(keys)]
    for target in targets:
        expect(cursor.seek(target) == located(tree, target), target)
        if spare and data.draw(st.integers(0, 9)) == 0:
            key = spare.pop()  # an insert between two seeks
            tree.insert(key, value_of(key))
    # In order, shuffled or after the inserts: ask everything once more.
    for target in sorted(set(targets) | set(keys)):
        expect(cursor.seek(target) == located(tree, target), target)


def test_empty_and_single_leaf_trees():
    tree = MBTree()
    cursor = tree.cursor()
    expect(cursor.seek(5) == (None, None))
    tree.insert(7, value_of(7))
    expect(cursor.seek(5) == (None, 7))
    expect(cursor.seek(7) == (7, None))
    expect(cursor.seek(6) == (None, 7))  # a smaller target starts over
    tree.insert(3, value_of(3))
    expect(cursor.seek(6) == (3, 7))


@settings(max_examples=60, deadline=None)
@given(keys=key_lists, fanout=st.integers(3, 8), targets=target_lists)
def test_the_view_remembers_what_it_handed_out(keys, fanout, targets):
    """In any probe order: sorted, unique, exactly the keys returned."""
    tree = MBTree(fanout=fanout)
    for key in keys:
        tree.insert(key, value_of(key))
    view = MBTreeView(keyword="kw", tree=tree)
    handed_out = set()
    for target in targets:
        pair = view.boundaries(target)
        expect(pair == located(tree, target), target)
        handed_out |= {key for key in pair if key is not None}
    expect(view.keys == sorted(handed_out), view.keys)
    expect(view.run().keys == tuple(view.keys))
    expect(view.run().root == tree.root_hash)
    expect(MBTreeView(keyword="kw", tree=tree).first() == min(keys))
    expect(MBTreeView(keyword="kw", tree=tree).scan() == sorted(keys))
