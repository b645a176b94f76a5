"""Each SP tree's key column against its records and ``bisect``.

An MB-tree keeps every key, ascending, in one list that each insertion
extends and a restore rebuilds; a Chameleon tree keeps its IDs the same
way (they ascend with positions).  Boundary probes bisect that list, so
it must equal a walk of the tree's records after every way the tree
changes or comes back — inserts in any order, ``from_blob``, a pickle
round trip and the MI contract's restore after a failed call — and
every probe must name what ``bisect`` finds over the inserted keys, an
oracle that shares no code with the tree.  Every check raises
explicitly, so the file means the same under ``python -O`` (CI runs it
that way).
"""

import pickle
from bisect import bisect_right

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataObject
from repro.core.chameleon import ChameleonTreeSP, InsertionProof
from repro.core.chameleon_index import ChameleonView
from repro.core.mbtree import MBTree
from repro.core.merkle_family import MBTreeView
from repro.core.merkle_inv import MerkleInvContract
from repro.core.objects import ObjectMetadata
from repro.crypto.hashing import sha3
from repro.ethereum.chain import Blockchain


def value_of(key: int) -> bytes:
    return sha3(b"v%d" % key)


def expect(condition, *context):
    if not condition:
        raise AssertionError(context)


def located(keys, target: int):
    """The keys bracketing ``target``: ``(largest <=, smallest >)``."""
    ordered = sorted(keys)
    rank = bisect_right(ordered, target)
    return (
        ordered[rank - 1] if rank else None,
        ordered[rank] if rank < len(ordered) else None,
    )


def leaf_walk(tree: MBTree) -> list[int]:
    """The keys as the leaf records hold them, in order."""
    return [entry.key for entry in tree.iter_entries()]


def check_tree(tree: MBTree, present, targets) -> None:
    """The column is the leaves, and every probe is ``bisect``'s."""
    expect(tree.keys() == leaf_walk(tree) == sorted(present), tree.keys())
    expect(len(tree) == len(present))
    expect(tree.min_key == (min(present) if present else None))
    expect(tree.max_key == (max(present) if present else None))
    for target in targets:
        expect(tree.boundaries(target) == located(present, target), target)


#: Insert order is the list order, so it is random too.
key_lists = st.lists(st.integers(0, 50_000), unique=True, min_size=1, max_size=150)
target_lists = st.lists(st.integers(-3, 50_003), min_size=1, max_size=40)


@settings(max_examples=120, deadline=None)
@given(keys=key_lists, fanout=st.integers(3, 8), targets=target_lists)
def test_mbtree_column_through_inserts_and_restores(keys, fanout, targets):
    tree = MBTree(fanout=fanout)
    present = []
    for key in keys:
        tree.insert(key, value_of(key))
        present.append(key)
        expect(tree.keys() == leaf_walk(tree), key)
    check_tree(tree, present, targets + present)
    for restored in (
        MBTree.from_blob(tree.to_blob()),
        pickle.loads(pickle.dumps(tree)),
    ):
        expect(restored.root_hash == tree.root_hash)
        check_tree(restored, present, targets)
        # A restored tree keeps its column through further inserts.
        extra = [50_001, 50_002] + [k for k in (6, 13) if k not in present]
        for key in extra:
            restored.insert(key, value_of(key))
        check_tree(restored, present + extra, targets + extra)


def test_empty_and_single_leaf_trees():
    tree = MBTree()
    check_tree(tree, [], [5])
    expect(MBTree.from_blob(tree.to_blob()).keys() == [])
    tree.insert(7, value_of(7))
    check_tree(tree, [7], [5, 6, 7, 8])
    tree.insert(3, value_of(3))
    check_tree(tree, [3, 7], [2, 3, 6, 7, 9])


WIDE = tuple(f"k{i}" for i in range(6))


def register_and_insert(chain, oid, keywords):
    md = ObjectMetadata.of(DataObject(oid, keywords, b"o%d" % oid))
    return chain.send_transaction(
        "do", "ads", "register_and_insert",
        md.object_id, md.object_hash, md.keywords,
        payload=md.payload_bytes(),
    )


@settings(max_examples=25, deadline=None)
@given(
    ids=st.lists(st.integers(1, 5_000), unique=True, min_size=2, max_size=30),
    fanout=st.integers(3, 8),
    data=st.data(),
)
def test_mi_contract_trees_keep_their_column_after_a_failed_call(
    ids, fanout, data
):
    """A call cut short by the gas limit restores every tree it touched
    from its blob; the restored trees' columns are their leaves."""
    chain = Blockchain()
    chain.deploy("ads", MerkleInvContract(fanout=fanout))
    contract = chain.contract("ads")
    present: dict[str, list[int]] = {}
    limit = chain.gas_limit
    for oid in ids:
        keywords = WIDE[: data.draw(st.integers(1, len(WIDE)))]
        if data.draw(st.booleans()):
            chain.gas_limit = data.draw(st.integers(25_000, 120_000))
            receipt = register_and_insert(chain, oid, keywords)
            chain.gas_limit = limit
            if not receipt.status:
                for keyword, tree in contract._trees.items():
                    check_tree(tree, present.get(keyword, []), [oid - 1, oid])
                continue
        else:
            expect(register_and_insert(chain, oid, keywords).status, oid)
        for keyword in keywords:
            present.setdefault(keyword, []).append(oid)
    expect(sorted(contract._trees) == sorted(present))
    for keyword, tree in contract._trees.items():
        check_tree(tree, present[keyword], [0, *ids])


@settings(max_examples=60, deadline=None)
@given(keys=key_lists, fanout=st.integers(3, 8), targets=target_lists)
def test_the_mbtree_view_remembers_what_it_handed_out(keys, fanout, targets):
    """In any probe order: sorted, unique, exactly the keys returned."""
    tree = MBTree(fanout=fanout)
    for key in keys:
        tree.insert(key, value_of(key))
    view = MBTreeView(keyword="kw", tree=tree)
    handed_out = set()
    for target in targets:
        pair = view.boundaries(target)
        expect(pair == located(keys, target), target)
        handed_out |= {key for key in pair if key is not None}
    expect(view.keys == sorted(handed_out), view.keys)
    expect(view.run().keys == tuple(view.keys))
    expect(view.run().root == tree.root_hash)
    expect(MBTreeView(keyword="kw", tree=tree).first() == min(keys))
    expect(MBTreeView(keyword="kw", tree=tree).scan() == sorted(keys))


def apply(tree: ChameleonTreeSP, object_id: int) -> None:
    """Feed the SP tree ``object_id`` at the next position.

    The SP stores what the DO sends without checking an opening, so the
    group elements here are stand-ins.
    """
    position = tree.count + 1
    parent, child = divmod(position - 1, tree.arity)
    tree.apply_insertion(
        InsertionProof(
            position=position,
            object_id=object_id,
            object_hash=value_of(object_id),
            commitment=1000 + position,
            opening=2000 + position,
            parent_opening=3000 + position,
            parent_position=parent,
            child_index=child + 1,
        )
    )


def check_chameleon(tree: ChameleonTreeSP, ids, targets) -> None:
    """``ids`` against the records, both lookups against a linear scan."""
    expect(tree.ids == list(ids), tree.ids)
    expect(
        tree.ids == [tree.store.object_id(p) for p in range(1, tree.count + 1)]
    )
    for target in targets:
        expect(tree.rank_of(target) == sum(i <= target for i in ids), target)
        exact = ids.index(target) + 1 if target in ids else None
        expect(tree.position_of(target) == exact, target)


@settings(max_examples=80, deadline=None)
@given(
    ids=st.lists(st.integers(0, 50_000), unique=True, max_size=120).map(sorted),
    arity=st.integers(2, 7),
    targets=target_lists,
)
def test_chameleon_rank_and_position_through_inserts_and_restores(
    ids, arity, targets
):
    tree = ChameleonTreeSP(root_commitment=1, arity=arity, value_bytes=16)
    for count, object_id in enumerate(ids, start=1):
        apply(tree, object_id)
        check_chameleon(tree, ids[:count], [object_id - 1, object_id, *targets])
    check_chameleon(tree, ids, targets + ids)
    for restored in (
        ChameleonTreeSP.from_blob(tree.to_blob()),
        pickle.loads(pickle.dumps(tree)),
    ):
        expect(restored.run_root == tree.run_root)
        check_chameleon(restored, ids, targets + ids)
    view = ChameleonView(keyword="kw", tree=tree)
    for target in sorted(targets):
        expect(view.boundaries(target) == located(ids, target), target)
    if ids:
        expect(ChameleonView(keyword="kw", tree=tree).first() == ids[0])
    expect(ChameleonView(keyword="kw", tree=tree).scan() == ids)
