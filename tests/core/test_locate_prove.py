"""Locate, then prove once: the SP query path.

The tree's key column finds boundary keys without hashing — the views
read them through it and leave the join as one :class:`LocatedRun` per tree
— and the finishing step asks each tree once for its table
(``MBTree.multiproof``; a Chameleon tree's node table takes the same
route with positions for keys).  These tests pin (a) that the one-pass
Merkle construction equals the merge-from-paths oracle field for field,
and that the located keys match ``bisect`` over the inserted keys, and
(b) that an unfinished or stale run fails closed everywhere — also
under ``python -O``.  (The key column against the leaves and a
restore: ``test_key_column.py``.)
"""

import dataclasses
import pickle
import subprocess
import sys
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.chameleon import ChameleonMultiproof
from repro.core.mbtree import MBTree
from repro.core.merkle_family import MerkleInvertedSP, MerkleProofSystem
from repro.core.multiproof import (
    LocatedRun,
    ProveRequest,
    TreeMultiproof,
    compress_query_vo,
    open_table,
    prove_keys,
)
from repro.core.objects import DataObject, ObjectMetadata
from repro.core.query.codec import VOCodec
from repro.core.query.join import conjunctive_join
from repro.core.query.parser import KeywordQuery
from repro.core.query.verify import verify_query
from repro.core.query.vo import (
    ConjunctiveVO,
    ProvenEntry,
    QueryAnswer,
    QueryVO,
    ReplayVO,
)
from repro.crypto.hashing import sha3
from repro.errors import (
    ReproError,
    StaleProofError,
    UnresolvedProofError,
)

from tests.reference_codec import merkle_parts
from tests.reference_multiproof import build_multiproof, prove_path


def value_of(key: int) -> bytes:
    return sha3(b"v%d" % key)


def make_tree(keys, fanout=4) -> MBTree:
    tree = MBTree(fanout=fanout)
    for key in keys:
        tree.insert(key, value_of(key))
    return tree


# -- (a) equivalence with the merge-from-paths oracle ---------------------------

#: Insert order is the list order, so it is random too.
key_lists = st.lists(
    st.integers(0, 50_000), unique=True, min_size=1, max_size=150
)


@settings(max_examples=60, deadline=None)
@given(keys=key_lists, fanout=st.integers(3, 8), data=st.data())
def test_multiproof_and_gate_equal_the_oracle(keys, fanout, data):
    tree = make_tree(keys, fanout)
    picks = data.draw(
        st.lists(st.sampled_from(keys), min_size=1, max_size=80)
    )
    unique = sorted(set(picks))
    paths = {key: prove_path(tree, key)[1] for key in unique}
    proven = [
        (ProvenEntry(key, value_of(key)), paths[key])
        for key in picks
    ]
    reference, ordinals = build_multiproof(proven)

    multiproof = tree.multiproof(unique)
    assert merkle_parts(multiproof) == merkle_parts(reference)
    assert multiproof.fold()[0] == tree.root_hash
    for ordinal, key in enumerate(unique):
        gpath = tuple(step.index for step in reversed(paths[key].steps))
        assert ordinals[gpath] == ordinal

    # The prove step hands back exactly that table for a located run.
    run = LocatedRun("kw", tree.root_hash, tuple(unique), tree)
    finished = compress_query_vo(
        QueryVO(
            conjuncts=(
                ConjunctiveVO(
                    keywords=("kw",), base=ReplayVO("cyclic", ("kw",), (run,))
                ),
            )
        )
    )
    assert finished.multiproofs == (reference,)
    assert finished.conjuncts[0].base.runs == (0,)
    assert len(VOCodec().encode(finished)) == finished.byte_size()


@settings(max_examples=60, deadline=None)
@given(
    keys=key_lists,
    fanout=st.integers(3, 8),
    target=st.integers(-3, 50_003),
)
def test_locate_matches_sorted_model_and_boundaries(keys, fanout, target):
    tree = make_tree(keys, fanout)
    ordered = sorted(keys)
    rank = bisect_right(ordered, target)
    expected_lower = ordered[rank - 1] if rank else None
    expected_upper = ordered[rank] if rank < len(ordered) else None
    assert tree.boundaries(target) == (expected_lower, expected_upper)
    # The table over what the column found shows the same two keys.
    located = [key for key in (expected_lower, expected_upper) if key is not None]
    table = tree.multiproof(located)
    assert table.leaves == tuple((key, value_of(key)) for key in located)
    run = open_table(table, tree.root_hash, "kw")
    assert run.boundaries(target) == (expected_lower, expected_upper)


class TestMultiproofInputs:
    def test_rejects_empty_unsorted_and_duplicate_keys(self):
        tree = make_tree(range(20))
        for bad in ([], [3, 1], [2, 2]):
            with pytest.raises(ReproError):
                tree.multiproof(bad)

    def test_rejects_absent_keys_and_empty_trees(self):
        tree = make_tree(range(0, 40, 2))
        for bad in ([1], [0, 2, 5], [100]):
            with pytest.raises(ReproError):
                tree.multiproof(bad)
        with pytest.raises(ReproError):
            MBTree().multiproof([1])


# -- fail closed around the located run -----------------------------------------


def build_sp(n=30) -> MerkleInvertedSP:
    sp = MerkleInvertedSP()
    for oid in range(1, n + 1):
        kws = ("a", "b") if oid % 3 else ("a",)
        sp.insert(ObjectMetadata.of(DataObject(oid, kws, b"c")))
    return sp


def located_vo(sp) -> QueryVO:
    _, conjunct = conjunctive_join([sp.view("a"), sp.view("b")])
    return QueryVO(conjuncts=(conjunct,))


class TestUnfinishedVOFailsClosed:
    def test_codec_refuses_a_deferred_slot(self):
        with pytest.raises(UnresolvedProofError):
            VOCodec().encode(located_vo(build_sp()))

    def test_byte_size_refuses_a_deferred_slot(self):
        with pytest.raises(UnresolvedProofError):
            located_vo(build_sp()).byte_size()

    def test_verify_query_refuses_a_deferred_slot(self):
        sp = build_sp()
        query = KeywordQuery.parse("a AND b")
        ids, conjunct = conjunctive_join([sp.view("a"), sp.view("b")])
        answer = QueryAnswer(
            result_ids=ids,
            objects={
                oid: DataObject(oid, ("a", "b"), b"c") for oid in ids
            },
            vo=QueryVO(conjuncts=(conjunct,)),
        )
        ps = MerkleProofSystem(
            roots={kw: sp.root_hash(kw) for kw in ("a", "b")}
        )
        with pytest.raises(ReproError):
            verify_query(query, answer, ps)
        # The same answer, finished, verifies.
        answer.vo = compress_query_vo(answer.vo)
        assert verify_query(query, answer, ps).ids == set(ids)

    def test_pickled_slot_carries_no_tree(self):
        sp = build_sp()
        view = sp.view("a")
        view.scan()
        run = view.run()
        assert run.keys == tuple(range(1, 31))
        assert run.tree is sp.trees["a"]
        clone = pickle.loads(pickle.dumps(run))
        assert clone == run
        assert clone.tree is None
        assert len(pickle.dumps(run)) < 300  # no blob rode along
        vo = QueryVO(
            conjuncts=(
                ConjunctiveVO(
                    keywords=("a",), base=ReplayVO("cyclic", ("a",), (clone,))
                ),
            )
        )
        # Without a resolver the run cannot be finished ...
        with pytest.raises(UnresolvedProofError):
            compress_query_vo(vo)
        # ... with one, it is proven by whoever holds the tree.
        finished = compress_query_vo(
            vo, lambda requests: [prove_keys(sp.trees[r.keyword], r) for r in requests]
        )
        assert finished.conjuncts[0].base.runs == (0,)
        assert isinstance(finished.multiproofs[0], TreeMultiproof)


class TestProveStepFailsClosed:
    def test_root_moved_between_locate_and_prove(self):
        sp = build_sp()
        vo = located_vo(sp)
        sp.insert(ObjectMetadata.of(DataObject(99, ("a",), b"c")))
        with pytest.raises(StaleProofError):
            compress_query_vo(vo)

    def test_missing_tree_and_absent_key(self):
        tree = make_tree(range(10))
        request = ProveRequest("kw", tree.root_hash, (3, 11))
        with pytest.raises(StaleProofError):
            prove_keys(tree, request)
        with pytest.raises(StaleProofError):
            prove_keys(None, dataclasses.replace(request, keys=(3,)))

    def test_chameleon_count_moved_between_locate_and_prove(self):
        """The Chameleon twin: the run records ``c_0 || cnt``, and an
        insertion in between changes the second half."""
        from repro.core.chameleon_index import ChameleonView
        from tests.query.test_vo import store_tree

        tree = store_tree(range(10, 20))
        view = ChameleonView("kw", tree)
        around = view.boundaries(14)
        assert around == (14, 15)
        run = view.run()
        assert pickle.loads(pickle.dumps(run)).tree is None
        request = ProveRequest(run.keyword, run.root, run.keys)
        table = prove_keys(tree, request)
        assert isinstance(table, ChameleonMultiproof)
        assert [key for key, _ in table.leaves] == [14, 15]
        grown = store_tree(range(10, 21))
        with pytest.raises(StaleProofError):
            prove_keys(grown, request)
        with pytest.raises(StaleProofError):
            prove_keys(tree, dataclasses.replace(request, keys=(5, 11)))


_OPTIMIZED_SCRIPT = """
import sys
assert False, "asserts must be stripped in this run"
sys.path.insert(0, {tests_root!r})
from tests.core.test_locate_prove import (
    TestProveStepFailsClosed, TestUnfinishedVOFailsClosed,
)
for suite in (TestUnfinishedVOFailsClosed(), TestProveStepFailsClosed()):
    for name in dir(suite):
        if name.startswith("test_"):
            getattr(suite, name)()
print("closed")
"""


def test_fail_closed_checks_survive_python_O():
    """None of the guards above may be an ``assert``."""
    import pathlib

    repo = pathlib.Path(__file__).resolve().parents[2]
    result = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT.format(tests_root=str(repo))],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": str(repo / "src"), "PATH": ""},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "closed"
