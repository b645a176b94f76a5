"""Whole-table recall gives what the cold check gave.

A table the verification cache remembers is not checked again: the
Chameleon proof system re-reads its rows from the structure the codec
already scanned, and ``open_table`` takes a Merkle table's leaf counts
from the cache instead of folding it.  For any tree of 1–40 entries and
any set of read positions, the view a recalled table opens to must be
the one its cold check opened to: the same proven entries and the same
gap counts, which decide every adjacency answer the join gets.

Arities: a Chameleon node table's flag byte holds at most 7 child bits
and an MB-tree node at least 3 children, so the Chameleon trees take
arities {2, 3, 7} and the MB-trees fanouts {3, 4, 16}.  The checks raise
on their own, so they hold under ``python -O`` too.
"""

from __future__ import annotations

import pickle
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.chameleon import ChameleonMultiproof, ChameleonTreeSP
from repro.core.chameleon_index import ChameleonProofSystem
from repro.core.mbtree import MBTree
from repro.core.multiproof import TreeMultiproof, open_table
from repro.core.proofcache import VerificationCache
from repro.core.query.codec import VOCodec
from repro.core.query.vo import QueryVO
from repro.crypto.hashing import sha3
from repro.errors import VerificationError
from tests.core.test_chameleon_properties import _IDS, grown
from tests.reference_codec import forge_merkle, merkle_parts


def require(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(what)


def refuse_call(name: str):
    def call(*_args, **_kwargs):
        raise AssertionError(f"a recalled table ran {name}")

    return call


def opened(ps: ChameleonProofSystem, table: ChameleonMultiproof):
    """Open ``table`` in one scope and read every row; ``(leaves, gaps)``."""
    ps.attach_multiproofs((table,))
    with ps.settling():
        run = ps.proven_run("kw", 0)
        seen = (list(run.leaves), run._gaps)
        run._read[:] = b"\x01" * len(run._read)
    return seen


def received(table: ChameleonMultiproof) -> ChameleonMultiproof:
    """The same table as a client receives it: a fresh object from the codec."""
    codec = VOCodec(value_bytes=table.value_bytes)
    frame = codec.encode(QueryVO(conjuncts=(), multiproofs=(table,)))
    return codec.decode(frame).multiproofs[0]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    arity=st.sampled_from((2, 3, 7)),
    size=st.integers(1, len(_IDS)),
    data=st.data(),
)
def test_recalled_node_table_opens_like_a_cold_one(arity, size, data):
    shown = sorted(data.draw(st.sets(st.integers(1, size), min_size=1, max_size=12)))
    pp, root, blobs = grown(arity)
    table = ChameleonTreeSP.from_blob(blobs[size]).multiproof(tuple(shown))
    cache = VerificationCache()
    ps = ChameleonProofSystem(
        pp=pp, digests={"kw": (root, size)}, arity=arity, value_bytes=64, cache=cache
    )
    cold = opened(ps, received(table))
    ids = _IDS[:size]
    require(
        cold[0] == [(ids[p - 1], sha3(b"%d" % ids[p - 1])) for p in shown],
        "the cold table opened to other entries",
    )
    hits, misses, stored = cache.hits, cache.misses, len(cache)
    again = received(table)
    with mock.patch.object(
        ChameleonMultiproof, "authenticate", refuse_call("authenticate")
    ), mock.patch.object(ChameleonMultiproof, "statement", refuse_call("statement")):
        warm = opened(ps, again)
    require(warm == cold, "a recalled table opened to another view")
    require(cache.misses == misses, "a recalled table counted a miss")
    require(
        cache.hits - hits == len(again.rows()),
        "a recalled table counts one hit per node",
    )
    require(len(cache) == stored, "a recall stored a statement")


_MERKLE = {}


def mbtree(fanout: int, size: int) -> MBTree:
    if (fanout, size) not in _MERKLE:
        tree = MBTree(fanout=fanout)
        for object_id in _IDS[:size]:
            tree.insert(object_id, sha3(b"%d" % object_id))
        _MERKLE[fanout, size] = tree
    return _MERKLE[fanout, size]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    fanout=st.sampled_from((3, 4, 16)),
    size=st.integers(1, len(_IDS)),
    data=st.data(),
)
def test_recalled_merkle_table_opens_like_its_fold(fanout, size, data):
    keys = sorted(
        data.draw(st.sets(st.sampled_from(_IDS[:size]), min_size=1, max_size=12))
    )
    tree = mbtree(fanout, size)
    table = tree.multiproof(tuple(keys))
    digest, before = forge_merkle(table).fold()
    require(digest == tree.root_hash, "an honest table folds to its root")
    cache = VerificationCache()
    cold = open_table(forge_merkle(table), tree.root_hash, "kw", cache=cache)
    with mock.patch.object(TreeMultiproof, "fold", refuse_call("fold")):
        warm = open_table(forge_merkle(table), tree.root_hash, "kw", cache=cache)
    require(
        warm._gaps == cold._gaps == (0, *before, len(merkle_parts(table).helpers)),
        "a recalled table opened with other leaf counts",
    )
    require(list(warm.leaves) == list(cold.leaves), "a recalled table's leaves moved")
    require((cache.hits, cache.misses) == (1, 1), "one fold, then one recall")


def test_a_pickled_table_ships_only_its_wire_fields():
    """What a table memoises about itself stays in its process.

    A Merkle table whose fold memo claims another tree's root is pickled
    and unpickled: the copy holds its body alone, folds afresh and is
    refused under that root.  A node table's row scan stays behind the
    same way.
    """
    honest, other = mbtree(4, 30), mbtree(4, 31)
    table = honest.multiproof((_IDS[3], _IDS[9]))
    _, before = table.fold()
    table.cache_token()
    require(table.leaves, "the table has rows")
    object.__setattr__(table, "_walked", (other.root_hash, before))
    shipped = pickle.loads(pickle.dumps(table, protocol=pickle.HIGHEST_PROTOCOL))
    require(shipped == table, "pickling changed the table")
    require(vars(shipped).keys() == {"body"}, "a memo crossed the pickle")
    with pytest.raises(VerificationError, match="on-chain root"):
        open_table(shipped, other.root_hash, "kw")
    require(
        open_table(shipped, honest.root_hash, "kw")._gaps[1:-1] == before,
        "the shipped table folds like the honest one",
    )

    pp, root, blobs = grown(3)
    node_table = ChameleonTreeSP.from_blob(blobs[5]).multiproof((1, 4))
    rows = node_table.rows()
    object.__setattr__(node_table, "_rows", rows[:1])
    shipped = pickle.loads(pickle.dumps(node_table, protocol=pickle.HIGHEST_PROTOCOL))
    require(
        vars(shipped).keys() == {"arity", "value_bytes", "count", "body"},
        "a memo crossed the pickle",
    )
    require(shipped.rows() == rows, "the shipped node table scans its own rows")
