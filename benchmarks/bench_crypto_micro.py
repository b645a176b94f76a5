"""Micro-benchmarks for the cryptographic substrate.

Documents the performance asymmetry the paper leans on: CVC (pairing /
group-exponentiation) verification is orders of magnitude slower than
hashing, which is why Chameleon^inv* trades Bloom-filter words on-chain
for skipped CVC verifications at the client (Section V-D).
"""

import pytest

from repro.core import mbtree
from repro.core.chameleon import ChameleonTreeDO, ChameleonTreeSP
from repro.core.multiproof import TreeMultiproof
from repro.crypto import vc
from repro.crypto.hashing import sha3
from repro.crypto.prf import generate_key


@pytest.fixture(scope="module")
def cvc_pair():
    pp, td = vc.shared_test_params(3)
    return vc.ChameleonVectorCommitment(3, _pp=pp, _td=td)


def test_sha3_hash(benchmark):
    benchmark(sha3, b"x" * 64)


def test_cvc_verify(benchmark, cvc_pair):
    c, aux = cvc_pair.commit([b"m", None, None], randomiser=5)
    opening = cvc_pair.open_vector(aux)
    result = benchmark(vc.verify_vector, cvc_pair.pp, c, [b"m", None, None], opening)
    assert result


def test_cvc_collision(benchmark, cvc_pair):
    c, aux = cvc_pair.commit_empty(randomiser=5)

    def collide():
        return cvc_pair.collide(c, 1, None, b"m", aux, check=False)

    benchmark(collide)


def test_mbtree_append(benchmark):
    def build():
        tree = mbtree.MBTree(fanout=4)
        for key in range(200):
            tree.insert(key, sha3(b"%d" % key))
        return tree

    tree = benchmark(build)
    assert len(tree) == 200


def test_mbtree_membership_verify(benchmark):
    tree = mbtree.MBTree(fanout=4)
    for key in range(500):
        tree.insert(key, sha3(b"%d" % key))
    body = tree.multiproof([250]).body
    # A fresh table per round: the fold memoises its result per object,
    # so every round frames and re-hashes the 1-leaf table.
    root, _ = benchmark(lambda: TreeMultiproof(body).fold())
    assert root == tree.root_hash


def test_chameleon_membership_verify(benchmark, cvc_pair):
    do = ChameleonTreeDO(cvc_pair, generate_key(seed=1), "kw", arity=2)
    sp = ChameleonTreeSP(do.root_commitment, arity=2)
    for oid in range(1, 32):
        sp.apply_insertion(do.insert(oid, sha3(b"%d" % oid)))
    table = sp.multiproof((20,))

    def check(position, node, children):
        return vc.verify_vector(cvc_pair.pp, *table.statement(node, children))

    positions, _ = benchmark(table.authenticate, check, do.root_commitment, sp.count)
    assert positions == [20]


def test_hash_vs_cvc_gap(cvc_pair):
    """The motivating claim: CVC verify >> hash, by orders of magnitude."""
    import time

    c, aux = cvc_pair.commit([b"m", None, None], randomiser=5)
    opening = cvc_pair.open_vector(aux)
    t0 = time.perf_counter()
    for _ in range(200):
        sha3(b"x" * 64)
    hash_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(200):
        vc.verify_vector(cvc_pair.pp, c, [b"m", None, None], opening)
    cvc_time = time.perf_counter() - t0
    assert cvc_time > 20 * hash_time
