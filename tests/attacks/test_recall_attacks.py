"""Attacks on whole-table recall.

The verification cache remembers a Chameleon node table under
``(modulus, c_0, cnt, cache_token())`` and a Merkle table under ``(root,
cache_token())``, and a table met again under that key is not checked
again.  Each attack below presents an honest, cached table under
something else — another keyword's ``c_0``, a stale ``cnt``, another
modulus or arity, another root — or the table with one byte flipped:
each must miss the table key, go the cold way and be refused, and leave
nothing new in the cache.  Every attack runs cold and after the honest
table has been recalled once.  The checks raise on their own, so they
hold under ``python -O`` too.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import HybridStorageSystem, KeywordQuery
from repro.core.chameleon import ChameleonMultiproof
from repro.core.multiproof import TreeMultiproof
from repro.core.query.codec import VOCodec
from repro.core.query.verify import verify_query
from repro.crypto import vc
from repro.errors import ReproError, VerificationError
from tests.attacks.test_chameleon_attacks import _fill, honest_answer
from tests.node_tables import change, forge, with_table
from tests.reference_codec import forge_merkle, merkle_parts

SCAN = "covid-19"
OTHER = "symptom"
JOIN = "covid-19 AND vaccine"


def require(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(what)


@pytest.fixture(scope="module")
def ci_system():
    system = HybridStorageSystem(scheme="ci", cvc_modulus_bits=512, seed=5)
    _fill(system)
    return system


@pytest.fixture(scope="module")
def smi_system():
    system = HybridStorageSystem(scheme="smi", seed=5)
    _fill(system)
    return system


class Checks:
    """Counts the cold checks a table gets: a recalled one gets none."""

    def __init__(self, monkeypatch, cls, name):
        self.count = 0
        real = getattr(cls, name)

        def spy(table, *args, **kwargs):
            self.count += 1
            return real(table, *args, **kwargs)

        monkeypatch.setattr(cls, name, spy)


@pytest.fixture()
def authentications(monkeypatch):
    return Checks(monkeypatch, ChameleonMultiproof, "authenticate")


@pytest.fixture()
def folds(monkeypatch):
    return Checks(monkeypatch, TreeMultiproof, "fold")


def prepare(system, checks, state):
    """Empty the cache; when ``warm``, verify the honest scan cold, then
    recalled (a fresh answer: the same bytes in a new table object)."""
    system.verify_cache.clear()
    if state == "warm":
        verify_query(*honest_answer(system, SCAN))
        before = checks.count
        verify_query(*honest_answer(system, SCAN))
        require(checks.count == before, "the honest table was not recalled")


def refused(system, checks, query, answer, ps, *, cold: bool = True) -> None:
    """Verification fails, stores nothing, and (``cold``) checked the table."""
    entries = set(system.verify_cache._entries)
    before = checks.count
    with pytest.raises(ReproError):
        verify_query(query, answer, ps)
    require(set(system.verify_cache._entries) == entries, "a refusal was cached")
    if cold:
        require(checks.count > before, "the forged table was recalled")


STATES = pytest.mark.parametrize("state", ["cold", "warm"])


@STATES
class TestChameleonRecall:
    def test_identical_table_under_another_keywords_root(
        self, ci_system, authentications, state
    ):
        prepare(ci_system, authentications, state)
        query, answer, ps = honest_answer(ci_system, SCAN)
        other_root, _ = ci_system.chain_proof_system(frozenset({OTHER})).digests[OTHER]
        _, count = ps.digests[SCAN]
        ps.digests[SCAN] = (other_root, count)
        refused(ci_system, authentications, query, answer, ps)

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_stale_count(self, ci_system, authentications, state, shift):
        prepare(ci_system, authentications, state)
        query, answer, ps = honest_answer(ci_system, SCAN)
        root, count = ps.digests[SCAN]
        ps.digests[SCAN] = (root, count + shift)
        refused(ci_system, authentications, query, answer, ps)

    def test_another_modulus(self, ci_system, authentications, state):
        prepare(ci_system, authentications, state)
        query, answer, ps = honest_answer(ci_system, SCAN)
        pp, _ = vc.shared_test_params(ps.arity + 1, seed=8)
        require(pp.modulus != ps.pp.modulus, "a second modulus")
        other = dataclasses.replace(ps, pp=pp)
        refused(ci_system, authentications, query, answer, other)

    def test_another_arity(self, ci_system, authentications, state):
        prepare(ci_system, authentications, state)
        query, answer, ps = honest_answer(ci_system, SCAN)
        table = answer.vo.multiproofs[0]
        wider = dataclasses.replace(table, arity=table.arity + 1)
        require(wider.cache_token() != table.cache_token(), "arity is in the token")
        with_table(answer, 0, wider)
        # The scheme's arity check comes first: nothing is authenticated.
        refused(ci_system, authentications, query, answer, ps, cold=False)

    def test_every_flipped_byte(self, ci_system, authentications, state):
        prepare(ci_system, authentications, state)
        honest = honest_answer(ci_system, SCAN)[1].vo.multiproofs[0]
        # Warm, every byte; cold, a spread of them (each costs a batch).
        step = 1 if state == "warm" else 37
        for offset in range(0, len(honest.body), step):
            body = bytearray(honest.body)
            body[offset] ^= 0x01
            query, answer, ps = honest_answer(ci_system, SCAN)
            with_table(answer, 0, dataclasses.replace(honest, body=bytes(body)))
            # A flip in the structure is refused before any key exists.
            refused(ci_system, authentications, query, answer, ps, cold=False)

    def test_failed_batch_caches_neither_nodes_nor_the_table(
        self, ci_system, authentications, state
    ):
        prepare(ci_system, authentications, state)
        verify_query(*honest_answer(ci_system, JOIN))  # some nodes cached
        query, answer, ps = honest_answer(ci_system, SCAN)
        table = answer.vo.multiproofs[0]
        with_table(
            answer,
            0,
            forge(table, {3: lambda row: change(opening=row.opening ^ 1)(row)}),
        )
        refused(ci_system, authentications, query, answer, ps)


class TestMerkleRecall:
    @STATES
    def test_identical_table_under_another_root(self, smi_system, folds, state):
        prepare(smi_system, folds, state)
        query, answer, ps = honest_answer(smi_system, SCAN)
        ps.roots[SCAN] = smi_system.chain_proof_system(frozenset({OTHER})).roots[OTHER]
        refused(smi_system, folds, query, answer, ps)

    @STATES
    def test_every_flipped_leaf_and_helper_byte(self, smi_system, folds, state):
        prepare(smi_system, folds, state)
        honest = honest_answer(smi_system, SCAN)[1].vo.multiproofs[0]
        forgeries = []
        for i, (object_id, object_hash) in enumerate(honest.leaves):
            for offset in range(len(object_hash)):
                flipped = bytearray(object_hash)
                flipped[offset] ^= 0x01
                leaves = list(honest.leaves)
                leaves[i] = (object_id, bytes(flipped))
                forgeries.append(forge_merkle(honest, leaves=tuple(leaves)))
            leaves = list(honest.leaves)
            leaves[i] = (object_id ^ 1, object_hash)
            forgeries.append(forge_merkle(honest, leaves=tuple(leaves)))
        honest_helpers = merkle_parts(honest).helpers
        for i, helper in enumerate(honest_helpers):
            flipped = bytearray(helper)
            flipped[0] ^= 0x01
            helpers = honest_helpers[:i] + (bytes(flipped),) + honest_helpers[i + 1 :]
            forgeries.append(forge_merkle(honest, helpers=helpers))
        require(forgeries, "the scan table has leaves")
        for forged in forgeries:
            query, answer, ps = honest_answer(smi_system, SCAN)
            with_table(answer, 0, forged)
            refused(smi_system, folds, query, answer, ps)


@pytest.mark.parametrize("scheme", ["ci", "ci*", "smi"])
def test_disabled_cache_gives_identical_results(scheme):
    """``verify_cache_size=0`` changes nothing a query returns."""
    systems = [
        HybridStorageSystem(
            scheme=scheme, cvc_modulus_bits=512, seed=5, verify_cache_size=size
        )
        for size in (0, 4096)
    ]
    codecs = []
    for system in systems:
        _fill(system)
        codecs.append(VOCodec(value_bytes=system.value_bytes))
    for text in (SCAN, JOIN, SCAN, f"{SCAN} OR {OTHER}", JOIN):
        query = KeywordQuery.parse(text)
        outcomes = []
        for system, codec in zip(systems, codecs):
            answer = system.process_query(query)
            result = system.query(text)
            outcomes.append(
                (
                    result.result_ids,
                    {oid: obj.encoded() for oid, obj in result.objects.items()},
                    codec.encode(answer.vo),
                )
            )
        require(outcomes[0] == outcomes[1], f"{text!r}: the cache changed the answer")
    require(systems[0].verify_cache is None, "size 0 builds no cache")
    require(len(systems[1].verify_cache) > 0, "the other system cached")


def test_failed_batch_leaves_an_empty_cache_empty(ci_system):
    ci_system.verify_cache.clear()
    query, answer, ps = honest_answer(ci_system, SCAN)
    with_table(
        answer,
        0,
        forge(
            answer.vo.multiproofs[0],
            {1: lambda row: change(opening=row.opening ^ 1)(row)},
        ),
    )
    with pytest.raises(VerificationError):
        verify_query(query, answer, ps)
    require(len(ci_system.verify_cache._entries) == 0, "a failed batch was cached")
