"""A Merkle table is its wire bytes, and those bytes fail closed.

The tables are the ones the SMI and MI systems of
``tests/integration/test_query_bytes_pin.py`` ship for seeds 7–9 (its
corpus and query list) and the light-client tables of
a stored and of a missing slot.  Two properties:

* an honest body decodes to the reference codec's parts
  (``tests/reference_codec.py``) and re-encodes to the same bytes;
* every single-byte flip, truncation or inserted byte inside a table
  either makes the decoder raise :class:`~repro.errors.ReproError` or
  the client raise :class:`~repro.errors.VerificationError`.  Nothing
  else may escape, and nothing may verify.

A query table is mutated inside its ``VO_sp`` frame and read back by
``VOCodec.decode``; a light-client table, which travels on its
own, is read by ``TreeMultiproof.from_wire`` and must end where its
bytes do.  The checks raise on their own, so they hold under
``python -O`` too.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from functools import lru_cache

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import HybridStorageSystem, KeywordQuery
from repro.core.mbtree import MBTree
from repro.core.multiproof import TreeMultiproof
from repro.core.query.codec import VOCodec
from repro.core.query.verify import verify_query
from repro.core.query.vo import varint_size
from repro.crypto.hashing import sha3
from repro.errors import ReproError, VerificationError
from repro.ethereum.chain import Blockchain
from repro.ethereum.contract import SmartContract
from repro.ethereum.state import verify_storage_proof
from tests.integration.test_query_bytes_pin import QUERIES, corpus
from tests.reference_codec import merkle_parts, merkle_table


def require(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(what)


@dataclasses.dataclass(frozen=True)
class Case:
    """Bytes holding Merkle tables, and how a client reads them."""

    label: str
    #: The bytes as sent: a ``VO_sp`` frame, or one table's body.
    wire: bytes
    #: ``(start, end)`` of every table body inside ``wire``.
    spans: tuple[tuple[int, int], ...]
    #: Bytes -> the tables they decode to; raises ``ReproError``.
    decode: Callable[[bytes], tuple[TreeMultiproof, ...]]
    #: Accepts what it is handed or raises ``VerificationError``.
    verify: Callable[[bytes], object]


def _query_cases(scheme: str, seed: int) -> list[Case]:
    system = HybridStorageSystem(scheme=scheme, seed=seed)
    system.add_objects(corpus(seed))
    codec = VOCodec(value_bytes=system.value_bytes)
    cases = []
    for text in QUERIES:
        query = text if isinstance(text, KeywordQuery) else KeywordQuery.parse(text)
        answer = system.process_query(query)
        if not answer.vo.multiproofs:
            continue
        wire = codec.encode(answer.vo)
        spans = []
        at = 1 + varint_size(len(answer.vo.multiproofs))  # marker, count
        for table in answer.vo.multiproofs:
            at += 1  # the kind byte
            spans.append((at, at + table.byte_size()))
            at += table.byte_size()

        def verify(payload, query=query, answer=answer):
            forged = dataclasses.replace(answer, vo=codec.decode(payload))
            ps = system.chain_proof_system(query.all_keywords())
            return verify_query(query, forged, ps)

        cases.append(
            Case(
                f"{scheme}/{seed}: {query}",
                wire,
                tuple(spans),
                lambda payload: codec.decode(payload).multiproofs,
                verify,
            )
        )
    return cases


def read_table(body: bytes) -> TreeMultiproof:
    """One table on its own: framed, and nothing after it."""
    table, end = TreeMultiproof.from_wire(body, 0)
    if end != len(body):
        raise ReproError("bytes after the table")
    return table


def _table_case(label: str, table: TreeMultiproof, verify) -> Case:
    return Case(
        label,
        table.body,
        ((0, len(table.body)),),
        lambda body: (read_table(body),),
        lambda body: verify(read_table(body)),
    )


class _KV(SmartContract):
    def put(self, key: str, value: int) -> None:
        self.storage.store(("kv", key), value)


def _light_client_cases() -> list[Case]:
    chain = Blockchain(track_state=True)
    chain.deploy("kv", _KV())
    for index, key in enumerate("bdfhjlnp"):
        chain.send_transaction("a", "kv", "put", key, index + 1)
    root = chain.mine_block().header.state_root
    cases = []
    for key in ("f", "g"):  # stored, missing
        proof = chain.prove_storage("kv", ("kv", key))
        cases.append(
            _table_case(
                f"light client, slot {key!r}",
                proof.table,
                lambda table, proof=proof: verify_storage_proof(
                    root, dataclasses.replace(proof, table=table)
                ),
            )
        )
    return cases


@lru_cache(maxsize=None)
def all_cases() -> tuple[Case, ...]:
    cases = [
        case
        for scheme in ("mi", "smi")
        for seed in (7, 8, 9)
        for case in _query_cases(scheme, seed)
    ]
    return (*cases, *_light_client_cases())


def test_honest_bodies_are_the_reference_parts():
    for case in all_cases():
        tables = case.decode(case.wire)
        require(len(tables) == len(case.spans), f"{case.label}: tables lost")
        for table, (start, end) in zip(tables, case.spans):
            require(table.body == case.wire[start:end], f"{case.label}: span moved")
            parts = merkle_parts(table)
            require(
                merkle_table(parts).body == table.body,
                f"{case.label}: the parts re-encode to other bytes",
            )
            require(
                list(table.leaves) == list(parts.leaves),
                f"{case.label}: the rows read differently",
            )
        case.verify(case.wire)  # and the honest bytes verify


def mutants(draw, case: Case) -> bytes:
    start, end = draw(st.sampled_from(case.spans))
    wire = case.wire
    how = draw(st.sampled_from(("flip", "truncate", "insert")))
    if how == "flip":
        at = draw(st.integers(start, end - 1))
        mask = draw(st.integers(1, 0xFF))
        return wire[:at] + bytes((wire[at] ^ mask,)) + wire[at + 1 :]
    if how == "truncate":
        return wire[: draw(st.integers(start, end - 1))]
    at = draw(st.integers(start, end))
    return wire[:at] + bytes((draw(st.integers(0, 0xFF)),)) + wire[at:]


@settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(data=st.data())
def test_every_single_byte_mutant_fails_closed(data):
    case = data.draw(st.sampled_from(all_cases()))
    mutant = mutants(data.draw, case)
    try:
        case.decode(mutant)
    except ReproError:
        return
    try:
        case.verify(mutant)
    except VerificationError:
        return
    raise AssertionError(f"{case.label}: a mutated table verified")
