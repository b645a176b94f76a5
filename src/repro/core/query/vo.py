"""Verification-object (VO) structures.

The SP answers a query with the results plus ``VO_sp``; the client
combines it with the authenticated digests ``VO_chain`` read from the
blockchain.  ``VO_sp`` has one shape for every scheme: a list of proof
*tables*, one per keyword tree the query read — a
:class:`~repro.core.multiproof.TreeMultiproof` (Merkle family) or a
:class:`~repro.core.chameleon.ChameleonMultiproof` node table (Chameleon
family) — and, per conjunctive component, a :class:`ReplayVO` naming
the tables the client re-runs the join over.  There is no account of the
SP's walk: no rounds, no per-entry proofs.

Every structure reports its serialised byte size — the paper's "VO size"
metric (Figs. 11–13) — via ``byte_size()``, which is the length of its
encoding (tables know their own element width).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Literal

from repro.errors import ReproError, UnresolvedProofError


def varint_size(value: int) -> int:
    """Bytes of the codec's LEB128 varint encoding."""
    size = 1
    while value >= 0x80:
        value >>= 7
        size += 1
    return size


@dataclass(frozen=True)
class ProvenEntry:
    """One ``<id, h(o)>`` row of a proof table, as the VO carries it."""

    object_id: int
    object_hash: bytes


@dataclass(frozen=True)
class ReplayVO:
    """VO of a join or scan: the tables the client re-runs it over.

    ``trees`` lists the component's keywords in the order the SP walked
    them and ``plan`` names the walk (``"cyclic"`` also covers the
    one-tree scan and every two-tree join).  ``runs[i]`` says where the
    entries the walk read from ``trees[i]`` are proven: an index into
    :attr:`QueryVO.multiproofs`, or ``None`` when the walk ended before
    it read that tree.  The client authenticates each table against the
    on-chain digest, calls the same
    :func:`~repro.core.query.join.conjunctive_join` over them and takes
    the result from it; the SP sends no account of the walk.

    On the SP, between the join and the prove step, a run is still a
    :class:`~repro.core.multiproof.LocatedRun` (tree state, keys, live
    tree).  Such a VO is unfinished: sizing, encoding or verifying it
    fails closed.
    """

    plan: Literal["cyclic", "semijoin"]
    trees: tuple[str, ...]
    runs: tuple[object, ...]

    def tables(self) -> Iterator[int]:
        """The table indices named, in tree order; refuses located runs."""
        for tree, run in zip(self.trees, self.runs):
            if run is None:
                continue
            if not isinstance(run, int):
                raise UnresolvedProofError(
                    f"the entries read from keyword {tree!r} were located "
                    "but never proven; run compress_query_vo first"
                )
            yield run

    def byte_size(self) -> int:
        """Exact wire size: per tree a keyword index and a table slot."""
        unread = sum(1 for run in self.runs if run is None)
        return 2 * unread + sum(1 + varint_size(t + 1) for t in self.tables())


@dataclass(frozen=True)
class ConjunctiveVO:
    """VO for one conjunctive component ``w_1 ^ ... ^ w_l``.

    Exactly one of: ``empty_keyword`` set — some queried keyword has no
    objects, which the client confirms against ``VO_chain`` — or
    ``base`` a :class:`ReplayVO` (scan or join, either plan).
    """

    keywords: tuple[str, ...]
    base: ReplayVO | None = None
    empty_keyword: str | None = None

    def byte_size(self) -> int:
        """Exact wire size: keyword count and names, kind tag, body."""
        total = 2 + sum(len(k.encode("utf-8")) + 1 for k in self.keywords)
        if self.empty_keyword is not None:
            total += len(self.empty_keyword.encode("utf-8")) + 1
        if self.base is not None:
            total += self.base.byte_size()
        return total


def iter_proven_entries(vo: "QueryVO") -> Iterator[ProvenEntry]:
    """Yield the ``<id, h(o)>`` rows a VO proves, conjunct by conjunct.

    For each table a conjunct names, in tree then key order: the leaves
    of a Merkle multiproof, the entry rows of a Chameleon node table.
    A table two conjuncts name is yielded under both.
    """
    for conj in vo.conjuncts:
        if conj.base is None:
            continue
        for table in conj.base.tables():
            if not 0 <= table < len(vo.multiproofs):
                raise ReproError(f"conjunct names table {table}, which the VO lacks")
            for object_id, object_hash in vo.multiproofs[table].leaves:
                yield ProvenEntry(object_id, object_hash)


@dataclass(frozen=True)
class QueryVO:
    """``VO_sp``: the full verification object for a DNF query.

    ``multiproofs`` holds the proof tables, one per ``(tree,
    commitment)`` the query read, each named whole by the conjuncts
    that read it.
    """

    conjuncts: tuple[ConjunctiveVO, ...]
    multiproofs: tuple = ()

    def byte_size(self) -> int:
        """Exact wire size: ``len(VOCodec.encode(self))``.

        Marker, table count, one kind tag per table, the tables, the
        conjunct count and the conjuncts.
        """
        return (
            2
            + varint_size(len(self.multiproofs))
            + sum(1 + table.byte_size() for table in self.multiproofs)
            + sum(conj.byte_size() for conj in self.conjuncts)
        )

    def proof_byte_size(self) -> int:
        """Proof-only bytes: the tables without their ``id + hash`` rows.

        Excludes the structural framing (IDs, hashes, keywords), so the
        ``vo_proof_bytes`` bench metric counts what authenticates the
        entries, not the entries.
        """
        return sum(
            table.byte_size() - 40 * len(table.leaves)
            for table in self.multiproofs
        )


@dataclass
class QueryAnswer:
    """What the SP returns: result IDs, the raw objects, and ``VO_sp``."""

    result_ids: list[int]
    objects: dict[int, object]  # id -> DataObject
    vo: QueryVO

    def vo_byte_size(self) -> int:
        """Serialised VO size in bytes."""
        return self.vo.byte_size()


@dataclass
class VOStatistics:
    """Aggregate accounting for experiments (VO size split by origin)."""

    sp_bytes: int = 0
    chain_bytes: int = 0
    extra: dict[str, int] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        """Combined byte count."""
        return self.sp_bytes + self.chain_bytes
