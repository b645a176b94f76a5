"""The VO structures of the retired wire frames (v2–v5), as plain data.

Until PR 22 the Chameleon family shipped the SP's account of its join
walk — rounds of entries with a proof each — and older frames did the
same for the Merkle family.  Nothing in ``src/`` writes, reads or
verifies those shapes any more; ``tests/reference_codec.py`` still
decodes the committed golden frames into them (and re-encodes them byte
for byte), which is all these classes are for: fields, no behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LeafRef:
    """v3: an entry's proof is leaf ``ordinal`` of table ``proof_index``."""

    proof_index: int
    ordinal: int


@dataclass(frozen=True)
class ChameleonLink:
    """v2: one parent-child edge of a membership proof."""

    child_index: int
    child_commitment: int
    proof: int


@dataclass(frozen=True)
class MembershipProof:
    """v2: a per-entry CVC membership proof (links run bottom-up)."""

    position: int
    entry_commitment: int
    slot1_proof: int
    links: tuple[ChameleonLink, ...]


@dataclass(frozen=True)
class ChameleonNode:
    """v4: one row of a node table (no entry rows yet)."""

    position: int
    commitment: int
    link_proof: int


@dataclass(frozen=True)
class NodeTable:
    """v4: a keyword tree's shared ancestors, ascending and parent-closed."""

    arity: int
    nodes: tuple[ChameleonNode, ...]

    def positions(self) -> set[int]:
        """The positions present; raises ``ValueError`` on a malformed table."""
        seen: set[int] = set()
        previous = 0
        for node in self.nodes:
            parent = (node.position - 1) // self.arity if self.arity else -1
            if node.position <= previous or (parent and parent not in seen):
                raise ValueError("node table is not ascending and parent-closed")
            seen.add(node.position)
            previous = node.position
        return seen


@dataclass(frozen=True)
class NodeRef:
    """v4: an entry's proof is a row of a node table plus its slot-1 opening."""

    table_index: int
    position: int
    slot1_proof: int


@dataclass(frozen=True)
class ProvenEntry:
    """v2–v4: an ``<id, h(o)>`` entry written with its own proof."""

    object_id: int
    object_hash: bytes
    proof: object


@dataclass(frozen=True)
class JoinRound:
    """v2–v4: one round of the walk (``kind`` is ``"probe"`` or ``"skip"``)."""

    kind: str
    probe_tree: int = 0
    lower: ProvenEntry | None = None
    upper: ProvenEntry | None = None
    next_target: ProvenEntry | None = None


@dataclass(frozen=True)
class MultiWayJoinVO:
    """v2–v4: the k-way walk written down."""

    trees: tuple[str, ...]
    first_target: ProvenEntry
    rounds: tuple[JoinRound, ...]


@dataclass(frozen=True)
class FullScanVO:
    """v2–v4: a whole posting list, entry by entry."""

    keyword: str
    entries: tuple[ProvenEntry, ...]


@dataclass(frozen=True)
class SemiJoinProbe:
    """v2–v4: one candidate probed in a later tree."""

    candidate_id: int
    bloom_absent: bool = False
    lower: ProvenEntry | None = None
    upper: ProvenEntry | None = None


@dataclass(frozen=True)
class SemiJoinStage:
    """v2–v4: all probes of one additional keyword tree."""

    keyword: str
    probes: tuple[SemiJoinProbe, ...]


@dataclass(frozen=True)
class RoundsConjunctVO:
    """v2–v4: one conjunctive component with its rounds and stages."""

    keywords: tuple[str, ...]
    base: MultiWayJoinVO | FullScanVO | None = None
    stages: tuple[SemiJoinStage, ...] = ()
    empty_keyword: str | None = None
