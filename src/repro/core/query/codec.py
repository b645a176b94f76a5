"""Binary wire codec for verification objects.

``VO_sp`` travels from the SP to the client; the paper's VO-size metric
(Figs. 11–13) is the serialised byte count.  This codec provides the
canonical wire format — a compact tagged binary encoding — and is used
by the system facade to report *exact* VO sizes rather than estimates.

Format notes: integers are big-endian; group elements (CVC commitments
and proofs) occupy the scheme's fixed ``value_bytes`` width; variable
counts use 2-byte lengths (a 65,535-element bound per list is ample for
any VO this system emits).

Frame versions
--------------
A *v2* frame (the legacy format) starts directly with the one-byte
conjunct count.  A *v3* frame starts with the marker byte ``0xF3``
followed by the deduplicated multiproof table, then the conjuncts with
:class:`~repro.core.query.vo.LeafRef` proofs referencing the table
(their ``id``/``hash`` fields are omitted on the wire and reconstructed
from the table's leaf entries).  A *v4* frame (marker ``0xF4``) is the
Chameleon family's compressed form: each table is preceded by a kind
byte — a Merkle multiproof as in v3, or a
:class:`~repro.core.chameleon.ChameleonMultiproof` node table (arity,
then one ``position, commitment, parent-link proof`` row per node,
ascending) — and entries carry
:class:`~repro.core.chameleon.NodeRef` proofs (``id``, ``hash``, table
index, position, slot-1 opening).  Child indices and parent pointers
are not on the wire: they are BFS arithmetic on the position.

A *v5* frame (marker ``0xF5``) is the Merkle family's: the tables, in
the v3 encoding, and conjuncts that carry no entry and no round at all
(:class:`~repro.core.query.vo.ReplayVO`)::

    0xF5 || varint n || table * n || u8 m || conjunct * m
    conjunct   u8 k || keyword * k || kind
               kind 0 (a keyword is empty)   || keyword
               kind 1 (cyclic), 2 (semijoin) || (u8 keyword index || varint slot) * k

The ``k`` pairs list the component's keywords in the order the SP
walked them (a permutation of ``0..k-1``); ``slot`` is ``0`` when the
walk read nothing from that tree, else the table's index plus one.  A
one-keyword component is a scan (kind 1, one pair).  The client re-runs
the join over the tables, so nothing the SP could say about its walk is
on the wire.

The encoder emits the oldest frame that can carry the VO: v2 when there
is no table, v4 for Chameleon node tables, v5 for replayed Merkle
conjuncts.  v3 is read-only — what an SP of that vintage sent still
decodes and verifies, but ``LeafRef`` entries are no longer written.
The reader sniffs the first byte — any value ``>= 0xF0`` announces a
versioned frame (DNF queries never carry 240+ conjuncts, so the ranges
cannot collide) — and therefore decodes all four; unknown version
markers raise :class:`~repro.errors.ReproError`, which the SP protocol
maps to ``ERR_BAD_REQUEST``.

The decoder fails closed: whatever the bytes, the only exception that
leaves :meth:`VOCodec.decode` is a :class:`~repro.errors.ReproError`,
and one-byte flags and tags accept exactly the values the encoder
writes.  A node table that is unsorted, repeats a position or lacks an
ancestor, and a ref to a table or node that is not there, are rejected
here, before any verification runs; so are, in a v5 conjunct, a keyword
list that is not a permutation and a slot beyond the tables.

There is one reader, :class:`~repro.core.wire.Reader` (shared with
:mod:`repro.sp.protocol`): the received ``bytes`` plus an offset, so a
frame is parsed in one forward pass without copying it into a stream.
Runs of fixed-width fields — a multiproof's helper digests and its
``(id, hash)`` leaf rows, a node row's two group elements — are
bounds-checked and sliced as one; a node's 2-bit slot codes are looked
up four at a time.  Truncation, flag bytes outside ``{0, 1}``, non-zero
padding bits, oversized varints and trailing bytes are all the reader's
or this module's explicit checks, none of them an ``assert``.
"""

from __future__ import annotations

import struct

from repro.core.chameleon import (
    ChameleonLink,
    ChameleonMultiproof,
    ChameleonNode,
    MembershipProof,
    NodeRef,
)
from repro.core.mbtree import MerklePath, PathStep
from repro.core.multiproof import TreeMultiproof
from repro.core.query.vo import (
    ConjunctiveVO,
    FullScanVO,
    JoinRound,
    LeafRef,
    MultiWayJoinVO,
    ProvenEntry,
    QueryVO,
    ReplayVO,
    SemiJoinProbe,
    SemiJoinStage,
)
from repro.core.wire import U8, Reader, put_varint, read_varint
from repro.errors import ReproError

_PROOF_NONE = 0
_PROOF_MERKLE = 1
_PROOF_CVC = 2
_PROOF_LEAFREF = 3
_PROOF_NODEREF = 4

_TABLE_MERKLE = 0
_TABLE_CHAMELEON = 1

_BASE_NONE = 0
_BASE_MULTIWAY = 1
_BASE_FULLSCAN = 2

#: Kind byte of a v5 conjunct: an empty keyword, or the plan to replay.
_KIND_EMPTY = 0
_KIND_OF_PLAN = {"cyclic": 1, "semijoin": 2}
_PLAN_OF_KIND = {kind: plan for plan, kind in _KIND_OF_PLAN.items()}

#: First byte of a versioned frame; ``0xF0 | version`` (v2 is the
#: unmarked legacy layout).
_VERSION_BASE = 0xF0
_VERSIONS = (2, 3, 4, 5)

#: One multiproof leaf row: ``id(8) || hash(32)``.
_LEAF_ROW = struct.Struct(">Q32s")

#: The four 2-bit slot codes a packed byte holds, low bits first.
_SLOT_CODES = tuple(
    tuple((byte >> shift) & 0x3 for shift in (0, 2, 4, 6))
    for byte in range(256)
)

_WHAT = "VO payload"
_TRUNCATED = f"truncated {_WHAT}"


def _put_uint(out: bytearray, value: int, width: int) -> None:
    out += value.to_bytes(width, "big")


def _put_string(out: bytearray, text: str) -> None:
    encoded = text.encode("utf-8")
    if len(encoded) > 0xFF:
        raise ReproError("keyword too long for wire format")
    out.append(len(encoded))
    out += encoded


class VOCodec:
    """Encoder/decoder bound to one scheme's group-element width.

    ``version`` selects the frame the *encoder* emits: ``None`` (the
    default) auto-selects the oldest frame that can carry the VO — the
    byte-identical legacy v2 layout without tables, v4 with Chameleon
    node tables, v5 for replayed Merkle conjuncts; a pinned version
    always emits that frame and refuses a VO it cannot carry.  The
    decoder is version-agnostic and reads v2 to v5.
    """

    def __init__(
        self, value_bytes: int = 128, version: int | None = None
    ) -> None:
        if value_bytes <= 0:
            raise ReproError("value_bytes must be positive")
        if version is not None and version not in _VERSIONS:
            raise ReproError(f"unsupported VO codec version {version}")
        self.value_bytes = value_bytes
        self.version = version

    # -- multiproofs --------------------------------------------------------------

    @staticmethod
    def _write_multiproof(out: bytearray, mp: TreeMultiproof) -> None:
        out.append(mp.height)
        put_varint(out, len(mp.nodes))
        for codes in mp.nodes:
            put_varint(out, len(codes))
            packed = bytearray((len(codes) + 3) // 4)
            for slot, code in enumerate(codes):
                if not 0 <= code <= 3:
                    raise ReproError(f"cannot encode slot code {code}")
                packed[slot // 4] |= code << ((slot % 4) * 2)
            out += packed
        put_varint(out, len(mp.helpers))
        for digest in mp.helpers:
            if len(digest) != 32:
                raise ReproError("multiproof helper is not a 32-byte digest")
        out += b"".join(mp.helpers)
        put_varint(out, len(mp.leaves))
        for object_id, object_hash in mp.leaves:
            if len(object_hash) != 32:
                raise ReproError("multiproof leaf hash is not 32 bytes")
            out += _LEAF_ROW.pack(object_id, object_hash)

    @staticmethod
    def _read_multiproof(r: Reader) -> TreeMultiproof:
        height = r.u8()
        count = r.varint()
        buf = r.buf
        pos = r.pos
        nodes = []
        for _ in range(count):
            width, pos = read_varint(buf, pos)
            if width > 0xFFFF:
                raise ReproError("oversized multiproof node width")
            end = pos + (width + 3) // 4
            if end > len(buf):
                raise ReproError(_TRUNCATED)
            if width % 4 and buf[end - 1] >> (width % 4 * 2):
                raise ReproError("non-zero padding in multiproof slot codes")
            codes = [
                code for byte in buf[pos:end] for code in _SLOT_CODES[byte]
            ]
            if 3 in codes:
                raise ReproError("invalid multiproof slot code")
            nodes.append(tuple(codes[:width]))
            pos = end
        r.pos = pos
        helpers = r.chunks(r.varint(), 32)
        leaves = tuple(r.rows(_LEAF_ROW, r.varint()))
        return TreeMultiproof(
            height=height,
            nodes=tuple(nodes),
            helpers=helpers,
            leaves=leaves,
        )

    def _write_node_table(
        self, out: bytearray, table: ChameleonMultiproof
    ) -> None:
        table.index()  # a malformed table is refused, not shipped
        width = self.value_bytes
        out.append(table.arity)
        put_varint(out, len(table.nodes))
        for node in table.nodes:
            put_varint(out, node.position)
            out += node.commitment.to_bytes(width, "big")
            out += node.link_proof.to_bytes(width, "big")

    def _read_node_table(self, r: Reader) -> ChameleonMultiproof:
        arity = r.u8()
        count = r.varint()
        width = self.value_bytes
        buf = r.buf
        pos = r.pos
        if count * (1 + 2 * width) > len(buf) - pos:
            raise ReproError("node table longer than the VO payload")
        nodes = []
        for _ in range(count):
            position = buf[pos]
            pos += 1
            if position > 0x7F:
                position, pos = read_varint(buf, pos - 1)
            middle = pos + width
            end = middle + width
            if end > len(buf):
                raise ReproError(_TRUNCATED)
            nodes.append(
                ChameleonNode(
                    position,
                    int.from_bytes(buf[pos:middle], "big"),
                    int.from_bytes(buf[middle:end], "big"),
                )
            )
            pos = end
        r.pos = pos
        table = ChameleonMultiproof(arity=arity, nodes=tuple(nodes))
        table.index()  # sorted, duplicate-free, parent-closed — or raises
        return table

    # -- proofs ------------------------------------------------------------------

    @staticmethod
    def _write_merkle_path(out: bytearray, path: MerklePath) -> None:
        out.append(len(path.steps))
        for step in path.steps:
            _put_uint(out, step.index, 2)
            out.append(len(step.before))
            out += b"".join(step.before)
            out.append(len(step.after))
            out += b"".join(step.after)

    @staticmethod
    def _read_merkle_path(r: Reader) -> MerklePath:
        # Decoding a legacy frame rebuilds the per-entry paths the wire
        # carried; only *construction* on the batched query path is
        # forbidden by the lint rule.
        steps = []
        for _ in range(r.u8()):
            index = r.uint(2)
            before = r.chunks(r.u8(), 32)
            after = r.chunks(r.u8(), 32)
            # reprolint: disable-next-line=multiproof-batched-path
            steps.append(PathStep(index=index, before=before, after=after))
        # reprolint: disable-next-line=multiproof-batched-path
        return MerklePath(steps=tuple(steps))

    def _write_membership(self, out: bytearray, proof: MembershipProof) -> None:
        width = self.value_bytes
        _put_uint(out, proof.position, 8)
        _put_uint(out, proof.entry_commitment, width)
        _put_uint(out, proof.slot1_proof, width)
        out.append(len(proof.links))
        for link in proof.links:
            out.append(link.child_index)
            _put_uint(out, link.child_commitment, width)
            _put_uint(out, link.proof, width)

    def _read_membership(self, r: Reader) -> MembershipProof:
        width = self.value_bytes
        position = r.uint(8)
        entry_commitment = r.uint(width)
        slot1_proof = r.uint(width)
        links = tuple(
            ChameleonLink(
                child_index=r.u8(),
                child_commitment=r.uint(width),
                proof=r.uint(width),
            )
            for _ in range(r.u8())
        )
        return MembershipProof(
            position=position,
            entry_commitment=entry_commitment,
            slot1_proof=slot1_proof,
            links=links,
        )

    def _write_entry(
        self,
        out: bytearray,
        entry: ProvenEntry | None,
        mps: tuple | None = None,
    ) -> None:
        if entry is None:
            out.append(0)
            return
        out.append(1)
        proof = entry.proof
        if proof is None:
            tag = _PROOF_NONE
        elif isinstance(proof, MerklePath):
            tag = _PROOF_MERKLE
        elif isinstance(proof, MembershipProof):
            tag = _PROOF_CVC
        elif isinstance(proof, NodeRef):
            tag = _PROOF_NODEREF
        elif isinstance(proof, LeafRef):
            raise ReproError(
                "LeafRef entries are read-only: a v3 frame decodes and "
                "verifies, a Merkle VO is written as a v5 frame"
            )
        else:
            raise ReproError(f"cannot encode proof type {type(proof)!r}")
        # Versioned frames tag before the id/hash (v3's LeafRef entries
        # omit them); the legacy layout tags after.
        if mps is not None:
            out.append(tag)
        _put_uint(out, entry.object_id, 8)
        out += entry.object_hash
        if mps is None:
            out.append(tag)
        if tag == _PROOF_MERKLE:
            self._write_merkle_path(out, proof)
        elif tag == _PROOF_CVC:
            self._write_membership(out, proof)
        elif tag == _PROOF_NODEREF:
            put_varint(out, proof.table_index)
            put_varint(out, proof.position)
            _put_uint(out, proof.slot1_proof, self.value_bytes)

    def _read_entry(
        self, r: Reader, mps: tuple | None = None
    ) -> ProvenEntry | None:
        # The codec's inner loop: the buffer is indexed here, not
        # through the reader's methods, and a varint's usual single
        # byte is read in place (the call is for the long ones).
        # Off-the-end reads raise IndexError / struct.error, which
        # decode() reports as truncation; slices are checked against
        # the length first.
        proof: NodeRef | MerklePath | MembershipProof | None
        buf = r.buf
        pos = r.pos
        present = buf[pos]
        pos += 1
        if present != 1:
            if present:
                raise ReproError(f"invalid flag byte {present} in {_WHAT}")
            r.pos = pos
            return None
        if mps is not None:
            tag = buf[pos]
            pos += 1
            if tag == _PROOF_LEAFREF:
                proof_index = buf[pos]
                pos += 1
                if proof_index > 0x7F:
                    proof_index, pos = read_varint(buf, pos - 1)
                ordinal = buf[pos]
                pos += 1
                if ordinal > 0x7F:
                    ordinal, pos = read_varint(buf, pos - 1)
                r.pos = pos
                if proof_index >= len(mps) or not isinstance(
                    mps[proof_index], TreeMultiproof
                ):
                    raise ReproError(
                        f"LeafRef proof index {proof_index} out of range"
                    )
                leaves = mps[proof_index].leaves
                if ordinal >= len(leaves):
                    raise ReproError(
                        f"LeafRef ordinal {ordinal} out of range"
                    )
                object_id, object_hash = leaves[ordinal]
                return ProvenEntry(
                    object_id, object_hash, LeafRef(proof_index, ordinal)
                )
            object_id, object_hash = _LEAF_ROW.unpack_from(buf, pos)
            pos += _LEAF_ROW.size
        else:
            object_id, object_hash = _LEAF_ROW.unpack_from(buf, pos)
            pos += _LEAF_ROW.size
            tag = buf[pos]
            pos += 1
        if tag == _PROOF_NODEREF:
            table_index = buf[pos]
            pos += 1
            if table_index > 0x7F:
                table_index, pos = read_varint(buf, pos - 1)
            position = buf[pos]
            pos += 1
            if position > 0x7F:
                position, pos = read_varint(buf, pos - 1)
            end = pos + self.value_bytes
            if end > len(buf):
                raise ReproError(_TRUNCATED)
            proof = NodeRef(
                table_index, position, int.from_bytes(buf[pos:end], "big")
            )
            r.pos = end
            if (
                mps is None
                or table_index >= len(mps)
                or not isinstance(mps[table_index], ChameleonMultiproof)
            ):
                raise ReproError(
                    f"NodeRef table index {table_index} out of range"
                )
            mps[table_index].node(position)  # raises if absent
            return ProvenEntry(object_id, object_hash, proof)
        r.pos = pos
        if tag == _PROOF_NONE:
            proof = None
        elif tag == _PROOF_MERKLE:
            proof = self._read_merkle_path(r)
        elif tag == _PROOF_CVC:
            proof = self._read_membership(r)
        else:
            raise ReproError(f"unknown proof tag {tag}")
        return ProvenEntry(object_id, object_hash, proof)

    # -- VO structures ------------------------------------------------------------

    def _write_round(
        self, out: bytearray, rnd: JoinRound, mps: tuple | None = None
    ) -> None:
        out.append(0 if rnd.kind == "probe" else 1)
        out.append(rnd.probe_tree)
        self._write_entry(out, rnd.lower, mps)
        self._write_entry(out, rnd.upper, mps)
        self._write_entry(out, rnd.next_target, mps)

    def _read_round(self, r: Reader, mps: tuple | None = None) -> JoinRound:
        buf = r.buf
        pos = r.pos
        kind = buf[pos]
        if kind > 1:
            raise ReproError(f"invalid flag byte {kind} in {_WHAT}")
        probe_tree = buf[pos + 1]
        r.pos = pos + 2
        return JoinRound(
            "skip" if kind else "probe",
            probe_tree,
            self._read_entry(r, mps),
            self._read_entry(r, mps),
            self._read_entry(r, mps),
        )

    def _write_conjunct(
        self, out: bytearray, vo: ConjunctiveVO, mps: tuple | None = None
    ) -> None:
        out.append(len(vo.keywords))
        for keyword in vo.keywords:
            _put_string(out, keyword)
        if vo.empty_keyword is not None:
            out.append(1)
            _put_string(out, vo.empty_keyword)
        else:
            out.append(0)
        if vo.base is None:
            out.append(_BASE_NONE)
        elif isinstance(vo.base, MultiWayJoinVO):
            out.append(_BASE_MULTIWAY)
            out.append(len(vo.base.trees))
            for tree in vo.base.trees:
                _put_string(out, tree)
            self._write_entry(out, vo.base.first_target, mps)
            _put_uint(out, len(vo.base.rounds), 2)
            for rnd in vo.base.rounds:
                self._write_round(out, rnd, mps)
        elif isinstance(vo.base, FullScanVO):
            out.append(_BASE_FULLSCAN)
            _put_string(out, vo.base.keyword)
            _put_uint(out, len(vo.base.entries), 2)
            for entry in vo.base.entries:
                self._write_entry(out, entry, mps)
        else:
            raise ReproError(f"cannot encode base {type(vo.base)!r}")
        out.append(len(vo.stages))
        for stage in vo.stages:
            _put_string(out, stage.keyword)
            _put_uint(out, len(stage.probes), 2)
            for probe in stage.probes:
                _put_uint(out, probe.candidate_id, 8)
                out.append(1 if probe.bloom_absent else 0)
                self._write_entry(out, probe.lower, mps)
                self._write_entry(out, probe.upper, mps)

    def _read_conjunct(
        self, r: Reader, mps: tuple | None = None
    ) -> ConjunctiveVO:
        keywords = tuple(r.text(U8) for _ in range(r.u8()))
        empty_keyword = r.text(U8) if r.flag() else None
        base_tag = r.u8()
        base: MultiWayJoinVO | FullScanVO | None
        if base_tag == _BASE_NONE:
            base = None
        elif base_tag == _BASE_MULTIWAY:
            trees = tuple(r.text(U8) for _ in range(r.u8()))
            first_target = self._read_entry(r, mps)
            if first_target is None:
                raise ReproError("join VO lacks its first target")
            rounds = tuple(
                [self._read_round(r, mps) for _ in range(r.uint(2))]
            )
            base = MultiWayJoinVO(
                trees=trees, first_target=first_target, rounds=rounds
            )
        elif base_tag == _BASE_FULLSCAN:
            keyword = r.text(U8)
            entries = []
            for _ in range(r.uint(2)):
                entry = self._read_entry(r, mps)
                if entry is None:
                    raise ReproError("full-scan VO lists an absent entry")
                entries.append(entry)
            base = FullScanVO(keyword=keyword, entries=tuple(entries))
        else:
            raise ReproError(f"unknown base tag {base_tag}")
        stages = []
        for _ in range(r.u8()):
            keyword = r.text(U8)
            probes = tuple(
                SemiJoinProbe(
                    candidate_id=r.uint(8),
                    bloom_absent=r.flag(),
                    lower=self._read_entry(r, mps),
                    upper=self._read_entry(r, mps),
                )
                for _ in range(r.uint(2))
            )
            stages.append(SemiJoinStage(keyword=keyword, probes=probes))
        return ConjunctiveVO(
            keywords=keywords,
            base=base,
            stages=tuple(stages),
            empty_keyword=empty_keyword,
        )

    @staticmethod
    def _write_replayed(out: bytearray, vo: ConjunctiveVO) -> None:
        keywords = vo.keywords
        out.append(len(keywords))
        for keyword in keywords:
            _put_string(out, keyword)
        base = vo.base
        if vo.empty_keyword is not None and base is None:
            out.append(_KIND_EMPTY)
            _put_string(out, vo.empty_keyword)
            return
        if (
            not isinstance(base, ReplayVO)
            or vo.empty_keyword is not None
            or vo.stages
            or base.plan not in _KIND_OF_PLAN
            or sorted(base.trees) != sorted(keywords)
            or len(base.runs) != len(keywords)
        ):
            raise ReproError(
                "a v5 frame carries empty-keyword and replayed conjuncts "
                "only, each over exactly its keywords"
            )
        list(base.tables())  # a run still waiting for its proof is refused
        out.append(_KIND_OF_PLAN[base.plan])
        for tree, run in zip(base.trees, base.runs):
            out.append(keywords.index(tree))
            put_varint(out, 0 if run is None else run + 1)

    @staticmethod
    def _read_replayed(r: Reader, mps: tuple) -> ConjunctiveVO:
        keywords = tuple(r.text(U8) for _ in range(r.u8()))
        kind = r.u8()
        if kind == _KIND_EMPTY:
            return ConjunctiveVO(keywords=keywords, empty_keyword=r.text(U8))
        plan = _PLAN_OF_KIND.get(kind)
        if plan is None:
            raise ReproError(f"unknown conjunct kind {kind}")
        order = []
        runs: list[int | None] = []
        for _ in keywords:
            order.append(r.u8())
            slot = r.varint()
            if slot > len(mps):
                raise ReproError(f"conjunct names table {slot - 1} of {len(mps)}")
            runs.append(slot - 1 if slot else None)
        if sorted(order) != list(range(len(keywords))):
            raise ReproError("conjunct's tree order is not a permutation")
        return ConjunctiveVO(
            keywords=keywords,
            base=ReplayVO(
                plan=plan,
                trees=tuple(keywords[index] for index in order),
                runs=tuple(runs),
            ),
        )

    # -- public API ----------------------------------------------------------------

    def encode(self, vo: QueryVO) -> bytes:
        """Serialise a full ``VO_sp`` to its wire form.

        Emits the oldest frame that can carry the VO (see
        :meth:`~repro.core.query.vo.QueryVO.frame_version`) unless the
        codec was pinned; a pin older than the VO needs is refused.  A
        table ref without its table — e.g. a per-conjunct slice of a
        compressed VO — still gets the versioned frame: such bytes
        compare deterministically, but only the rejoined VO decodes.
        """
        needed = vo.frame_version()
        version = needed if self.version is None else self.version
        if version < needed:
            raise ReproError(
                f"VOCodec(version={version}) cannot encode a VO that "
                f"needs the v{needed} frame"
            )
        out = bytearray()
        mps: tuple | None = None
        if version >= 3:
            out.append(_VERSION_BASE | version)
            mps = tuple(vo.multiproofs)
            put_varint(out, len(mps))
            for table in mps:
                chameleon = isinstance(table, ChameleonMultiproof)
                if version == 4:
                    out.append(_TABLE_CHAMELEON if chameleon else _TABLE_MERKLE)
                elif chameleon:
                    raise ReproError(
                        f"a v{version} frame cannot carry a node table"
                    )
                if chameleon:
                    self._write_node_table(out, table)
                else:
                    self._write_multiproof(out, table)
        out.append(len(vo.conjuncts))
        for conjunct in vo.conjuncts:
            if version >= 5:
                self._write_replayed(out, conjunct)
            else:
                self._write_conjunct(out, conjunct, mps)
        return bytes(out)

    def _read_table(
        self, r: Reader, version: int
    ) -> TreeMultiproof | ChameleonMultiproof:
        kind = r.u8() if version == 4 else _TABLE_MERKLE
        if kind == _TABLE_MERKLE:
            return self._read_multiproof(r)
        if kind == _TABLE_CHAMELEON:
            return self._read_node_table(r)
        raise ReproError(f"unknown table kind {kind}")

    def decode(self, payload: bytes) -> QueryVO:
        """Parse a wire-form ``VO_sp``; raises on malformed input.

        Reads every frame version regardless of the codec's ``version``
        pin (the pin only selects the encoder's output).  Only
        :class:`~repro.errors.ReproError` escapes, whatever the bytes.
        """
        r = Reader(payload, _WHAT)
        mps: tuple | None = None
        version = 2
        try:
            if payload[:1] >= bytes((_VERSION_BASE,)):
                version = r.u8() - _VERSION_BASE
                if version not in _VERSIONS[1:]:
                    raise ReproError(
                        f"unsupported VO frame version {version}"
                    )
                mps = tuple(
                    [self._read_table(r, version) for _ in range(r.varint())]
                )
            read = self._read_replayed if version >= 5 else self._read_conjunct
            conjuncts = tuple([read(r, mps) for _ in range(r.u8())])
        except (IndexError, struct.error):
            # The inner loops index the buffer and unpack at an offset
            # without asking first: running off the end is their
            # truncation check.
            raise ReproError(_TRUNCATED) from None
        r.finish()
        return QueryVO(
            conjuncts=conjuncts, multiproofs=mps if mps is not None else ()
        )
