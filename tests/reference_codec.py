"""Reference oracle: the stream codec the offset reader replaced.

The SP protocol and the VO codec used to read every field through
``io.BytesIO.read()``; ``repro.core.wire.Reader`` and the offset loops
in ``repro.core.query.codec`` / ``repro.core.objects`` took their place.
The old implementation lives on here, field by field, as the
independent side of ``tests/query/test_codec_oracle.py``: on honest
answers both encoders must produce the same bytes, and on any byte
string both decoders must return equal values or both raise
``ReproError``.

:class:`ReferenceVOCodec` writes and reads the one live frame (v6:
tables with a kind tag each, conjuncts that name them) in that per-field
style, from its layout in the codec's docstring.  It is also the *only*
reader left of the retired frames — v2 (rounds of per-entry proofs), v3
(``LeafRef`` entries), v4 (``NodeRef`` entries over node tables without
entry rows) and v5 (Merkle tables without kind tags) — which it decodes
into the plain structures of ``tests/legacy_vo.py`` and re-encodes byte
for byte when pinned to their version: the committed golden frames of
those versions are its fixtures.  The protocol half is the old reader
*plus* the fail-closed rules the protocol gained with the new one —
status byte in ``{0, 1}``, UTF-8 text, no trailing bytes after the
message or inside an object's field — written in the old per-field
style; without them the two sides would disagree on exactly the inputs
those rules exist for.  Objects come back as plain ``(id, keywords,
content)`` triples: the reference does not normalise what it reads, and
neither does ``DataObject.from_wire``.
"""

from __future__ import annotations

import io

from repro.core.chameleon import ChameleonMultiproof
from repro.core.mbtree import MerklePath, PathStep
from repro.core.multiproof import TreeMultiproof
from repro.core.query.vo import ConjunctiveVO, QueryVO, ReplayVO
from repro.errors import ReproError
from tests.legacy_vo import (
    ChameleonLink,
    ChameleonNode,
    FullScanVO,
    JoinRound,
    LeafRef,
    MembershipProof,
    MultiWayJoinVO,
    NodeRef,
    NodeTable,
    ProvenEntry,
    RoundsConjunctVO,
    SemiJoinProbe,
    SemiJoinStage,
)

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

#: First byte of a versioned frame; ``0xF0 | version`` (v2 is the
#: unmarked legacy layout).
_VERSION_BASE = 0xF0
_VERSIONS = (2, 3, 4, 5, 6)

_KINDS = {"cyclic": 1, "semijoin": 2}


class ReferenceVOCodec:
    """Encoder/decoder bound to one scheme's group-element width.

    ``version`` selects the frame the *encoder* emits: ``None`` (the
    default) is the live v6 frame; a retired frame is written only when
    pinned, from the legacy structures its decoder returned.  The
    decoder is version-agnostic and reads v2 to v6.
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

    # -- primitives --------------------------------------------------------------

    @staticmethod
    def _write_uint(out: io.BytesIO, value: int, width: int) -> None:
        out.write(value.to_bytes(width, "big"))

    @staticmethod
    def _read_uint(data: io.BytesIO, width: int) -> int:
        raw = data.read(width)
        if len(raw) != width:
            raise ReproError("truncated VO payload")
        return int.from_bytes(raw, "big")

    def _write_element(self, out: io.BytesIO, value: int) -> None:
        self._write_uint(out, value, self.value_bytes)

    def _read_element(self, data: io.BytesIO) -> int:
        return self._read_uint(data, self.value_bytes)

    @staticmethod
    def _write_string(out: io.BytesIO, text: str) -> None:
        encoded = text.encode("utf-8")
        if len(encoded) > 0xFF:
            raise ReproError("keyword too long for wire format")
        out.write(len(encoded).to_bytes(1, "big"))
        out.write(encoded)

    @staticmethod
    def _read_string(data: io.BytesIO) -> str:
        length = ReferenceVOCodec._read_uint(data, 1)
        raw = data.read(length)
        if len(raw) != length:
            raise ReproError("truncated VO payload")
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ReproError("keyword in VO payload is not UTF-8") from exc

    @staticmethod
    def _read_bytes(data: io.BytesIO, length: int) -> bytes:
        raw = data.read(length)
        if len(raw) != length:
            raise ReproError("truncated VO payload")
        return raw

    @staticmethod
    def _write_varint(out: io.BytesIO, value: int) -> None:
        if value < 0:
            raise ReproError("varint values must be non-negative")
        while value >= 0x80:
            out.write(bytes([(value & 0x7F) | 0x80]))
            value >>= 7
        out.write(bytes([value]))

    @staticmethod
    def _read_varint(data: io.BytesIO) -> int:
        value = 0
        shift = 0
        while True:
            raw = data.read(1)
            if not raw:
                raise ReproError("truncated VO payload")
            byte = raw[0]
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 63:
                raise ReproError("oversized varint in VO payload")

    # -- multiproofs --------------------------------------------------------------

    def _write_multiproof(self, out: io.BytesIO, mp: TreeMultiproof) -> None:
        self._write_uint(out, mp.height, 1)
        self._write_varint(out, len(mp.nodes))
        for codes in mp.nodes:
            self._write_varint(out, len(codes))
            packed = bytearray((len(codes) + 3) // 4)
            for slot, code in enumerate(codes):
                if not 0 <= code <= 3:
                    raise ReproError(f"cannot encode slot code {code}")
                packed[slot // 4] |= code << ((slot % 4) * 2)
            out.write(bytes(packed))
        self._write_varint(out, len(mp.helpers))
        for digest in mp.helpers:
            if len(digest) != 32:
                raise ReproError("multiproof helper is not a 32-byte digest")
            out.write(digest)
        self._write_varint(out, len(mp.leaves))
        for object_id, object_hash in mp.leaves:
            self._write_uint(out, object_id, 8)
            if len(object_hash) != 32:
                raise ReproError("multiproof leaf hash is not 32 bytes")
            out.write(object_hash)

    def _read_multiproof(self, data: io.BytesIO) -> TreeMultiproof:
        height = self._read_uint(data, 1)
        nodes = []
        for _ in range(self._read_varint(data)):
            width = self._read_varint(data)
            if width > 0xFFFF:
                raise ReproError("oversized multiproof node width")
            packed = self._read_bytes(data, (width + 3) // 4)
            if width % 4 and packed[-1] >> (width % 4 * 2):
                raise ReproError("non-zero padding in multiproof slot codes")
            codes = tuple(
                (packed[slot // 4] >> ((slot % 4) * 2)) & 0x3
                for slot in range(width)
            )
            if any(code > 2 for code in codes):
                raise ReproError("invalid multiproof slot code")
            nodes.append(codes)
        helpers = tuple(
            self._read_bytes(data, 32) for _ in range(self._read_varint(data))
        )
        leaves = tuple(
            (self._read_uint(data, 8), self._read_bytes(data, 32))
            for _ in range(self._read_varint(data))
        )
        return TreeMultiproof(
            height=height,
            nodes=tuple(nodes),
            helpers=helpers,
            leaves=leaves,
        )

    def _write_node_table(self, out: io.BytesIO, table: NodeTable) -> None:
        self._write_uint(out, table.arity, 1)
        self._write_varint(out, len(table.nodes))
        for node in table.nodes:
            self._write_varint(out, node.position)
            self._write_element(out, node.commitment)
            self._write_element(out, node.link_proof)

    def _read_node_table(self, data: io.BytesIO) -> NodeTable:
        arity = self._read_uint(data, 1)
        count = self._read_varint(data)
        remaining = len(data.getbuffer()) - data.tell()
        if count * (1 + 2 * self.value_bytes) > remaining:
            raise ReproError("node table longer than the VO payload")
        if not 1 <= arity <= 0xFF:
            raise ReproError("node table arity out of range")
        table = NodeTable(
            arity=arity,
            nodes=tuple(
                ChameleonNode(
                    position=self._read_varint(data),
                    commitment=self._read_element(data),
                    link_proof=self._read_element(data),
                )
                for _ in range(count)
            ),
        )
        try:
            table.positions()  # sorted, duplicate-free, parent-closed
        except ValueError as exc:
            raise ReproError(str(exc)) from None
        return table

    def _write_entry_table(
        self, out: io.BytesIO, table: ChameleonMultiproof
    ) -> None:
        """v6: the rows travel as the bytes the table holds."""
        self._write_uint(out, table.arity, 1)
        self._write_varint(out, table.count)
        out.write(table.body)

    def _read_entry_table(self, data: io.BytesIO) -> ChameleonMultiproof:
        """v6: ``position || flag || [id || h(o)] || c || [pi] || rho`` rows."""
        arity = self._read_uint(data, 1)
        count = self._read_varint(data)
        start = data.tell()
        if count * (2 + 2 * self.value_bytes) > len(data.getbuffer()) - start:
            raise ReproError("node table longer than the VO payload")
        if not 1 <= arity <= 0xFF:
            raise ReproError("node table arity out of range")
        seen: set[int] = set()
        childless: set[int] = set()
        previous = 0
        for _ in range(count):
            position = self._read_varint(data)
            entry = self._read_present(data)
            if entry:
                self._read_bytes(data, 8 + 32)  # id || h(o)
            self._read_element(data)  # c_pos
            if entry:
                self._read_element(data)  # slot-1 opening
            self._read_element(data)  # link opening
            if position <= previous:
                raise ReproError("node table positions do not ascend")
            parent = (position - 1) // arity
            if parent and parent not in seen:
                raise ReproError("node table lacks a parent row")
            childless.discard(parent)
            if not entry:
                childless.add(position)
            seen.add(position)
            previous = position
        if childless:
            raise ReproError("node table row hangs nothing")
        body = data.getvalue()[start : data.tell()]
        return ChameleonMultiproof(arity, self.value_bytes, count, body)

    # -- proofs ------------------------------------------------------------------

    def _write_merkle_path(self, out: io.BytesIO, path: MerklePath) -> None:
        self._write_uint(out, len(path.steps), 1)
        for step in path.steps:
            self._write_uint(out, step.index, 2)
            self._write_uint(out, len(step.before), 1)
            for digest in step.before:
                out.write(digest)
            self._write_uint(out, len(step.after), 1)
            for digest in step.after:
                out.write(digest)

    def _read_merkle_path(self, data: io.BytesIO) -> MerklePath:
        # Decoding a legacy frame rebuilds the per-entry paths the wire
        # carried; only *construction* on the batched query path is
        # forbidden by the lint rule.
        depth = self._read_uint(data, 1)
        steps = []
        for _ in range(depth):
            index = self._read_uint(data, 2)
            before = tuple(
                self._read_bytes(data, 32)
                for _ in range(self._read_uint(data, 1))
            )
            after = tuple(
                self._read_bytes(data, 32)
                for _ in range(self._read_uint(data, 1))
            )
            # reprolint: disable-next-line=multiproof-batched-path
            steps.append(PathStep(index=index, before=before, after=after))
        # reprolint: disable-next-line=multiproof-batched-path
        return MerklePath(steps=tuple(steps))

    def _write_membership(self, out: io.BytesIO, proof: MembershipProof) -> None:
        self._write_uint(out, proof.position, 8)
        self._write_element(out, proof.entry_commitment)
        self._write_element(out, proof.slot1_proof)
        self._write_uint(out, len(proof.links), 1)
        for link in proof.links:
            self._write_uint(out, link.child_index, 1)
            self._write_element(out, link.child_commitment)
            self._write_element(out, link.proof)

    def _read_membership(self, data: io.BytesIO) -> MembershipProof:
        position = self._read_uint(data, 8)
        entry_commitment = self._read_element(data)
        slot1_proof = self._read_element(data)
        links = []
        for _ in range(self._read_uint(data, 1)):
            links.append(
                ChameleonLink(
                    child_index=self._read_uint(data, 1),
                    child_commitment=self._read_element(data),
                    proof=self._read_element(data),
                )
            )
        return MembershipProof(
            position=position,
            entry_commitment=entry_commitment,
            slot1_proof=slot1_proof,
            links=tuple(links),
        )

    def _write_entry(
        self,
        out: io.BytesIO,
        entry: ProvenEntry | None,
        mps: tuple | None = None,
    ) -> None:
        if entry is None:
            self._write_uint(out, 0, 1)
            return
        self._write_uint(out, 1, 1)
        proof = entry.proof
        if isinstance(proof, LeafRef):
            # v3 on: the id/hash live in the multiproof leaf table, so
            # the entry shrinks to a tag plus two varints.
            if mps is None:
                raise ReproError(
                    "LeafRef proofs require the v3 frame "
                    "(VOCodec(version=2) cannot encode compressed VOs)"
                )
            self._write_uint(out, _PROOF_LEAFREF, 1)
            self._write_varint(out, proof.proof_index)
            self._write_varint(out, proof.ordinal)
            return
        if proof is None:
            tag = _PROOF_NONE
        elif isinstance(proof, MerklePath):
            tag = _PROOF_MERKLE
        elif isinstance(proof, MembershipProof):
            tag = _PROOF_CVC
        elif isinstance(proof, NodeRef):
            tag = _PROOF_NODEREF
        else:
            raise ReproError(f"cannot encode proof type {type(proof)!r}")
        # Versioned frames tag before the id/hash so LeafRef entries can
        # omit them; the legacy layout tags after.
        if mps is not None:
            self._write_uint(out, tag, 1)
        self._write_uint(out, entry.object_id, 8)
        out.write(entry.object_hash)
        if mps is None:
            self._write_uint(out, tag, 1)
        if tag == _PROOF_MERKLE:
            self._write_merkle_path(out, proof)
        elif tag == _PROOF_CVC:
            self._write_membership(out, proof)
        elif tag == _PROOF_NODEREF:
            self._write_varint(out, proof.table_index)
            self._write_varint(out, proof.position)
            self._write_element(out, proof.slot1_proof)

    def _read_present(self, data: io.BytesIO) -> bool:
        """A one-byte flag; the encoder writes 0 or 1 and nothing else."""
        flag = self._read_uint(data, 1)
        if flag > 1:
            raise ReproError(f"invalid flag byte {flag} in VO payload")
        return flag == 1

    def _read_entry(
        self, data: io.BytesIO, mps: tuple | None = None
    ) -> ProvenEntry | None:
        if not self._read_present(data):
            return None
        if mps is not None:
            tag = self._read_uint(data, 1)
            if tag == _PROOF_LEAFREF:
                proof_index = self._read_varint(data)
                ordinal = self._read_varint(data)
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
                    object_id=object_id,
                    object_hash=object_hash,
                    proof=LeafRef(proof_index=proof_index, ordinal=ordinal),
                )
        else:
            tag = None
        object_id = self._read_uint(data, 8)
        object_hash = self._read_bytes(data, 32)
        if tag is None:
            tag = self._read_uint(data, 1)
        if tag == _PROOF_NONE:
            proof = None
        elif tag == _PROOF_MERKLE:
            proof = self._read_merkle_path(data)
        elif tag == _PROOF_CVC:
            proof = self._read_membership(data)
        elif tag == _PROOF_NODEREF:
            proof = NodeRef(
                table_index=self._read_varint(data),
                position=self._read_varint(data),
                slot1_proof=self._read_element(data),
            )
            if (
                mps is None
                or proof.table_index >= len(mps)
                or not isinstance(mps[proof.table_index], NodeTable)
            ):
                raise ReproError(
                    f"NodeRef table index {proof.table_index} out of range"
                )
            if proof.position not in mps[proof.table_index].positions():
                raise ReproError(f"node table has no position {proof.position}")
        else:
            raise ReproError(f"unknown proof tag {tag}")
        return ProvenEntry(
            object_id=object_id, object_hash=object_hash, proof=proof
        )

    # -- VO structures ------------------------------------------------------------

    def _write_round(
        self, out: io.BytesIO, rnd: JoinRound, mps: tuple | None = None
    ) -> None:
        self._write_uint(out, 0 if rnd.kind == "probe" else 1, 1)
        self._write_uint(out, rnd.probe_tree, 1)
        self._write_entry(out, rnd.lower, mps)
        self._write_entry(out, rnd.upper, mps)
        self._write_entry(out, rnd.next_target, mps)

    def _read_round(
        self, data: io.BytesIO, mps: tuple | None = None
    ) -> JoinRound:
        kind = "skip" if self._read_present(data) else "probe"
        probe_tree = self._read_uint(data, 1)
        lower = self._read_entry(data, mps)
        upper = self._read_entry(data, mps)
        next_target = self._read_entry(data, mps)
        return JoinRound(
            kind=kind,
            probe_tree=probe_tree,
            lower=lower,
            upper=upper,
            next_target=next_target,
        )

    def _write_conjunct(
        self, out: io.BytesIO, vo: RoundsConjunctVO, mps: tuple | None = None
    ) -> None:
        self._write_uint(out, len(vo.keywords), 1)
        for keyword in vo.keywords:
            self._write_string(out, keyword)
        if vo.empty_keyword is not None:
            self._write_uint(out, 1, 1)
            self._write_string(out, vo.empty_keyword)
        else:
            self._write_uint(out, 0, 1)
        if vo.base is None:
            self._write_uint(out, _BASE_NONE, 1)
        elif isinstance(vo.base, MultiWayJoinVO):
            self._write_uint(out, _BASE_MULTIWAY, 1)
            self._write_uint(out, len(vo.base.trees), 1)
            for tree in vo.base.trees:
                self._write_string(out, tree)
            self._write_entry(out, vo.base.first_target, mps)
            self._write_uint(out, len(vo.base.rounds), 2)
            for rnd in vo.base.rounds:
                self._write_round(out, rnd, mps)
        else:
            assert isinstance(vo.base, FullScanVO)
            self._write_uint(out, _BASE_FULLSCAN, 1)
            self._write_string(out, vo.base.keyword)
            self._write_uint(out, len(vo.base.entries), 2)
            for entry in vo.base.entries:
                self._write_entry(out, entry, mps)
        self._write_uint(out, len(vo.stages), 1)
        for stage in vo.stages:
            self._write_string(out, stage.keyword)
            self._write_uint(out, len(stage.probes), 2)
            for probe in stage.probes:
                self._write_uint(out, probe.candidate_id, 8)
                self._write_uint(out, 1 if probe.bloom_absent else 0, 1)
                self._write_entry(out, probe.lower, mps)
                self._write_entry(out, probe.upper, mps)

    def _read_conjunct(
        self, data: io.BytesIO, mps: tuple | None = None
    ) -> RoundsConjunctVO:
        keywords = tuple(
            self._read_string(data) for _ in range(self._read_uint(data, 1))
        )
        empty_keyword = None
        if self._read_present(data):
            empty_keyword = self._read_string(data)
        base_tag = self._read_uint(data, 1)
        base: MultiWayJoinVO | FullScanVO | None
        if base_tag == _BASE_NONE:
            base = None
        elif base_tag == _BASE_MULTIWAY:
            trees = tuple(
                self._read_string(data)
                for _ in range(self._read_uint(data, 1))
            )
            first_target = self._read_entry(data, mps)
            if first_target is None:
                raise ReproError("join VO lacks its first target")
            rounds = tuple(
                self._read_round(data, mps)
                for _ in range(self._read_uint(data, 2))
            )
            base = MultiWayJoinVO(
                trees=trees, first_target=first_target, rounds=rounds
            )
        elif base_tag == _BASE_FULLSCAN:
            keyword = self._read_string(data)
            entries = []
            for _ in range(self._read_uint(data, 2)):
                entry = self._read_entry(data, mps)
                if entry is None:
                    raise ReproError("full-scan VO lists an absent entry")
                entries.append(entry)
            base = FullScanVO(keyword=keyword, entries=tuple(entries))
        else:
            raise ReproError(f"unknown base tag {base_tag}")
        stages = []
        for _ in range(self._read_uint(data, 1)):
            keyword = self._read_string(data)
            probes = []
            for _ in range(self._read_uint(data, 2)):
                candidate_id = self._read_uint(data, 8)
                bloom_absent = self._read_present(data)
                lower = self._read_entry(data, mps)
                upper = self._read_entry(data, mps)
                probes.append(
                    SemiJoinProbe(
                        candidate_id=candidate_id,
                        bloom_absent=bloom_absent,
                        lower=lower,
                        upper=upper,
                    )
                )
            stages.append(SemiJoinStage(keyword=keyword, probes=tuple(probes)))
        return RoundsConjunctVO(
            keywords=keywords,
            base=base,
            stages=tuple(stages),
            empty_keyword=empty_keyword,
        )

    # -- public API ----------------------------------------------------------------

    def encode(self, vo: QueryVO) -> bytes:
        """Serialise a full ``VO_sp``: the v6 frame unless pinned older."""
        version = 6 if self.version is None else self.version
        out = io.BytesIO()
        mps: tuple | None = None
        if version >= 3:
            out.write(bytes([_VERSION_BASE | version]))
            mps = tuple(vo.multiproofs)
            self._write_varint(out, len(mps))
            for table in mps:
                if version == 6:
                    entry_rows = isinstance(table, ChameleonMultiproof)
                    self._write_uint(
                        out, _TABLE_CHAMELEON if entry_rows else _TABLE_MERKLE, 1
                    )
                    if entry_rows:
                        self._write_entry_table(out, table)
                        continue
                elif version == 4:
                    self._write_uint(
                        out,
                        _TABLE_CHAMELEON
                        if isinstance(table, NodeTable)
                        else _TABLE_MERKLE,
                        1,
                    )
                if isinstance(table, NodeTable):
                    self._write_node_table(out, table)
                else:
                    self._write_multiproof(out, table)
        self._write_uint(out, len(vo.conjuncts), 1)
        for conjunct in vo.conjuncts:
            if version >= 5:
                self._write_replayed(out, conjunct)
            else:
                self._write_conjunct(out, conjunct, mps)
        return out.getvalue()

    def _write_replayed(self, out: io.BytesIO, vo: ConjunctiveVO) -> None:
        self._write_uint(out, len(vo.keywords), 1)
        for keyword in vo.keywords:
            self._write_string(out, keyword)
        if vo.empty_keyword is not None:
            self._write_uint(out, 0, 1)
            self._write_string(out, vo.empty_keyword)
            return
        self._write_uint(out, _KINDS[vo.base.plan], 1)
        for tree, run in zip(vo.base.trees, vo.base.runs):
            self._write_uint(out, vo.keywords.index(tree), 1)
            self._write_varint(out, 0 if run is None else run + 1)

    def _read_replayed(self, data: io.BytesIO, mps: tuple) -> ConjunctiveVO:
        keywords = tuple(
            self._read_string(data) for _ in range(self._read_uint(data, 1))
        )
        kind = self._read_uint(data, 1)
        if kind == 0:
            return ConjunctiveVO(
                keywords=keywords, empty_keyword=self._read_string(data)
            )
        plans = {tag: plan for plan, tag in _KINDS.items()}
        if kind not in plans:
            raise ReproError(f"unknown conjunct kind {kind}")
        trees = []
        runs = []
        seen = set()
        for _ in keywords:
            index = self._read_uint(data, 1)
            slot = self._read_varint(data)
            if slot > len(mps):
                raise ReproError("table slot out of range")
            if index >= len(keywords) or index in seen:
                raise ReproError("tree order is not a permutation")
            seen.add(index)
            trees.append(keywords[index])
            runs.append(slot - 1 if slot else None)
        return ConjunctiveVO(
            keywords=keywords,
            base=ReplayVO(plan=plans[kind], trees=tuple(trees), runs=tuple(runs)),
        )

    def _read_table(self, data: io.BytesIO, version: int):
        kind = self._read_uint(data, 1) if version in (4, 6) else _TABLE_MERKLE
        if kind == _TABLE_MERKLE:
            return self._read_multiproof(data)
        if kind == _TABLE_CHAMELEON:
            if version == 6:
                return self._read_entry_table(data)
            return self._read_node_table(data)
        raise ReproError(f"unknown table kind {kind}")

    def decode(self, payload: bytes) -> QueryVO:
        """Parse a wire-form ``VO_sp`` (the live v6 frame only).

        Only :class:`~repro.errors.ReproError` escapes, whatever the
        bytes.
        """
        return self._decode(payload, (6,))

    def decode_retired(self, payload: bytes) -> QueryVO:
        """Parse a frame of a retired version (v2–v5) into legacy structures."""
        return self._decode(payload, (2, 3, 4, 5))

    def _decode(self, payload: bytes, versions: tuple[int, ...]) -> QueryVO:
        data = io.BytesIO(payload)
        if not payload:
            raise ReproError("truncated VO payload")
        first = payload[0]
        mps: tuple | None = None
        version = 2
        if first >= _VERSION_BASE:
            version = first - _VERSION_BASE
        if version not in versions:
            raise ReproError(f"unsupported VO frame version {version}")
        if version >= 3:
            data.read(1)
            mps = tuple(
                self._read_table(data, version)
                for _ in range(self._read_varint(data))
            )
        read = self._read_replayed if version >= 5 else self._read_conjunct
        conjuncts = tuple(
            read(data, mps) for _ in range(self._read_uint(data, 1))
        )
        if data.read(1):
            raise ReproError("trailing bytes in VO payload")
        return QueryVO(
            conjuncts=conjuncts, multiproofs=mps if mps is not None else ()
        )


# -- SP protocol v2 ---------------------------------------------------------------

PROTOCOL_VERSION = 2
_STATUS_OK = 0
_STATUS_ERROR = 1
ERR_INTERNAL = 3


def _write_bytes(out: io.BytesIO, blob: bytes, width: int = 4) -> None:
    out.write(len(blob).to_bytes(width, "big"))
    out.write(blob)


def _read_exact(data: io.BytesIO, length: int) -> bytes:
    raw = data.read(length)
    if len(raw) != length:
        raise ReproError("truncated protocol message")
    return raw


def _read_bytes(data: io.BytesIO, width: int = 4) -> bytes:
    length = int.from_bytes(_read_exact(data, width), "big")
    return _read_exact(data, length)


def _read_text(data: io.BytesIO, width: int) -> str:
    try:
        return _read_bytes(data, width).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ReproError("text is not UTF-8") from exc


def _expect_end(data: io.BytesIO) -> None:
    if data.read(1):
        raise ReproError("trailing bytes")


def encode_object(object_id: int, keywords, content: bytes) -> bytes:
    """``id(8) || n(2) || (len(1) keyword)* || len(4) || content``."""
    out = io.BytesIO()
    out.write(object_id.to_bytes(8, "big"))
    out.write(len(keywords).to_bytes(2, "big"))
    for keyword in keywords:
        _write_bytes(out, keyword.encode("utf-8"), width=1)
    _write_bytes(out, content)
    return out.getvalue()


def decode_object(raw: bytes) -> tuple[int, tuple[str, ...], bytes]:
    """One object field, read to its last byte."""
    data = io.BytesIO(raw)
    object_id = int.from_bytes(_read_exact(data, 8), "big")
    n_keywords = int.from_bytes(_read_exact(data, 2), "big")
    keywords = tuple(_read_text(data, 1) for _ in range(n_keywords))
    content = _read_bytes(data)
    _expect_end(data)
    return object_id, keywords, content


def encode_request(query_text: str) -> bytes:
    out = io.BytesIO()
    out.write(bytes([PROTOCOL_VERSION]))
    _write_bytes(out, query_text.encode("utf-8"), width=2)
    return out.getvalue()


def decode_request(payload: bytes) -> str:
    data = io.BytesIO(payload)
    version = _read_exact(data, 1)[0]
    if version != PROTOCOL_VERSION:
        raise ReproError(f"unsupported protocol version {version}")
    text = _read_text(data, 2)
    _expect_end(data)
    return text


def encode_response(result_ids, objects, vo_bytes: bytes) -> bytes:
    """An OK response; ``objects`` are ``(id, keywords, content)`` triples."""
    out = io.BytesIO()
    out.write(bytes([PROTOCOL_VERSION, _STATUS_OK]))
    out.write(len(result_ids).to_bytes(4, "big"))
    for object_id in result_ids:
        out.write(object_id.to_bytes(8, "big"))
    out.write(len(objects).to_bytes(4, "big"))
    for obj in objects:
        _write_bytes(out, encode_object(*obj))
    _write_bytes(out, vo_bytes)
    return out.getvalue()


def encode_error_response(error: str, error_code: int = 0) -> bytes:
    out = io.BytesIO()
    out.write(bytes([PROTOCOL_VERSION, _STATUS_ERROR, error_code or ERR_INTERNAL]))
    _write_bytes(out, error.encode("utf-8"), width=2)
    return out.getvalue()


def decode_response(payload: bytes) -> dict:
    """``{"error", "error_code"}`` or ``{"result_ids", "objects", "vo_bytes"}``."""
    data = io.BytesIO(payload)
    version = _read_exact(data, 1)[0]
    if version != PROTOCOL_VERSION:
        raise ReproError(f"unsupported protocol version {version}")
    status = _read_exact(data, 1)[0]
    if status == _STATUS_ERROR:
        code = _read_exact(data, 1)[0]
        error = _read_text(data, 2)
        _expect_end(data)
        return {"error": error, "error_code": code}
    if status != _STATUS_OK:
        raise ReproError(f"unknown status byte {status}")
    n_ids = int.from_bytes(_read_exact(data, 4), "big")
    result_ids = [
        int.from_bytes(_read_exact(data, 8), "big") for _ in range(n_ids)
    ]
    n_objects = int.from_bytes(_read_exact(data, 4), "big")
    objects = [decode_object(_read_bytes(data)) for _ in range(n_objects)]
    vo_bytes = _read_bytes(data)
    _expect_end(data)
    return {"result_ids": result_ids, "objects": objects, "vo_bytes": vo_bytes}
