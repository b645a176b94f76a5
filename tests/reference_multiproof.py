"""Reference oracles for the Merkle multiproof.

* **Per-entry paths** (:class:`MerklePath`, :func:`prove_path`,
  :func:`paths_adjacent`): one root-to-leaf authentication path per
  entry, with its position at every level — the proof shape the MB-tree
  minted before every Merkle proof became a table.  The oracles below
  are stated over them.
* **Construction** (:func:`build_multiproof`): merge one tree's
  per-entry paths into a multiproof.  This is what the SP did before
  ``MBTree.multiproof`` built the proof straight from the tree: it knows
  nothing about the tree, only the ``(entry, path)`` pairs, and rejects
  mutually inconsistent inputs.  The property tests compare the
  one-pass construction against it, field for field.
* **Positions** (:func:`leaf_positions` and the three predicates on
  them): the root-to-leaf ``(gpath, widths)`` form of first / last /
  adjacent that ``TreeMultiproof`` used before it kept one integer per
  leaf, and the mixed-radix generalized index (:func:`leaf_gindex`) it
  was named after.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mbtree import Entry, MBTree, entry_digest, leaf_digest, node_digest
from repro.core.multiproof import (
    SLOT_DESCEND,
    SLOT_HELPER,
    SLOT_LEAF,
    TreeMultiproof,
)
from repro.core.query.vo import ProvenEntry
from repro.errors import ReproError, VerificationError

from tests.reference_codec import MerkleParts, merkle_parts, merkle_table


@dataclass(frozen=True)
class PathStep:
    """One level of a path: the entry's index plus its siblings' digests."""

    index: int
    before: tuple[bytes, ...]
    after: tuple[bytes, ...]


@dataclass(frozen=True)
class MerklePath:
    """Authentication path of one leaf entry, leaf level first."""

    steps: tuple[PathStep, ...]

    def compute_root(self, entry: Entry) -> bytes:
        """Fold the path upward from ``entry``'s digest to the root."""
        current = entry_digest(entry.key, entry.value_hash)
        for level, step in enumerate(self.steps):
            digests = step.before + (current,) + step.after
            current = leaf_digest(digests) if level == 0 else node_digest(digests)
        return current

    def is_leftmost(self) -> bool:
        """True when this is the first entry of the whole tree."""
        return all(step.index == 0 for step in self.steps)

    def is_rightmost(self) -> bool:
        """True when this is the last entry of the whole tree."""
        return all(not step.after for step in self.steps)

    def byte_size(self) -> int:
        """Size in the retired frames: a depth byte, then per step a
        2-byte index and two length-prefixed digest runs."""
        digests = sum(len(s.before) + len(s.after) for s in self.steps)
        return 1 + 32 * digests + 4 * len(self.steps)


def prove_path(tree: MBTree, key: int) -> tuple[Entry, MerklePath]:
    """The entry under ``key`` with its path: one descent by minimum keys."""
    view = tree.store
    if not len(tree):
        raise ReproError(f"key {key} not present in MB-tree")
    node = view.store.root
    steps: list[PathStep] = []
    while not view.is_leaf(node):
        children = view.children(node)
        slot = len(children) - 1
        for i in range(1, len(children)):
            if key < view.min_key(children[i]):
                slot = i - 1
                break
        digests = view.child_digests(node)
        steps.append(PathStep(slot, tuple(digests[:slot]), tuple(digests[slot + 1 :])))
        node = children[slot]
    slot, found = view.leaf_find(node, key)
    if not found:
        raise ReproError(f"key {key} not present in MB-tree")
    digests = [
        entry_digest(view.leaf_key(node, s), view.leaf_value_hash(node, s))
        for s in range(view.count(node))
    ]
    steps.append(PathStep(slot, tuple(digests[:slot]), tuple(digests[slot + 1 :])))
    steps.reverse()
    return Entry(key, view.leaf_value_hash(node, slot)), MerklePath(tuple(steps))


def paths_adjacent(left: MerklePath, right: MerklePath) -> bool:
    """Whether ``left`` immediately precedes ``right`` in leaf order.

    Walking top-down, the paths agree until one divergence level where
    ``right``'s index is ``left``'s plus one in a node of the same
    width; below it ``left`` hugs the right edge and ``right`` the left
    edge of their subtrees.
    """
    if len(left.steps) != len(right.steps):
        return False
    diverged = False
    for step_l, step_r in zip(reversed(left.steps), reversed(right.steps)):
        if not diverged:
            if step_l.index == step_r.index:
                continue
            if step_r.index != step_l.index + 1:
                return False
            diverged = True
            width_l = len(step_l.before) + 1 + len(step_l.after)
            if width_l != len(step_r.before) + 1 + len(step_r.after):
                return False
        elif step_l.after or step_r.before or step_r.index != 0:
            return False
    return diverged


def leaf_gindex(gpath: tuple[int, ...], widths: tuple[int, ...]) -> int:
    """Mixed-radix generalized index of a leaf (root-to-leaf addressing).

    The ethereum/consensus-specs multiproof format addresses binary-tree
    nodes by ``gindex = 2**depth + index``; with per-node child counts
    that becomes ``g = g * width + index`` folded over the levels, which
    equals the binary form when every width is 2.  Distinct
    ``(gpath, widths)`` pairs of one tree map to distinct integers
    because each level's digit is bounded by its width.
    """
    if len(gpath) != len(widths):
        raise ReproError("gpath and widths must have equal length")
    g = 1
    for index, width in zip(gpath, widths):
        if not 0 <= index < width:
            raise ReproError(f"gpath digit {index} out of range for width {width}")
        g = g * width + index
    return g


def leaf_positions(
    mp: TreeMultiproof,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The ``(gpath, widths)`` of every proven leaf, in DFS order.

    A structure-only walk of the cover (no hashing); raises
    :class:`VerificationError` where the fold would.
    """
    mp.fold()  # structural validation
    nodes = iter(merkle_parts(mp).nodes)
    table = []

    def visit(codes, gpath, widths):
        widths = widths + (len(codes),)
        for slot, code in enumerate(codes):
            if code == SLOT_LEAF:
                table.append((gpath + (slot,), widths))
            elif code == SLOT_DESCEND:
                visit(next(nodes), gpath + (slot,), widths)

    visit(next(nodes), (), ())
    return table


def gpath_is_leftmost(mp: TreeMultiproof, ordinal: int) -> bool:
    gpath, _ = _position(mp, ordinal)
    return all(index == 0 for index in gpath)


def gpath_is_rightmost(mp: TreeMultiproof, ordinal: int) -> bool:
    gpath, widths = _position(mp, ordinal)
    return all(index == width - 1 for index, width in zip(gpath, widths))


def gpath_adjacent(mp: TreeMultiproof, left: int, right: int) -> bool:
    """The gindex re-expression of ``paths_adjacent``.

    The gpaths agree until one divergence level where the right leaf's
    digit is the left's plus one; below it the left leaf hugs its
    subtree's right edge and the right leaf its subtree's left edge.
    """
    gpath_l, widths_l = _position(mp, left)
    gpath_r, widths_r = _position(mp, right)
    diverged = False
    for level in range(merkle_parts(mp).height):
        if not diverged:
            if gpath_l[level] == gpath_r[level]:
                continue
            if gpath_r[level] != gpath_l[level] + 1:
                return False
            if widths_l[level] != widths_r[level]:
                return False
            diverged = True
        else:
            if gpath_l[level] != widths_l[level] - 1:
                return False
            if gpath_r[level] != 0:
                return False
    return diverged


def _position(mp: TreeMultiproof, ordinal: int):
    table = leaf_positions(mp)
    if not 0 <= ordinal < len(table):
        raise VerificationError(f"multiproof leaf ordinal {ordinal} out of range")
    return table[ordinal]


def compute_multiproof_indices(
    leaf_gpaths: list[tuple[int, ...]],
    leaf_widths: list[tuple[int, ...]],
) -> dict[tuple[int, ...], int]:
    """Partition the cover nodes' slots into helper/descend/leaf codes.

    Given the proven leaves' gpaths and per-level widths, returns a map
    from each cover-node *slot* (addressed by its gpath prefix, the
    root's slots being length-1 prefixes) to its slot code.  The cover
    is minimal: a slot is ``SLOT_DESCEND`` when some proven leaf passes
    through it above the leaf level, ``SLOT_LEAF`` when it *is* a proven
    leaf, and ``SLOT_HELPER`` otherwise.
    """
    if len(leaf_gpaths) != len(leaf_widths):
        raise ReproError("one widths tuple is required per leaf gpath")
    if not leaf_gpaths:
        raise ReproError("a multiproof needs at least one proven leaf")
    height = len(leaf_gpaths[0])
    on_path: set[tuple[int, ...]] = set()
    node_width: dict[tuple[int, ...], int] = {}
    for gpath, widths in zip(leaf_gpaths, leaf_widths):
        if len(gpath) != height or len(widths) != height:
            raise ReproError("all leaves of one tree must share the path depth")
        for level in range(height):
            node = gpath[:level]
            width = widths[level]
            known = node_width.setdefault(node, width)
            if known != width:
                raise ReproError(
                    f"conflicting widths {known} vs {width} for node {node}"
                )
            on_path.add(gpath[: level + 1])
    codes: dict[tuple[int, ...], int] = {}
    for node, width in node_width.items():
        for slot in range(width):
            child = node + (slot,)
            if child not in on_path:
                codes[child] = SLOT_HELPER
            elif len(child) == height:
                codes[child] = SLOT_LEAF
            else:
                codes[child] = SLOT_DESCEND
    return codes


def _path_levels(
    entry: ProvenEntry, path: MerklePath
) -> tuple[tuple[int, ...], tuple[int, ...], list[tuple[bytes, ...]]]:
    """Root-to-leaf ``(gpath, widths, per-level sibling digest rows)``."""
    gpath: list[int] = []
    widths: list[int] = []
    rows: list[tuple[bytes, ...]] = []
    for step in reversed(path.steps):
        gpath.append(step.index)
        widths.append(len(step.before) + 1 + len(step.after))
        rows.append(step.before + (b"",) + step.after)
    return tuple(gpath), tuple(widths), rows


def build_multiproof(
    proven: list[tuple[ProvenEntry, MerklePath]],
) -> tuple[TreeMultiproof, dict[tuple[int, ...], int]]:
    """Merge one tree's ``(entry, path)`` pairs into a multiproof.

    Returns the proof plus the gpath -> DFS-ordinal map (each entry's
    leaf row in the proof).  Raises
    :class:`~repro.errors.ReproError` when the paths are mutually
    inconsistent (different depths, conflicting widths or sibling
    digests, one gpath claiming two different entries) — an honest SP
    never constructs such inputs.
    """
    if not proven:
        raise ReproError("a multiproof needs at least one proven entry")
    height = len(proven[0][1].steps)
    if height < 1:
        raise ReproError("cannot build a multiproof from an empty path")
    gpaths: list[tuple[int, ...]] = []
    widths_list: list[tuple[int, ...]] = []
    slot_digest: dict[tuple[int, ...], bytes] = {}
    entry_at: dict[tuple[int, ...], tuple[int, bytes]] = {}
    for entry, path in proven:
        if len(path.steps) != height:
            raise ReproError("paths of one tree must share the depth")
        gpath, widths, rows = _path_levels(entry, path)
        leaf = (entry.object_id, entry.object_hash)
        known = entry_at.setdefault(gpath, leaf)
        if known != leaf:
            raise ReproError(f"two entries claim the tree position {gpath}")
        gpaths.append(gpath)
        widths_list.append(widths)
        for level, row in enumerate(rows):
            node = gpath[:level]
            for slot, digest in enumerate(row):
                if slot == gpath[level]:
                    continue
                key = node + (slot,)
                seen = slot_digest.setdefault(key, digest)
                if seen != digest:
                    raise ReproError(
                        f"conflicting sibling digests at slot {key}"
                    )
    codes = compute_multiproof_indices(gpaths, widths_list)
    nodes: list[tuple[int, ...]] = []
    helpers: list[bytes] = []
    leaves: list[tuple[int, bytes]] = []
    ordinals: dict[tuple[int, ...], int] = {}
    node_width: dict[tuple[int, ...], int] = {}
    for gpath, widths in zip(gpaths, widths_list):
        for level in range(height):
            node_width[gpath[:level]] = widths[level]

    # Emit in the exact order the fold consumes: slots in order, a
    # descend slot recursing into its whole subtree *before* any later
    # slot of the same node (helpers and leaves interleave with child
    # subtrees; a node-at-a-time emission would misorder them whenever
    # a helper slot follows a descend slot).  Recursion depth is the
    # tree height — logarithmic in the corpus.
    def emit(node: tuple[int, ...]) -> None:
        width = node_width[node]
        node_codes = tuple(codes[node + (slot,)] for slot in range(width))
        nodes.append(node_codes)
        for slot in range(width):
            child = node + (slot,)
            code = node_codes[slot]
            if code == SLOT_HELPER:
                helpers.append(slot_digest[child])
            elif code == SLOT_LEAF:
                ordinals[child] = len(leaves)
                leaves.append(entry_at[child])
            else:
                emit(child)

    emit(())
    return (
        merkle_table(
            MerkleParts(
                height=height,
                nodes=tuple(nodes),
                helpers=tuple(helpers),
                leaves=tuple(leaves),
            )
        ),
        ordinals,
    )
