"""Reference oracles for the Merkle multiproof.

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

from repro.core.mbtree import MerklePath
from repro.core.multiproof import (
    SLOT_DESCEND,
    SLOT_HELPER,
    SLOT_LEAF,
    TreeMultiproof,
)
from repro.errors import ReproError, VerificationError
from tests.legacy_vo import ProvenEntry


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
    mp.fold_root()  # structural validation
    nodes = iter(mp.nodes)
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
    for level in range(mp.height):
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

    Returns the proof plus the gpath -> DFS-ordinal map the caller uses
    to rewrite each entry's proof into a :class:`LeafRef`.  Raises
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
        TreeMultiproof(
            height=height,
            nodes=tuple(nodes),
            helpers=tuple(helpers),
            leaves=tuple(leaves),
        ),
        ordinals,
    )
