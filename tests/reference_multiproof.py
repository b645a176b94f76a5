"""Reference oracle: merge one tree's per-entry paths into a multiproof.

This is the construction the SP used before `MBTree.multiproof` built the
proof straight from the tree: it knows nothing about the tree, only the
``(entry, path)`` pairs, and rejects mutually inconsistent inputs.  Kept
under ``tests/`` as the independent implementation the property tests
compare the one-pass construction against, field for field.
"""

from __future__ import annotations

from repro.core.mbtree import MerklePath
from repro.core.multiproof import (
    SLOT_DESCEND,
    SLOT_HELPER,
    SLOT_LEAF,
    TreeMultiproof,
)
from repro.core.query.vo import ProvenEntry
from repro.errors import ReproError


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
