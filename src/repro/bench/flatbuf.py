"""``--exp flatbuf``: flat-buffer node storage benchmark.

Measures what the contiguous-blob node store (PR 10) buys over the
object-graph trees it replaced, on the two axes that motivated it:

* **resident memory** — the same MB-trees materialised twice under
  :mod:`tracemalloc`, once from their flat-buffer blobs (the live
  representation: one ``bytearray`` per tree) and once as a faithful
  ``__slots__`` object-graph replica of the pre-refactor layout (one
  Python object per node, one per entry, digests as ``bytes``).  The
  replica is the *conservative* reconstruction — the historical nodes
  carried more state, so the real saving is at least what this reports;
* **cold-restart recovery** — a :class:`~repro.sp.engine.DiskShardEngine`
  re-opened over the same corpus twice: once recovering by replaying
  its JSONL journal record by record (the only recovery path before
  checkpoints), once loading the mmap'd flat-buffer checkpoint that
  ``snapshot()`` wrote.  Both recoveries must agree on every tree root
  and every entry.

Alongside the size/timing metrics the row carries the invariants the
CI gate pins:

* ``roots_identical`` / ``entries_identical`` — checkpoint loading is
  transparent: same roots, same entries as journal replay;
* ``mem_shrink_ge_2x`` — the headline ≥2x resident-memory reduction;
* ``restart_ge_5x`` — the headline ≥5x cold-restart speedup.

``repro bench compare BENCH_flatbuf.json <fresh>`` then fails on any
``True -> False`` invariant flip and on tolerance-banded regressions of
the byte/time/throughput metrics.
"""

from __future__ import annotations

import tempfile
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

from repro.core.merkle_family import MerkleInvertedSP
from repro.core.mbtree import Entry, MBTree
from repro.core.sp_frontend import CHUNK_RECORDS
from repro.crypto.hashing import sha3
from repro.sp.engine import DiskShardEngine

#: Keywords the synthetic postings are spread over: a handful of large
#: trees (the million-object regime is few hot keywords, deep trees).
DEFAULT_KEYWORDS = 4

#: MB-tree fanout (the system default).
FANOUT = 4


class _GraphLeaf:
    """Pre-refactor leaf node: an :class:`Entry` list + cached digest."""

    __slots__ = ("entries", "digest")

    def __init__(self, entries: list[Entry], digest: bytes) -> None:
        self.entries = entries
        self.digest = digest


class _GraphInternal:
    """Pre-refactor internal node: child refs + cached digest."""

    __slots__ = ("children", "digest")

    def __init__(self, children: list[object], digest: bytes) -> None:
        self.children = children
        self.digest = digest


def _graph_replica(tree: MBTree) -> tuple[object | None, list[int]]:
    """Rebuild the tree as the object graph the old layout stored.

    The replica mirrors the replaced classes field for field: slotted
    leaf/internal nodes caching one digest each, one frozen-dataclass
    :class:`Entry` per posting (per-instance ``__dict__``, exactly as
    shipped), plus the tree-level sorted key registry the old boundary
    search maintained.  Per-entry digests, which the flat layout caches
    inline, were *recomputed* per rehash back then, so the replica
    omits them — the comparison under-counts the old layout if
    anything.
    """
    view = tree.store

    def build(index: int) -> object:
        if view.is_leaf(index):
            entries = [
                Entry(
                    key=view.leaf_key(index, slot),
                    value_hash=view.leaf_value_hash(index, slot),
                )
                for slot in range(view.count(index))
            ]
            return _GraphLeaf(entries, view.digest(index))
        children = [build(child) for child in view.children(index)]
        return _GraphInternal(children, view.digest(index))

    keys = [entry.key for entry in tree.iter_entries()]
    if len(tree) == 0:
        return None, keys
    return build(view.store.root), keys


def _traced(build) -> tuple[object, int]:
    """Run ``build`` under tracemalloc; (result, allocated bytes)."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = build()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, after - before


@dataclass
class FlatbufRow:
    """The flat-buffer storage comparison at one corpus size."""

    corpus_size: int
    keywords: int
    fanout: int
    build_ms: float
    build_objects_per_s: float
    blob_bytes: int
    graph_bytes: int
    memory_shrink_speedup: float
    journal_bytes: int
    checkpoint_bytes: int
    replay_recovery_ms: float
    blob_recovery_ms: float
    speedup_cold_restart: float
    roots_identical: bool
    entries_identical: bool
    mem_shrink_ge_2x: bool
    restart_ge_5x: bool


def _tree_state(engine: DiskShardEngine) -> dict[str, tuple]:
    return {
        kw: (tree.root_hash, len(tree))
        for kw, tree in engine.index.trees.items()
    }


def _entries_of(engine: DiskShardEngine) -> dict[str, list]:
    return {
        kw: list(tree.iter_entries())
        for kw, tree in engine.index.trees.items()
    }


def experiment_flatbuf(
    size: int = 100_000,
    keywords: int = DEFAULT_KEYWORDS,
    seed: int = 7,
) -> list[FlatbufRow]:
    """Flat-buffer vs object-graph storage at ``size`` postings.

    ``seed`` keeps the CLI signature uniform; the workload is already
    deterministic (sequential IDs, hashes derived from them).
    """
    factory = lambda: MerkleInvertedSP(fanout=FANOUT)  # noqa: E731
    with tempfile.TemporaryDirectory(prefix="repro-flatbuf-") as tmp:
        directory = Path(tmp)

        # -- build: ingest the postings through the journaled engine ----
        engine = DiskShardEngine(0, factory, directory)
        started = time.perf_counter()
        # In the SP front-end's chunks: one journal append per chunk.
        for start in range(0, size, CHUNK_RECORDS):
            engine.apply_records(
                [
                    {
                        "op": "entry",
                        "kw": f"kw{i % keywords}",
                        "id": i + 1,
                        "hash": sha3(i.to_bytes(8, "big")).hex(),
                    }
                    for i in range(start, min(start + CHUNK_RECORDS, size))
                ]
            )
        build_s = time.perf_counter() - started
        engine.close()
        journal_bytes = (directory / "shard-000.jsonl").stat().st_size

        # -- cold restart, journey one: record-by-record replay ---------
        started = time.perf_counter()
        replayed = DiskShardEngine(0, factory, directory)
        replay_s = time.perf_counter() - started
        state = _tree_state(replayed)
        entries = _entries_of(replayed)

        # -- resident memory: blob vs object-graph replica --------------
        blobs = [
            tree.to_blob() for _, tree in sorted(replayed.index.trees.items())
        ]
        rebuilt, blob_bytes = _traced(
            lambda: [MBTree.from_blob(blob) for blob in blobs]
        )
        graphs, graph_bytes = _traced(
            lambda: [_graph_replica(tree) for tree in rebuilt]
        )
        del graphs, rebuilt

        # -- checkpoint, then cold restart journey two: mmap the blob ---
        replayed.snapshot()
        replayed.close()
        checkpoint_bytes = (directory / "shard-000.ckpt").stat().st_size
        started = time.perf_counter()
        loaded = DiskShardEngine(0, factory, directory)
        blob_s = time.perf_counter() - started
        roots_identical = _tree_state(loaded) == state
        entries_identical = _entries_of(loaded) == entries
        loaded.close()

    mem_shrink = graph_bytes / max(blob_bytes, 1)
    restart = replay_s / max(blob_s, 1e-9)
    row = FlatbufRow(
        corpus_size=size,
        keywords=keywords,
        fanout=FANOUT,
        build_ms=1e3 * build_s,
        build_objects_per_s=size / max(build_s, 1e-9),
        blob_bytes=blob_bytes,
        graph_bytes=graph_bytes,
        memory_shrink_speedup=mem_shrink,
        journal_bytes=journal_bytes,
        checkpoint_bytes=checkpoint_bytes,
        replay_recovery_ms=1e3 * replay_s,
        blob_recovery_ms=1e3 * blob_s,
        speedup_cold_restart=restart,
        roots_identical=roots_identical,
        entries_identical=entries_identical,
        mem_shrink_ge_2x=mem_shrink >= 2.0,
        restart_ge_5x=restart >= 5.0,
    )
    print(
        f"\nFlat-buffer node storage — blob vs object graph "
        f"({size:,} postings over {keywords} keywords, fanout {FANOUT})"
    )
    print(
        f"  build:        {row.build_ms:,.0f} ms "
        f"({row.build_objects_per_s:,.0f} postings/s)"
    )
    print(
        f"  memory:       blob {row.blob_bytes:,} B vs graph "
        f"{row.graph_bytes:,} B ({row.memory_shrink_speedup:.1f}x smaller)"
    )
    print(
        f"  cold restart: replay {row.replay_recovery_ms:,.0f} ms vs "
        f"checkpoint {row.blob_recovery_ms:,.1f} ms "
        f"({row.speedup_cold_restart:.1f}x faster)"
    )
    print(
        f"  journal {row.journal_bytes:,} B -> checkpoint "
        f"{row.checkpoint_bytes:,} B; roots_identical="
        f"{row.roots_identical} entries_identical={row.entries_identical}"
    )
    return [row]
