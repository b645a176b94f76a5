"""``--exp multiproof``: VO compression benchmark, ``vo_version`` 2 vs 3.

Measures what the multiproof tables buy on the paper's high-selectivity
regime (Fig. 11/12): for each Merkle-family scheme and each target
keyword selectivity, the same DNF workload runs against two identically
built systems — one pinned to the legacy v2 VO frame (the walk's rounds,
per-entry :class:`~repro.core.mbtree.MerklePath` proofs) and one at the
default ``vo_version=3`` (one deduplicated
:class:`~repro.core.multiproof.TreeMultiproof` per tree and nothing
else: the v5 frame, whose join the client replays) — and the row records
both wire and proof-only bytes plus client verify time.  The ``*_v3``
columns are the ``vo_version=3`` side, whatever frame it emits.

Alongside the size/timing metrics each row carries the correctness
invariants the CI gate pins:

* ``results_identical`` — compression never changes the result set;
* ``roots_identical`` — every multiproof folds to exactly the set of
  roots the per-entry v2 paths prove against;
* ``all_verified`` — both frames pass client verification;
* ``proof_shrink_ge_2x`` — the headline ≥2× proof-byte reduction at
  high selectivity;
* ``verify_no_worse`` — v3 client verification within
  :data:`VERIFY_SLACK` of v2 (byte counts are deterministic, wall time
  is not, hence the slack band).

``repro bench compare BENCH_multiproof.json <fresh>`` then fails on any
``True -> False`` invariant flip and on tolerance-banded byte/time
regressions.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass

from repro.bench.runner import SCHEME_LABELS, _dataset, build_system
from repro.core.mbtree import Entry, MerklePath
from repro.core.query.parser import KeywordQuery
from repro.core.query.vo import iter_proven_entries

#: Target posting-list selectivities (fraction of the corpus).
SELECTIVITIES = (0.001, 0.01, 0.10)

#: Schemes whose query proofs are Merkle paths (the compressible ones).
SCHEMES = ("mi", "smi")

#: v3 verify time may exceed v2 by at most this factor before the
#: ``verify_no_worse`` invariant flips (wall-clock noise band; the
#: deterministic byte metrics carry the real gate).
VERIFY_SLACK = 1.5

#: Absolute grace on the verify comparison: sub-millisecond points
#: (0.1% selectivity answers in ~0.1 ms) are pure scheduler noise, and
#: a boolean invariant ignores the compare tolerance — without a floor
#: the low-selectivity rows would flake CI.
VERIFY_GRACE_MS = 0.5


@dataclass
class MultiproofRow:
    """One (scheme, selectivity) comparison point, v2 vs v3."""

    scheme: str
    dataset: str
    selectivity: str  # target, e.g. "1%" — part of the row identity
    corpus_size: int
    queries: int
    avg_results: float
    vo_bytes_v2: float
    vo_bytes_v3: float
    proof_bytes_v2: float
    proof_bytes_v3: float
    vo_shrink_speedup: float
    proof_shrink_speedup: float
    verify_v2_ms: float
    verify_v3_ms: float
    results_identical: bool
    roots_identical: bool
    all_verified: bool
    proof_shrink_ge_2x: bool
    verify_no_worse: bool


def _keyword_frequencies(name: str, size: int, seed: int) -> Counter:
    """Posting-list lengths of the exact corpus ``build_system`` ingests."""
    counts: Counter = Counter()
    for obj in _dataset(name, size, seed=seed).objects():
        counts.update(set(obj.keywords))
    return counts


def _keywords_near(
    counts: Counter, size: int, target: float, how_many: int
) -> list[str]:
    """The ``how_many`` keywords whose selectivity is nearest ``target``."""
    ranked = sorted(
        counts,
        key=lambda kw: (abs(counts[kw] / size - target), kw),
    )
    return ranked[:how_many]


def _dnf_queries(pool: list[str], count: int) -> list[KeywordQuery]:
    """Deterministic 2x2 DNF queries over a nearest-selectivity pool."""
    queries = []
    for i in range(count):
        picks = [pool[(i + j) % len(pool)] for j in range(4)]
        queries.append(
            KeywordQuery.parse(
                f"({picks[0]} AND {picks[1]}) OR ({picks[2]} AND {picks[3]})"
            )
        )
    return queries


def _merkle_roots(vo) -> set[bytes]:
    """Every root provable from a VO, from either proof representation."""
    roots = {mp.fold_root() for mp in vo.multiproofs}
    for entry in iter_proven_entries(vo):
        if isinstance(entry.proof, MerklePath):
            roots.add(
                entry.proof.compute_root(
                    Entry(key=entry.object_id, value_hash=entry.object_hash)
                )
            )
    return roots


def experiment_multiproof(
    size: int = 400,
    num_queries: int = 5,
    seed: int = 7,
    dataset_name: str = "twitter",
) -> list[MultiproofRow]:
    """VO bytes and verify time, v2 vs v3, across selectivities."""
    counts = _keyword_frequencies(dataset_name, size, seed)
    rows: list[MultiproofRow] = []
    for scheme in SCHEMES:
        v3 = build_system(scheme, _dataset(dataset_name, size, seed=seed))
        v2 = build_system(
            scheme, _dataset(dataset_name, size, seed=seed), vo_version=2
        )
        for target in SELECTIVITIES:
            pool = _keywords_near(counts, size, target, how_many=8)
            queries = _dnf_queries(pool, num_queries)
            vo2, vo3, pf2, pf3 = [], [], [], []
            t2, t3, nres = [], [], []
            identical = verified = True
            roots_ok = True
            for query in queries:
                r2 = v2.query(query)
                r3 = v3.query(query)
                identical = identical and r2.result_ids == r3.result_ids
                verified = verified and r2.verified and r3.verified
                a2 = v2.process_query(query)
                a3 = v3.process_query(query)
                roots_ok = roots_ok and (
                    _merkle_roots(a2.vo) == _merkle_roots(a3.vo)
                )
                vo2.append(r2.vo_total_bytes)
                vo3.append(r3.vo_total_bytes)
                pf2.append(r2.vo_proof_bytes)
                pf3.append(r3.vo_proof_bytes)
                t2.append(r2.verify_seconds)
                t3.append(r3.verify_seconds)
                nres.append(len(r3.result_ids))
            mean = statistics.mean
            proof_shrink = mean(pf2) / max(mean(pf3), 1e-9)
            verify_v2_ms = 1e3 * mean(t2)
            verify_v3_ms = 1e3 * mean(t3)
            rows.append(
                MultiproofRow(
                    scheme=scheme,
                    dataset=dataset_name,
                    selectivity=f"{100 * target:g}%",
                    corpus_size=size,
                    queries=num_queries,
                    avg_results=mean(nres),
                    vo_bytes_v2=mean(vo2),
                    vo_bytes_v3=mean(vo3),
                    proof_bytes_v2=mean(pf2),
                    proof_bytes_v3=mean(pf3),
                    vo_shrink_speedup=mean(vo2) / max(mean(vo3), 1e-9),
                    proof_shrink_speedup=proof_shrink,
                    verify_v2_ms=verify_v2_ms,
                    verify_v3_ms=verify_v3_ms,
                    results_identical=identical,
                    roots_identical=roots_ok,
                    all_verified=verified,
                    proof_shrink_ge_2x=proof_shrink >= 2.0,
                    verify_no_worse=verify_v3_ms
                    <= VERIFY_SLACK * verify_v2_ms + VERIFY_GRACE_MS,
                )
            )
    print(
        f"\nMultiproof VO compression — v2 vs v3 "
        f"({dataset_name}, n={size}, {num_queries} DNF queries/point)"
    )
    print(
        f"{'scheme':<8}{'sel':>6}{'proof v2 (B)':>14}{'proof v3 (B)':>14}"
        f"{'shrink':>8}{'verify v2':>11}{'verify v3':>11}{'ok':>4}"
    )
    for row in rows:
        ok = (
            row.results_identical
            and row.roots_identical
            and row.all_verified
            and row.proof_shrink_ge_2x
        )
        print(
            f"{SCHEME_LABELS.get(row.scheme, row.scheme):<8}"
            f"{row.selectivity:>6}{row.proof_bytes_v2:>14.0f}"
            f"{row.proof_bytes_v3:>14.0f}{row.proof_shrink_speedup:>7.2f}x"
            f"{row.verify_v2_ms:>10.2f}m{row.verify_v3_ms:>10.2f}m"
            f"{'✓' if ok else '✗':>4}"
        )
    return rows
