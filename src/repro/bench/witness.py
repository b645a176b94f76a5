"""Batch witness engine benchmark: D&C openings and cache warming.

Quantifies the two layers of the batch witness engine on top of the
PR-2 fast path:

* **divide-and-conquer openings** — :func:`repro.crypto.vc.open_all`
  computes every slot opening of one commitment in ``O(k log k)``
  multiplications versus ``O(k^2)`` for per-slot openings with cold
  tables (the ``open_all`` micro row, gated >= 2x in CI);
* **cache warming** — the :class:`repro.sp.warmer.CacheWarmer`
  pre-verifies hot keywords' proofs into the shared verification cache,
  collapsing the post-insert cold query to warm-cache latency (the
  per-scheme ``warmed_cold_ms`` column; CI gates the CI scheme at
  >= 5x over the PR-2 fast-path cold pass).

The per-scheme rows also time batched ingest (``ingest_ms`` — for CI/CI*
the data owner's trapdoor openings) and check that client verification
passes from an empty cache and on the warmed system.
``repro-bench --exp witness --json BENCH_witness.json`` records the rows.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from repro.bench.fastpath import FastpathRow, _hot_query, measure_fastpath
from repro.bench.runner import BENCH_CVC_BITS, SCHEME_LABELS
from repro.core.proofcache import VerificationCache
from repro.core.query.parser import KeywordQuery
from repro.core.query.verify import verify_query
from repro.core.system import HybridStorageSystem
from repro.crypto import vc
from repro.crypto.numbers import clear_fixed_base_tables
from repro.datasets.synthetic import dblp_like

#: Objects per batched DO transaction — sized so a chunk's on-chain
#: work fits one block's gas budget across schemes.
INGEST_CHUNK = 8


@dataclass
class WitnessRow:
    """Cold/warm verification cost of one scheme across engine modes."""

    scheme: str
    corpus_size: int
    repeats: int
    query: str
    results: int
    naive_cold_ms: float  # fast path and cache off (PR-1 baseline)
    fastpath_cold_ms: float  # fast path on, cold cache (PR-2 baseline)
    fastpath_cached_ms: float  # fast path on, warm cache
    warmed_cold_ms: float  # first query after background warming
    ingest_ms: float  # batched transactions of INGEST_CHUNK objects
    batch_verified: bool  # client verification after batched ingest
    warmed_verified: bool  # client verification on the warmed system

    @property
    def speedup_cold(self) -> float:
        """Cold-path gain of warming over the PR-2 fast path."""
        if not self.warmed_cold_ms:
            return 0.0
        return self.fastpath_cold_ms / self.warmed_cold_ms

    def to_json(self) -> dict:
        data = dataclasses.asdict(self)
        data["speedup_cold"] = self.speedup_cold
        return data


@dataclass
class OpenAllRow:
    """``open_all`` micro: one commitment, every slot, cold tables."""

    arity: int
    modulus_bits: int
    per_slot_cold_ms: float
    batch_cold_ms: float
    identical: bool  # D&C openings == per-slot openings, bit for bit

    @property
    def speedup(self) -> float:
        return (
            self.per_slot_cold_ms / self.batch_cold_ms
            if self.batch_cold_ms
            else 0.0
        )

    def to_json(self) -> dict:
        data = dataclasses.asdict(self)
        data["speedup"] = self.speedup
        return data


def _timed_pass(system: HybridStorageSystem, query, answer) -> float:
    """One verification pass against the system's *current* cache."""
    ps = system.chain_proof_system(query.all_keywords())
    t0 = time.perf_counter()
    verify_query(query, answer, ps)
    return time.perf_counter() - t0


def measure_witness(
    scheme: str, size: int, repeats: int, seed: int
) -> WitnessRow:
    """Engine-mode comparison for one scheme.

    Ingests the corpus in batched transactions and measures the cold
    query after warming against the PR-2 fast-path numbers from
    :func:`repro.bench.fastpath.measure_fastpath`.
    """
    fast: FastpathRow = measure_fastpath(scheme, size, repeats, seed)
    objects = list(dblp_like(size, seed=seed).objects())
    batched = HybridStorageSystem(
        scheme=scheme,
        seed=seed,
        cvc_modulus_bits=BENCH_CVC_BITS,
        witness_warmer=True,
        warm_hot_threshold=0,
    )
    t0 = time.perf_counter()
    # One block's gas bounds the batch.
    for start in range(0, len(objects), INGEST_CHUNK):
        batched.add_objects_batched(objects[start:start + INGEST_CHUNK])
    ingest = time.perf_counter() - t0

    text = _hot_query(objects)
    query = KeywordQuery.parse(text)
    answer_batch = batched.process_query(query)

    # Batch-mode client verification from scratch: empty cache, so a
    # wrong batched witness cannot hide behind a prior verification.
    batched.verify_cache = VerificationCache()
    ps = batched.chain_proof_system(query.all_keywords())
    batch_verified = verify_query(query, answer_batch, ps).ids == set(
        answer_batch.result_ids
    )

    # Warm the query's keywords ahead of time (the eager on-insert
    # policy), then measure the "cold" query they no longer pay for.
    # Warming starts from an empty cache and (for the CVC schemes) cold
    # fixed-base tables, exactly as a background warmer after an insert
    # burst would — the one-off costs move off the query path.
    if batched.uses_cvc:
        clear_fixed_base_tables()
    batched.verify_cache = VerificationCache()
    for keyword in sorted(query.all_keywords()):
        batched.warmer.warm(keyword)
    warmed = min(
        _timed_pass(batched, query, answer_batch) for _ in range(repeats)
    )
    warmed_verified = batched.query(text).verified

    batched.close()
    return WitnessRow(
        scheme=scheme,
        corpus_size=size,
        repeats=repeats,
        query=text,
        results=len(answer_batch.result_ids),
        naive_cold_ms=fast.naive_ms,
        fastpath_cold_ms=fast.fast_first_ms,
        fastpath_cached_ms=fast.fast_cached_ms,
        warmed_cold_ms=1e3 * warmed,
        ingest_ms=1e3 * ingest,
        batch_verified=batch_verified,
        warmed_verified=warmed_verified,
    )


def measure_open_all(
    arity: int = 16,
    modulus_bits: int = BENCH_CVC_BITS,
    seed: int = 7,
) -> OpenAllRow:
    """Divide-and-conquer versus per-slot openings, cold tables.

    At ``arity`` slots the pair-base working set exceeds the fixed-base
    table cache, so the per-slot path cannot amortise table setup — the
    regime the D&C recursion is built for.
    """
    pp, _td = vc.keygen(arity, modulus_bits=modulus_bits, seed=seed)
    messages = [f"object-{i}".encode() for i in range(arity)]
    with vc.fastpath(False):
        _c, aux = vc.commit(pp, messages, randomiser=12345)

    with vc.fastpath(True):
        clear_fixed_base_tables()
        t0 = time.perf_counter()
        per_slot = vc.open_many(
            pp, list(range(1, arity + 1)), aux, strategy="per-slot"
        )
        per_slot_s = time.perf_counter() - t0

        clear_fixed_base_tables()
        t1 = time.perf_counter()
        batch = vc.open_all(pp, aux, strategy="batch")
        batch_s = time.perf_counter() - t1

    return OpenAllRow(
        arity=arity,
        modulus_bits=modulus_bits,
        per_slot_cold_ms=1e3 * per_slot_s,
        batch_cold_ms=1e3 * batch_s,
        identical=batch == per_slot,
    )


def experiment_witness(
    size: int = 150,
    repeats: int = 4,
    seed: int = 7,
    schemes: tuple[str, ...] = ("ci", "ci*", "smi"),
) -> dict:
    """Batch witness engine benchmark across schemes plus micro rows."""
    rows = [
        measure_witness(scheme, size, repeats, seed) for scheme in schemes
    ]
    open_all_row = measure_open_all(seed=seed)

    print(
        f"\nBatch witness engine — repeated-entry DNF query "
        f"(DBLP-like, n={size}, {repeats} passes)"
    )
    print(
        f"{'scheme':<8}{'naive (ms)':>12}{'fast cold':>11}"
        f"{'cached':>9}{'warmed':>9}{'warm x':>8}{'ingest':>9}{'ok':>7}"
    )
    for row in rows:
        print(
            f"{SCHEME_LABELS[row.scheme]:<8}{row.naive_cold_ms:>12.2f}"
            f"{row.fastpath_cold_ms:>11.2f}{row.fastpath_cached_ms:>9.2f}"
            f"{row.warmed_cold_ms:>9.2f}{row.speedup_cold:>8.1f}"
            f"{row.ingest_ms:>9.1f}"
            f"{str(row.batch_verified and row.warmed_verified):>7}"
        )
    print(
        f"\nopen_all micro (arity {open_all_row.arity}, "
        f"{open_all_row.modulus_bits}-bit, cold tables): "
        f"per-slot {open_all_row.per_slot_cold_ms:.1f} ms, "
        f"D&C {open_all_row.batch_cold_ms:.1f} ms "
        f"({open_all_row.speedup:.1f}x, identical={open_all_row.identical})"
    )
    return {
        "schemes": rows,
        "open_all": open_all_row,
    }
