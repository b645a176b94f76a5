"""Ablation studies for the design choices DESIGN.md calls out.

Beyond the paper's own experiments, these sweeps isolate the impact of
five design parameters:

* ``fanout`` — the MB-tree fan-out F trades UpdVO width (txdata per
  level) against tree depth (number of levels) in the SMI index;
* ``arity`` — the Chameleon tree arity q trades proof-chain depth
  against per-node CVC width in the CI index;
* ``join order`` — smallest-trees-first (footnote 3) vs the naive
  caller order;
* ``join plan`` — the cyclic walk, the semi-join and the rule that picks
  between them, per scheme and conjunction size;
* ``batch size`` — amortising the 21,000-gas transaction base cost
  across batched Chameleon insertions.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from repro.bench.runner import BENCH_CVC_BITS, _dataset, measure_queries
from repro.core.multiproof import compress_query_vo
from repro.core.query.join import conjunctive_join
from repro.core.query.vo import QueryVO
from repro.core.system import HybridStorageSystem
from repro.datasets.workloads import ConjunctiveWorkload
from repro.ethereum.gas import GAS_TXDATA_PER_BYTE, gas_to_usd


@dataclass
class AblationRow:
    """One configuration's measurements (metric names are free-form)."""

    parameter: str
    value: object
    metrics: dict[str, float]


def ablation_fanout(
    size: int = 200,
    fanouts: tuple[int, ...] = (3, 4, 6, 8),
    seed: int = 7,
) -> list[AblationRow]:
    """SMI maintenance cost and UpdVO volume as the fan-out F varies.

    Wider nodes mean shallower trees (fewer UpdVO levels) but more
    digests per level; the paper fixes F=4 by the 32-byte word bound.
    """
    rows = []
    for fanout in fanouts:
        system = HybridStorageSystem(scheme="smi", fanout=fanout, seed=seed)
        system.add_objects(_dataset("twitter", size, seed=seed).objects())
        meter = system.maintenance_meter()
        txdata_bytes = meter.by_operation.get("txdata", 0) / GAS_TXDATA_PER_BYTE
        rows.append(
            AblationRow(
                parameter="fanout",
                value=fanout,
                metrics={
                    "avg_gas": meter.total / size,
                    "avg_usd": gas_to_usd(meter.total / size),
                    "txdata_bytes_per_obj": txdata_bytes / size,
                },
            )
        )
    print(f"\nAblation — SMI maintenance vs MB-tree fan-out (Twitter, n={size})")
    print(f"{'F':>4}{'avg gas/obj':>14}{'US$/obj':>10}{'UpdVO B/obj':>13}")
    for row in rows:
        print(
            f"{row.value:>4}{row.metrics['avg_gas']:>14,.0f}"
            f"{row.metrics['avg_usd']:>10.4f}"
            f"{row.metrics['txdata_bytes_per_obj']:>13.0f}"
        )
    return rows


def ablation_arity(
    size: int = 150,
    arities: tuple[int, ...] = (2, 3, 4),
    num_queries: int = 5,
    seed: int = 7,
) -> list[AblationRow]:
    """CI query metrics as the Chameleon tree arity q varies.

    Higher arity shortens membership-proof chains (depth log_q n) but
    widens each node's CVC, growing key material and per-level work.
    """
    rows = []
    dataset = _dataset("twitter", size, seed=seed)
    for arity in arities:
        system = HybridStorageSystem(
            scheme="ci", arity=arity, cvc_modulus_bits=BENCH_CVC_BITS, seed=seed
        )
        system.add_objects(_dataset("twitter", size, seed=seed).objects())
        query_row = measure_queries(system, dataset, 2, num_queries, seed=seed)
        rows.append(
            AblationRow(
                parameter="arity",
                value=arity,
                metrics={
                    "vo_kb": query_row.vo_kb,
                    "verify_ms": query_row.verify_ms,
                    "sp_ms": query_row.sp_ms,
                },
            )
        )
    print(f"\nAblation — CI query metrics vs tree arity q (Twitter, n={size})")
    print(f"{'q':>4}{'VO (KB)':>10}{'verify (ms)':>13}{'SP (ms)':>10}")
    for row in rows:
        print(
            f"{row.value:>4}{row.metrics['vo_kb']:>10.2f}"
            f"{row.metrics['verify_ms']:>13.2f}{row.metrics['sp_ms']:>10.2f}"
        )
    return rows


def _compare(
    parameter: str,
    settings: dict[str, tuple[str, str | None]],
    title: str,
    scheme: str,
    dataset: str,
    size: int,
    num_keywords: int,
    num_queries: int,
    seed: int,
) -> list[AblationRow]:
    """A row per ``(order, plan)`` setting: the SP's join over its own
    views (a plan the client refuses is measured, never sent), the
    paper's VO (every table in full, plus ``VO_chain``) and the join and
    prove time; every setting must find the same results."""
    data = _dataset(dataset, size, seed=seed)
    system = HybridStorageSystem(scheme=scheme, seed=seed, cvc_modulus_bits=BENCH_CVC_BITS)
    system.add_objects(data.objects())
    workload = ConjunctiveWorkload(dataset=data, num_keywords=num_keywords, seed=seed)
    queries = list(workload.queries(num_queries))
    rows: list[AblationRow] = []
    reference = None
    for value, (order, plan) in settings.items():
        results, vo_sizes, sp_times = [], [], []
        for query in queries:
            t0 = time.perf_counter()
            outcomes = [
                conjunctive_join(
                    [system.sp_index.view(kw) for kw in sorted(conj)], order=order, plan=plan
                )
                for conj in query.conjunctions
            ]
            vo = compress_query_vo(QueryVO(conjuncts=tuple(vo for _, vo in outcomes)))
            sp_times.append(time.perf_counter() - t0)
            chain = system.chain_proof_system(query.all_keywords())
            vo_sizes.append(vo.byte_size() + chain.chain_digest_bytes())
            results.append(sorted({oid for ids, _ in outcomes for oid in ids}))
        if reference is None:
            reference = results
        elif results != reference:
            raise AssertionError(f"{parameter} settings must agree on results")
        metrics = {
            "vo_kb": statistics.mean(vo_sizes) / 1024,
            "sp_ms": 1e3 * statistics.mean(sp_times),
        }
        rows.append(AblationRow(parameter=parameter, value=value, metrics=metrics))
    system.close()
    print(f"\nAblation — {title} ({dataset}, n={size}, {num_keywords}-keyword conjunctions)")
    print(f"{parameter:>10}{'VO (KB)':>10}{'SP (ms)':>10}")
    for row in rows:
        print(f"{row.value:>10}{row.metrics['vo_kb']:>10.2f}{row.metrics['sp_ms']:>10.2f}")
    return rows


def ablation_join_order(
    size: int = 300,
    num_queries: int = 10,
    num_keywords: int = 4,
    seed: int = 7,
) -> list[AblationRow]:
    """Smallest-trees-first vs naive join order (VO size, SP time)."""
    settings = {"size": ("size", None), "given": ("given", None)}
    return _compare(
        "join_order", settings, "SMI join order",
        "smi", "twitter", size, num_keywords, num_queries, seed,
    )


def ablation_batch_size(
    size: int = 120,
    batch_sizes: tuple[int, ...] = (1, 4, 16),
    seed: int = 7,
) -> list[AblationRow]:
    """CI maintenance gas per object as DO batching amortises ``C_tx``."""
    rows = []
    for batch_size in batch_sizes:
        system = HybridStorageSystem(
            scheme="ci", cvc_modulus_bits=BENCH_CVC_BITS, seed=seed
        )
        objects = list(_dataset("twitter", size, seed=seed).objects())
        for start in range(0, len(objects), batch_size):
            system.add_objects_batched(objects[start : start + batch_size])
        avg_gas = system.average_gas_per_object()
        rows.append(
            AblationRow(
                parameter="batch_size",
                value=batch_size,
                metrics={
                    "avg_gas": avg_gas,
                    "avg_usd": gas_to_usd(avg_gas),
                },
            )
        )
    print(f"\nAblation — CI gas/object vs DO batch size (Twitter, n={size})")
    print(f"{'batch':>6}{'avg gas/obj':>14}{'US$/obj':>10}")
    for row in rows:
        print(
            f"{row.value:>6}{row.metrics['avg_gas']:>14,.0f}"
            f"{row.metrics['avg_usd']:>10.4f}"
        )
    return rows


def ablation_join_plan(
    size: int = 300,
    num_queries: int = 8,
    num_keywords: int = 6,
    seed: int = 7,
    scheme: str = "smi",
    dataset: str = "twitter",
) -> list[AblationRow]:
    """Cyclic k-way walk vs semi-join plan vs the rule that picks one
    (:func:`~repro.core.query.join.rule_plan`): VO size and SP time.

    The semi-join walks the two smallest trees, then probes only their
    common IDs in each further tree; under CI* a Bloom filter can
    dismiss such a probe before any row is read.
    """
    settings = {
        "cyclic": ("size", "cyclic"),
        "semijoin": ("size", "semijoin"),
        "rule": ("size", None),
    }
    return _compare(
        "join_plan", settings, f"{scheme.upper()} multiway join plan",
        scheme, dataset, size, num_keywords, num_queries, seed,
    )


ABLATIONS = {
    "abl-fanout": ablation_fanout,
    "abl-arity": ablation_arity,
    "abl-join-order": ablation_join_order,
    "abl-plan": ablation_join_plan,
    "abl-batch": ablation_batch_size,
}
