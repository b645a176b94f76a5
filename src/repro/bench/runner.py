"""Experiment runner: regenerates every table and figure of Section VII.

Each ``experiment_*`` function reproduces one artefact of the paper's
evaluation at a configurable (default: laptop-friendly) scale and both
returns structured rows and prints them in the paper's layout.  The
defaults are scaled down from the paper's 5M/1.5M-object corpora — the
metrics of interest (relative gas cost, growth shape, who-wins ordering)
are preserved at any scale, and every experiment takes a ``--size``
style knob to push further.

Experiment index (see DESIGN.md section 4):

========  =====================================================
fig6      avg maintenance gas, DBLP: MI vs GEM^2 vs SMI
fig10     gas/object vs dataset size, DBLP & Twitter, all schemes
tab3      gas breakdown (write/read/others/total, US$), Twitter
fig11     query metrics vs #keywords, Twitter
fig12     query metrics vs #keywords, DBLP
fig13     Chameleon* metrics vs Bloom capacity b, Twitter
tab2      asymptotic growth check of maintenance costs
========  =====================================================
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro import obs
from repro.baselines.gem2 import Gem2Contract
from repro.core.objects import ObjectMetadata
from repro.core.system import HybridStorageSystem
from repro.datasets.synthetic import SyntheticDataset, dblp_like, twitter_like
from repro.datasets.workloads import ConjunctiveWorkload
from repro.ethereum.chain import Blockchain
from repro.ethereum.gas import GasMeter, gas_to_usd

#: Scheme display names used across all printed tables.
SCHEME_LABELS = {
    "mi": "MI",
    "smi": "SMI",
    "ci": "CI",
    "ci*": "CI*",
    "gem2": "GEM2",
}

#: CVC modulus used by the benches.  512 bits keeps pure-Python runs
#: fast; the relative cost picture is unchanged (see EXPERIMENTS.md).
BENCH_CVC_BITS = 512


def _dataset(name: str, size: int, seed: int = 7) -> SyntheticDataset:
    if name == "dblp":
        return dblp_like(size, seed=seed)
    if name == "twitter":
        return twitter_like(size, seed=seed)
    raise ValueError(f"unknown dataset {name!r}")


def build_system(
    scheme: str, dataset: SyntheticDataset, seed: int = 7, **kwargs
) -> HybridStorageSystem:
    """Build a system of the given scheme and ingest the whole dataset."""
    kwargs.setdefault("cvc_modulus_bits", BENCH_CVC_BITS)
    system = HybridStorageSystem(scheme=scheme, seed=seed, **kwargs)
    for obj in dataset.objects():
        system.add_object(obj)
    return system


@dataclass
class MaintenanceRow:
    """One scheme's steady-state maintenance cost at one corpus size.

    ``corpus_size`` is the total stream length; ``measured_objects`` is
    the size of the post-warm-up measurement window the averages are
    taken over.
    """

    scheme: str
    dataset: str
    corpus_size: int
    measured_objects: int
    avg_gas: float
    meter: GasMeter = field(repr=False, default_factory=GasMeter)

    @property
    def avg_usd(self) -> float:
        """Average per-object cost in US$."""
        return gas_to_usd(self.avg_gas)

    def breakdown_usd(self) -> dict[str, float]:
        """Per-object US$ split into Table III's categories."""
        n = max(1, self.measured_objects)
        return {
            "write": gas_to_usd(self.meter.write_gas / n),
            "read": gas_to_usd(self.meter.read_gas / n),
            "others": gas_to_usd(self.meter.other_gas / n),
            "total": gas_to_usd(self.meter.total / n),
        }


@contextmanager
def _counters() -> Iterator[obs.Collector]:
    """The installed collector, else a private one for the scope.

    Measurements read counter deltas against a snapshot taken in the
    scope, so an outer collector — ``repro-bench --trace-out`` — serves
    them as it is and keeps receiving the spans.
    """
    collector = obs.current()
    if collector is not None:
        yield collector
        return
    with obs.collect() as collector:
        yield collector


def _counter_delta(snap: dict, base: dict, name: str) -> int:
    return snap.get(name, 0) - base.get(name, 0)


def _meter_from_counters(snap: dict, base: dict) -> GasMeter:
    """Rebuild a :class:`GasMeter` from live ``gas.*`` counter deltas.

    This is the registry-driven replacement for walking receipts: the
    total comes from ``gas.total`` and the per-op split from
    ``gas.op.*``, which Table III's categories sum.
    """
    meter = GasMeter()
    meter.total = _counter_delta(snap, base, "gas.total")
    for name in snap:
        if name.startswith("gas.op."):
            delta = _counter_delta(snap, base, name)
            if delta:
                meter.by_operation[name[len("gas.op."):]] = delta
    return meter


def measure_maintenance(
    scheme: str,
    dataset_name: str,
    size: int,
    seed: int = 7,
    warmup_fraction: float = 0.5,
) -> MaintenanceRow:
    """Steady-state maintenance cost at dataset size ``size``.

    Ingests the full corpus but averages gas over the stream's tail
    (after ``warmup_fraction``), which amortises one-time per-keyword
    setup exactly as the paper's multi-million-object streams do: the
    reported number is "what an insertion costs once the index holds
    ~``size`` objects", the quantity Fig. 10 plots against dataset size.
    Pass ``warmup_fraction=0`` for a cold-start cumulative average.

    Gas is read from the live ``repro.obs`` counters (:func:`_counters`),
    so the breakdown is exactly the Table III accounting with no receipt
    walking.
    """
    dataset = _dataset(dataset_name, size, seed=seed)
    warmup = int(size * warmup_fraction)
    if scheme == "gem2":
        return _measure_gem2(dataset_name, dataset, size, warmup)
    with _counters() as col:
        base = col.metrics.snapshot()
        system = HybridStorageSystem(
            scheme=scheme, seed=seed, cvc_modulus_bits=BENCH_CVC_BITS
        )
        for index, obj in enumerate(dataset.objects()):
            if index == warmup:
                base = col.metrics.snapshot()
            system.add_object(obj)
        snap = col.metrics.snapshot()
    measured = _meter_from_counters(snap, base)
    measured_count = max(1, size - warmup)
    return MaintenanceRow(
        scheme=scheme,
        dataset=dataset_name,
        corpus_size=size,
        measured_objects=measured_count,
        avg_gas=measured.total / measured_count,
        meter=measured,
    )


def _measure_gem2(
    dataset_name: str, dataset: SyntheticDataset, size: int, warmup: int
) -> MaintenanceRow:
    """GEM^2 is maintenance-only: drive its contract directly."""
    with _counters() as col:
        base = col.metrics.snapshot()
        chain = Blockchain()
        chain.deploy("gem2", Gem2Contract())
        for index, obj in enumerate(dataset.objects()):
            if index == warmup:
                base = col.metrics.snapshot()
            metadata = ObjectMetadata.of(obj)
            chain.send_transaction(
                "do",
                "gem2",
                "register_and_insert",
                metadata.object_id,
                metadata.object_hash,
                metadata.keywords,
                payload=metadata.payload_bytes(),
            )
        snap = col.metrics.snapshot()
    measured = _meter_from_counters(snap, base)
    measured_count = max(1, size - warmup)
    return MaintenanceRow(
        scheme="gem2",
        dataset=dataset_name,
        corpus_size=size,
        measured_objects=measured_count,
        avg_gas=measured.total / measured_count,
        meter=measured,
    )


@dataclass
class QueryRow:
    """Average query metrics for one (scheme, #keywords) point.

    The per-phase columns (``sp_ms`` / ``chain_ms`` / ``verify_ms`` /
    ``parse_ms``) come from the live ``repro.obs`` phase histograms the
    client emits, so a benchmark row is exactly what the tracing layer
    saw.  ``sp_ms`` is the request's round trip through the in-process
    SP server (its work plus both wire codecs); ``verify_ms`` is
    ``verify_query`` alone, without decoding the VO.
    """

    scheme: str
    dataset: str
    num_keywords: int
    sp_ms: float
    vo_kb: float
    verify_ms: float
    num_queries: int
    avg_results: float
    chain_ms: float = 0.0
    parse_ms: float = 0.0
    #: Average total VO bytes (``VO_sp`` + ``VO_chain``) — the exact
    #: figure ``vo_kb`` rounds, kept in bytes for compare gates.
    vo_bytes: float = 0.0
    #: Average proof-only share of the VO: the proof tables without
    #: their ``id + hash`` rows.
    vo_proof_bytes: float = 0.0


def _phase_mean_ms(snap: dict, base: dict, name: str) -> float:
    """Average of one ``*_seconds`` phase histogram since ``base``, in
    milliseconds."""
    hist = snap.get(name)
    before = base.get(name, {"count": 0, "sum": 0.0})
    if not hist or hist["count"] == before["count"]:
        return 0.0
    return 1e3 * (hist["sum"] - before["sum"]) / (hist["count"] - before["count"])


def measure_queries(
    system: HybridStorageSystem,
    dataset: SyntheticDataset,
    num_keywords: int,
    num_queries: int,
    seed: int = 11,
) -> QueryRow:
    """Run the paper's conjunctive query protocol and average the metrics."""
    workload = ConjunctiveWorkload(
        dataset=dataset, num_keywords=num_keywords, seed=seed
    )
    return _query_row(
        system, dataset.spec.name, num_keywords, list(workload.queries(num_queries))
    )


def _query_row(
    system: HybridStorageSystem, dataset: str, num_keywords: int, queries: list
) -> QueryRow:
    """Run ``queries`` and average what the client's histograms saw."""
    vo_sizes: list[int] = []
    proof_sizes: list[int] = []
    result_counts: list[int] = []
    with _counters() as col:
        base = col.metrics.snapshot()
        for query in queries:
            result = system.query(query)
            # The paper's VO: every table in full, as a new client gets it.
            vo_sizes.append(result.vo_cold_bytes + result.vo_chain_bytes)
            proof_sizes.append(result.vo_proof_bytes)
            result_counts.append(len(result.result_ids))
        snap = col.metrics.snapshot()
    return QueryRow(
        scheme=system.scheme.value,
        dataset=dataset,
        num_keywords=num_keywords,
        sp_ms=_phase_mean_ms(snap, base, "query.sp_seconds"),
        vo_kb=statistics.mean(vo_sizes) / 1024,
        verify_ms=_phase_mean_ms(snap, base, "query.verify_seconds"),
        num_queries=len(queries),
        avg_results=statistics.mean(result_counts),
        chain_ms=_phase_mean_ms(snap, base, "query.chain_seconds"),
        parse_ms=_phase_mean_ms(snap, base, "query.parse_seconds"),
        vo_bytes=statistics.mean(vo_sizes),
        vo_proof_bytes=statistics.mean(proof_sizes),
    )


# ---------------------------------------------------------------------------
# The experiments
# ---------------------------------------------------------------------------


def experiment_fig6(size: int = 400, seed: int = 7) -> list[MaintenanceRow]:
    """Fig. 6: average maintenance gas on DBLP — MI vs GEM^2 vs SMI."""
    rows = [
        measure_maintenance(scheme, "dblp", size, seed=seed)
        for scheme in ("mi", "gem2", "smi")
    ]
    print(f"\nFig. 6 — Average Gas for Index Maintenance (DBLP, n={size})")
    print(f"{'scheme':<8}{'avg gas/object':>18}{'US$/object':>14}")
    for row in rows:
        label = SCHEME_LABELS[row.scheme]
        print(f"{label:<8}{row.avg_gas:>18,.0f}{row.avg_usd:>14.4f}")
    return rows


def experiment_fig10(
    sizes: tuple[int, ...] = (125, 250, 500, 1000),
    datasets: tuple[str, ...] = ("dblp", "twitter"),
    seed: int = 7,
) -> list[MaintenanceRow]:
    """Fig. 10: gas per object insertion vs dataset size, all schemes."""
    rows: list[MaintenanceRow] = []
    for dataset_name in datasets:
        for scheme in ("mi", "smi", "ci", "ci*"):
            for size in sizes:
                rows.append(
                    measure_maintenance(scheme, dataset_name, size, seed=seed)
                )
        print(f"\nFig. 10 — Gas Consumption vs Dataset Size ({dataset_name})")
        header = f"{'size':>8}" + "".join(
            f"{SCHEME_LABELS[s]:>14}" for s in ("mi", "smi", "ci", "ci*")
        )
        print(header)
        for size in sizes:
            cells = []
            for scheme in ("mi", "smi", "ci", "ci*"):
                row = next(
                    r
                    for r in rows
                    if r.scheme == scheme
                    and r.dataset == dataset_name
                    and r.corpus_size == size
                )
                cells.append(f"{row.avg_gas:>14,.0f}")
            print(f"{size:>8}" + "".join(cells))
    return rows


def experiment_tab3(size: int = 500, seed: int = 7) -> list[MaintenanceRow]:
    """Table III: gas cost breakdown in US$ per object (Twitter)."""
    rows = [
        measure_maintenance(scheme, "twitter", size, seed=seed)
        for scheme in ("mi", "smi", "ci", "ci*")
    ]
    print(f"\nTable III — Gas Cost Breakdown in US$ (Twitter, n={size})")
    print(
        f"{'ADS':<6}{'Write':>10}{'Read':>10}{'Others':>10}{'Total':>10}"
    )
    for row in rows:
        split = row.breakdown_usd()
        print(
            f"{SCHEME_LABELS[row.scheme]:<6}"
            f"{split['write']:>10.4f}{split['read']:>10.4f}"
            f"{split['others']:>10.4f}{split['total']:>10.4f}"
        )
    return rows


def _experiment_query(
    dataset_name: str,
    figure: str,
    size: int,
    keyword_counts: tuple[int, ...],
    num_queries: int,
    seed: int,
) -> list[QueryRow]:
    dataset = _dataset(dataset_name, size, seed=seed)
    rows: list[QueryRow] = []
    # MI and SMI share identical query machinery; measure one and label
    # it for both, exactly as the paper notes ("their performances are
    # exactly the same").
    systems = {
        scheme: build_system(scheme, _dataset(dataset_name, size, seed=seed))
        for scheme in ("mi", "ci", "ci*")
    }
    for count in keyword_counts:
        for scheme, system in systems.items():
            rows.append(
                measure_queries(system, dataset, count, num_queries, seed=seed)
            )
    print(
        f"\n{figure} — Query Processing & Verification "
        f"({dataset_name}, n={size}, {num_queries} queries/point)"
    )
    print(
        f"{'#kw':>4}{'scheme':>8}{'SP CPU (ms)':>14}"
        f"{'VO size (KB)':>14}{'verify (ms)':>14}{'avg results':>13}"
    )
    for row in rows:
        label = SCHEME_LABELS[row.scheme] + (
            "/SMI" if row.scheme == "mi" else ""
        )
        print(
            f"{row.num_keywords:>4}{label:>8}{row.sp_ms:>14.2f}"
            f"{row.vo_kb:>14.2f}{row.verify_ms:>14.2f}{row.avg_results:>13.1f}"
        )
    return rows


def experiment_fig11(
    size: int = 400,
    keyword_counts: tuple[int, ...] = (2, 4, 6, 8, 10),
    num_queries: int = 10,
    seed: int = 7,
) -> list[QueryRow]:
    """Fig. 11: query metrics vs #keywords on Twitter."""
    return _experiment_query(
        "twitter", "Fig. 11", size, keyword_counts, num_queries, seed
    )


def experiment_fig12(
    size: int = 400,
    keyword_counts: tuple[int, ...] = (2, 4, 6, 8, 10),
    num_queries: int = 10,
    seed: int = 7,
) -> list[QueryRow]:
    """Fig. 12: query metrics vs #keywords on DBLP."""
    return _experiment_query(
        "dblp", "Fig. 12", size, keyword_counts, num_queries, seed
    )


def experiment_fig13(
    size: int = 400,
    capacities: tuple[int, ...] = (20, 30, 40, 50),
    num_keywords: int = 4,
    num_queries: int = 10,
    seed: int = 7,
) -> list[QueryRow]:
    """Fig. 13: Chameleon* query metrics vs Bloom capacity ``b``."""
    rows: list[QueryRow] = []
    dataset = _dataset("twitter", size, seed=seed)
    for capacity in capacities:
        system = build_system(
            "ci*",
            _dataset("twitter", size, seed=seed),
            bloom_capacity=capacity,
        )
        row = measure_queries(
            system, dataset, num_keywords, num_queries, seed=seed
        )
        row.scheme = f"b={capacity}"
        rows.append(row)
    print(
        f"\nFig. 13 — Chameleon* Performance vs b "
        f"(Twitter, n={size}, {num_keywords} keywords)"
    )
    print(
        f"{'b':>6}{'SP CPU (ms)':>14}{'VO size (KB)':>14}{'verify (ms)':>14}"
    )
    for row in rows:
        print(
            f"{row.scheme:>6}{row.sp_ms:>14.2f}"
            f"{row.vo_kb:>14.2f}{row.verify_ms:>14.2f}"
        )
    return rows


def experiment_tab2(
    sizes: tuple[int, ...] = (200, 400, 800),
    seed: int = 7,
) -> dict[str, list[MaintenanceRow]]:
    """Table II check: maintenance growth — MI grows ~log n, CI is flat."""
    growth: dict[str, list[MaintenanceRow]] = {}
    for scheme in ("mi", "smi", "ci", "ci*"):
        growth[scheme] = [
            measure_maintenance(scheme, "twitter", size, seed=seed)
            for size in sizes
        ]
    print("\nTable II check — avg gas/object as n doubles (Twitter)")
    print(f"{'scheme':<8}" + "".join(f"{f'n={s}':>14}" for s in sizes))
    for scheme, rows in growth.items():
        print(
            f"{SCHEME_LABELS[scheme]:<8}"
            + "".join(f"{row.avg_gas:>14,.0f}" for row in rows)
        )
    return growth


def experiment_disjunctive(
    size: int = 300,
    conjunction_counts: tuple[int, ...] = (1, 2, 3, 4),
    keywords_per_conjunction: int = 2,
    num_queries: int = 8,
    seed: int = 7,
) -> list[QueryRow]:
    """Disjunctive (DNF) queries: metrics vs number of conjunctions.

    The paper reports that disjunctive conditions show "similar
    performance trends" and omits the figures; this experiment supplies
    them: each added conjunctive component contributes an independent
    join, so all metrics grow roughly linearly in the component count.
    """
    from repro.datasets.workloads import DisjunctiveWorkload

    dataset = _dataset("twitter", size, seed=seed)
    systems = [
        build_system(scheme, _dataset("twitter", size, seed=seed))
        for scheme in ("mi", "ci*")
    ]
    rows: list[QueryRow] = []
    for count in conjunction_counts:
        workload = DisjunctiveWorkload(
            dataset=dataset,
            num_conjunctions=count,
            keywords_per_conjunction=keywords_per_conjunction,
            seed=seed,
        )
        queries = list(workload.queries(num_queries))
        for system in systems:
            rows.append(_query_row(system, "twitter", count, queries))
    print(
        f"\nDisjunctive queries — metrics vs #conjunctions "
        f"(Twitter, n={size}, {keywords_per_conjunction} keywords each)"
    )
    print(
        f"{'#conj':>6}{'scheme':>8}{'SP CPU (ms)':>14}"
        f"{'VO size (KB)':>14}{'verify (ms)':>14}{'avg results':>13}"
    )
    for row in rows:
        label = SCHEME_LABELS[row.scheme] + ("/SMI" if row.scheme == "mi" else "")
        print(
            f"{row.num_keywords:>6}{label:>8}{row.sp_ms:>14.2f}"
            f"{row.vo_kb:>14.2f}{row.verify_ms:>14.2f}{row.avg_results:>13.1f}"
        )
    return rows


def experiment_query(
    size: int = 400,
    keyword_counts: tuple[int, ...] = (2, 4, 6),
    num_queries: int = 10,
    seed: int = 7,
    dataset_name: str = "twitter",
) -> list[QueryRow]:
    """Query bench with VO byte attribution (wire vs proof-only).

    Same protocol as Fig. 11 but the table splits every row's VO size
    into total wire bytes and the proof-only share (the tables without
    their ``id + hash`` rows), so bandwidth wins are attributable per
    scheme.
    """
    dataset = _dataset(dataset_name, size, seed=seed)
    systems = {
        scheme: build_system(scheme, _dataset(dataset_name, size, seed=seed))
        for scheme in ("mi", "ci", "ci*")
    }
    rows: list[QueryRow] = []
    for count in keyword_counts:
        for system in systems.values():
            rows.append(
                measure_queries(system, dataset, count, num_queries, seed=seed)
            )
    print(
        f"\nQuery — VO byte attribution "
        f"({dataset_name}, n={size}, {num_queries} queries/point)"
    )
    print(
        f"{'#kw':>4}{'scheme':>8}{'SP CPU (ms)':>14}{'VO (B)':>10}"
        f"{'proof (B)':>11}{'verify (ms)':>14}{'avg results':>13}"
    )
    for row in rows:
        label = SCHEME_LABELS[row.scheme] + (
            "/SMI" if row.scheme == "mi" else ""
        )
        print(
            f"{row.num_keywords:>4}{label:>8}{row.sp_ms:>14.2f}"
            f"{row.vo_bytes:>10.0f}{row.vo_proof_bytes:>11.0f}"
            f"{row.verify_ms:>14.2f}{row.avg_results:>13.1f}"
        )
    return rows


EXPERIMENTS = {
    "fig6": experiment_fig6,
    "fig10": experiment_fig10,
    "tab3": experiment_tab3,
    "fig11": experiment_fig11,
    "fig12": experiment_fig12,
    "fig13": experiment_fig13,
    "tab2": experiment_tab2,
    "disj": experiment_disjunctive,
    "query": experiment_query,
}


def run_all(fast: bool = True) -> None:
    """Run every experiment back to back (the full paper sweep)."""
    started = time.perf_counter()
    for name, fn in EXPERIMENTS.items():
        fn()
    elapsed = time.perf_counter() - started
    print(f"\nAll experiments finished in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# JSON export
# ---------------------------------------------------------------------------


def rows_to_jsonable(result) -> object:
    """Convert an experiment's return value into JSON-ready structures.

    Handles the three shapes the experiments produce: a list of
    :class:`MaintenanceRow` (gas meter expanded into the Table III
    categories and the per-op split), a list of :class:`QueryRow`
    (including the registry-derived per-phase columns), and the
    ``tab2`` dict of scheme -> rows.
    """
    if isinstance(result, dict):
        return {key: rows_to_jsonable(rows) for key, rows in result.items()}
    if isinstance(result, list):
        return [rows_to_jsonable(row) for row in result]
    if isinstance(result, MaintenanceRow):
        return {
            "scheme": result.scheme,
            "dataset": result.dataset,
            "corpus_size": result.corpus_size,
            "measured_objects": result.measured_objects,
            "avg_gas": result.avg_gas,
            "avg_usd": result.avg_usd,
            "gas": {
                "total": result.meter.total,
                "write": result.meter.write_gas,
                "read": result.meter.read_gas,
                "others": result.meter.other_gas,
                "by_operation": dict(result.meter.by_operation),
            },
            "breakdown_usd": result.breakdown_usd(),
        }
    if isinstance(result, QueryRow):
        return dataclasses.asdict(result)
    if hasattr(result, "to_json"):
        return result.to_json()
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        return dataclasses.asdict(result)
    return result
