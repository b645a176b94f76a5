"""Ablation benches: the design-choice sweeps DESIGN.md calls out.

Each bench runs one ablation at reduced scale, attaches the measured
numbers as ``extra_info`` and asserts the qualitative claim the design
relies on.
"""

from repro.bench.ablations import (
    ablation_arity,
    ablation_batch_size,
    ablation_fanout,
    ablation_join_plan,
)


def test_ablation_fanout(benchmark, size_small):
    rows = benchmark.pedantic(
        ablation_fanout,
        kwargs={"size": size_small, "fanouts": (3, 4, 8)},
        rounds=1,
        iterations=1,
    )
    gas = {row.value: row.metrics["avg_gas"] for row in rows}
    benchmark.extra_info.update({str(k): round(v) for k, v in gas.items()})
    # The paper's F=4 must not be worse than the extremes of the sweep.
    assert gas[4] <= max(gas[3], gas[8])


def vo_at_sizes(benchmark, ablation, sizes, **kwargs):
    """Run ``ablation`` once per size (one benchmarked round); VO KB per
    configuration, per size."""
    def run():
        return {
            size: {
                row.value: row.metrics["vo_kb"]
                for row in ablation(size=size, **kwargs)
            }
            for size in sizes
        }

    vo = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {f"{k}@{size}": round(v, 2) for size, row in vo.items() for k, v in row.items()}
    )
    return vo


def test_ablation_arity(benchmark, size_small):
    small = max(60, size_small // 2)
    vo = vo_at_sizes(
        benchmark, ablation_arity, (small, 4 * small), arities=(2, 4)
    )
    # A q=4 node-table row carries a whole-vector opening over five
    # slots: at n=60 that costs more than the shorter chains save
    # (4.03 vs 3.88 KB), and by n=240 the shorter chains win (14.00 vs
    # 14.58 KB).  EXPERIMENTS.md, "Ablations", has the history.
    assert vo[small][4] > vo[small][2]
    assert vo[4 * small][4] < vo[4 * small][2]


def test_ablation_join_plan(benchmark, size_small):
    vo = vo_at_sizes(
        benchmark, ablation_join_plan, (size_small, 5 * size_small), num_queries=5
    )
    # SMI, 6-keyword conjunctions.  Probing the smallest tree first,
    # the cyclic walk ships no more than the semi-join plan: less at
    # n=120 (1.63 vs 1.71 KB), equal within 1 % at n=600 (4.00 vs
    # 3.99 KB).
    small, large = vo[size_small], vo[5 * size_small]
    assert small["cyclic"] < small["semijoin"]
    assert abs(large["semijoin"] / large["cyclic"] - 1) < 0.01
    # Merkle trees carry no filters: the join rule walks them cyclically.
    assert small["rule"] == small["cyclic"] and large["rule"] == large["cyclic"]


def test_ablation_join_plan_cistar(benchmark):
    vo = vo_at_sizes(
        benchmark,
        ablation_join_plan,
        (128,),
        num_queries=40,
        num_keywords=3,
        scheme="ci*",
        dataset="dblp",
    )[128]
    # CI* at the cistar_selective shape: the semi-join plan probes only
    # the two smallest trees' common IDs in the third tree, where a
    # Bloom filter can dismiss a probe unread, and ships 21.6 % less;
    # the join rule picks it.
    assert vo["semijoin"] < 0.9 * vo["cyclic"]
    assert vo["rule"] == vo["semijoin"]


def test_ablation_batch_size(benchmark, size_small):
    rows = benchmark.pedantic(
        ablation_batch_size,
        kwargs={"size": max(40, size_small // 2), "batch_sizes": (1, 8)},
        rounds=1,
        iterations=1,
    )
    gas = {row.value: row.metrics["avg_gas"] for row in rows}
    benchmark.extra_info.update({str(k): round(v) for k, v in gas.items()})
    # Batching amortises C_tx: strictly cheaper per object.
    assert gas[8] < gas[1]
