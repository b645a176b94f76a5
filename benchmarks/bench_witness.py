"""Batch witness engine benchmark and its acceptance gates.

Runs the witness experiment (per-scheme naive / fast-path / warmed cold
verification and the ``open_all`` divide-and-conquer micro-bench), writes
the rows to ``BENCH_witness.json`` at the repo root, and asserts the
acceptance criteria:

* warming delivers >= 5x over the fast-path cold pass on the Chameleon
  scheme (the headline number; the committed JSON shows ~200x at full
  corpus — 5x is the conservative CI floor);
* ``open_all`` beats per-slot opening by >= 2x, cold, bit-identically;
* client verification passes after batched ingest from an empty cache
  and on the warmed system.
"""

import json
import pathlib

from repro.bench.witness import experiment_witness

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_witness.json"


def test_witness_engine(benchmark, size_small):
    rows = benchmark.pedantic(
        experiment_witness,
        kwargs={"size": max(60, size_small), "repeats": 2},
        rounds=1,
        iterations=1,
    )
    payload = {
        "experiment": "witness",
        "seed": 7,
        "rows": {
            "schemes": [row.to_json() for row in rows["schemes"]],
            "open_all": rows["open_all"].to_json(),
        },
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    by_scheme = {row.scheme: row for row in rows["schemes"]}
    for row in rows["schemes"]:
        # Correctness gates hold for every scheme and every mode.
        assert row.batch_verified, row
        assert row.warmed_verified, row

    ci = by_scheme["ci"]
    benchmark.extra_info["ci_warm_speedup_cold"] = round(ci.speedup_cold, 2)
    assert ci.speedup_cold >= 5.0, ci

    open_all = rows["open_all"]
    benchmark.extra_info["open_all_speedup"] = round(open_all.speedup, 2)
    assert open_all.identical, open_all
    assert open_all.speedup >= 2.0, open_all
