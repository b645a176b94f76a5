"""Report what one client session sends and receives per query.

Builds an end-to-end workload's corpus (``benchmarks/e2e/workloads.py``,
read only), ingests it, and asks the workload's query list once through
``system.query`` as a timed pass of the benchmark does: from an empty
proof cache, warmed first by the warm-up list for a ``warm_sessions``
workload.  Prints, per query on average, the request bytes (the
query text and the tables and rows the session lists) and the VO bytes
(``VO_sp`` as received plus ``VO_chain``, the benchmark's
``vo_bytes_per_query``), and ``VO_sp`` as a client holding nothing would
receive it::

    PYTHONPATH=src python tools/session_bytes.py smi_selective [--seed 7]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e.workloads import BY_NAME, generate, query_text  # noqa: E402
from repro import HybridStorageSystem  # noqa: E402


def session_bytes(name: str, seed: int) -> dict:
    """The per-query means of one session of workload ``name``."""
    workload = BY_NAME[name]
    inputs = generate(workload, seed)
    arguments = dict(workload.system)
    arguments.pop("engine", None)  # memory engines: bytes do not depend on it
    system = HybridStorageSystem(scheme=workload.scheme, seed=seed, **arguments)
    try:
        system.add_objects(inputs.objects)
        warmup = [query_text(query) for query in inputs.warmup]
        for text in warmup:
            system.query(text)
        system.verify_cache.clear()
        for text in warmup if workload.warm_sessions else ():
            system.query(text)
        results = [system.query(query_text(query)) for query in inputs.queries]
    finally:
        system.close()
    return {
        "workload": name,
        "seed": seed,
        "queries": len(results),
        "request_bytes_per_query": statistics.fmean(r.request_bytes for r in results),
        "vo_bytes_per_query": statistics.fmean(
            r.vo_sp_bytes + r.vo_chain_bytes for r in results
        ),
        "vo_cold_bytes_per_query": statistics.fmean(r.vo_cold_bytes for r in results),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    print(json.dumps(session_bytes(args.workload, args.seed)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
