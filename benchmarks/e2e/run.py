"""End-to-end benchmark: DO ingest -> chain -> SP -> wire bytes -> client verify.

Contract mode (what ``BENCHMARK.json``'s command runs)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Suite mode (no ``--workload``) runs every workload in a fresh interpreter
each, so ``peak_rss_mb`` is per workload; ``--trace`` adds the traced run,
``--repeat K`` repeats the suite on the same seed and checks the spread of
every metric against its bound.  Numbers and the run manifest land in
``out/latest.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(REPO / "src"))

#: Units whose metrics are wall-clock or memory measurements; every other
#: metric is a count that must repeat exactly for the same seed.
MEASURED_UNITS = {"s", "ms", "objects/s", "1/s", "MB", "%"}

#: What ``DiskShardEngine`` does by default; stated, not changed.
FLUSH_POLICY = (
    "journal append + flush() to the OS per record batch, no fsync; "
    "fsync on checkpoint (compact) and on close"
)


def load_contract() -> dict:
    """``BENCHMARK.json`` is the one list of workloads, metrics and bounds."""
    return json.loads((REPO / "BENCHMARK.json").read_text())


def machine() -> dict:
    """Facts about the box and checkout that produced the numbers."""
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(REPO.parent)},
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a repository
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "disk_flush_policy": FLUSH_POLICY,
    }


def run_one(args) -> int:
    """Contract mode: one workload, one seed, in this process."""
    from harness import BenchmarkInvalid, run_workload
    from workloads import BY_NAME, scaled

    contract = load_contract()
    workload = scaled(BY_NAME[args.workload], args.scale)
    try:
        result = run_workload(
            workload, args.seed, args.seconds, bool(args.trace), OUT
        )
    except BenchmarkInvalid as exc:
        print(f"INVALID {workload.name}: {exc}", file=sys.stderr)
        return 1
    manifest = result["manifest"]
    print(
        f"workload {workload.name} seed {args.seed} trace {args.trace}: "
        f"N={manifest['objects']} ({manifest['postings']} postings) "
        f"Q={manifest['queries']} chunk={manifest['chunk']} "
        f"passes={result['passes']} "
        f"p90_samples_beyond={manifest['p90_samples_beyond']}"
    )
    print(
        "  negative controls rejected with: "
        + ", ".join(f"{k}={v}" for k, v in result["controls"].items())
    )
    # Not in BENCHMARK.json's list, whose metrics may never read 0; the
    # result line carries it as ``failed`` of ``attempted``.
    failed_share = result["failed"] / result["attempted"]
    print(f"  {'failed_share':<36} {failed_share:>16.6f} share")
    if result["failed"]:
        print(f"INVALID {workload.name}: operations failed", file=sys.stderr)
        return 1
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for spec in contract[section]:
        value = result[section][spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        wall = result["wall"].get(spec["name"]) if not args.trace else None
        print(
            f"  {spec['name']:<36} {value:>16.6f} {spec['unit']}"
            + (f"  (uncorrected wall clock: {wall:.6f})" if wall else "")
        )
    OUT.mkdir(parents=True, exist_ok=True)
    if args.trace:
        result["recorder"].write_jsonl(OUT / f"trace-{workload.name}.jsonl")
    line = {
        "correct": True,
        "attempted": result["attempted"],
        "failed": 0,
        "metrics": metrics,
    }
    record = {
        **line,
        "manifest": {**manifest, **machine()},
        "wall": result["wall"],
    }
    (OUT / f"result-{workload.name}-{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps(line))
    return 0


def run_suite(args) -> int:
    """Every workload, each in its own interpreter; ``--repeat`` of them."""
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    modes = [0, 1] if args.trace else [0]
    runs: dict[tuple[str, int], list[dict]] = {}
    for repeat in range(args.repeat):
        for name in names:
            for mode in modes:
                command = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", name,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(mode),
                    "--scale", str(args.scale),
                ]
                if subprocess.run(command).returncode != 0:
                    print(f"FAILED: {name} --trace {mode}", file=sys.stderr)
                    return 1
                record = json.loads(
                    (OUT / f"result-{name}-{mode}.json").read_text()
                )
                runs.setdefault((name, mode), []).append(record)
    latest = {
        "machine": machine(),
        "seed": args.seed,
        "workloads": {
            name: {
                "manifest": runs[name, 0][-1]["manifest"],
                "end_to_end": runs[name, 0][-1]["metrics"],
                "per_layer": runs[name, 1][-1]["metrics"] if args.trace else None,
            }
            for name in names
        },
    }
    status = 0
    if args.repeat > 1:
        latest["spread"], status = check_spread(contract, runs)
    (OUT / "latest.json").write_text(json.dumps(latest, indent=1))
    print(f"wrote {OUT / 'latest.json'}")
    return status


def check_spread(contract: dict, runs: dict) -> tuple[dict, int]:
    """(max - min) / median of each metric over the repeats of one seed.

    A count must repeat exactly; a measured end-to-end metric must stay
    within its bound; per-layer measurements have no bound and are shown.
    """
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    spreads: dict[str, dict[str, float]] = {}
    bad = 0
    for (name, mode), records in sorted(runs.items()):
        print(f"{name} --trace {mode}: spread over {len(records)} runs")
        for metric in records[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in records]
            unit = records[0]["metrics"][metric]["unit"]
            middle = statistics.median(values)
            if max(values) == min(values):
                spread = 0.0
            else:
                spread = (max(values) - min(values)) / middle if middle else float("inf")
            spreads.setdefault(name, {})[metric] = spread
            if unit not in MEASURED_UNITS:
                ok, verdict = spread == 0, "exact"
            elif metric in bounds:
                ok, verdict = spread <= bounds[metric], f"bound {bounds[metric]:.0%}"
            else:
                ok, verdict = True, "no bound"
            bad += not ok
            print(f"  {metric:<36} {spread:>8.2%}  {verdict}{'' if ok else ' FAILED'}")
    if bad:
        print(f"{bad} metrics outside their bounds", file=sys.stderr)
    return spreads, 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in-process")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="query-phase budget: passes beyond the third only while one fits",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 adds the traced pass and reports the per-layer metrics",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="run the suite this often on the one seed and check the spreads",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="fraction of each workload's size (the smoke test uses 0.05)",
    )
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = load_contract()["run_seconds"]
    return run_one(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
