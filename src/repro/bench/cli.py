"""Command-line entry point: ``repro-bench`` / ``python -m repro.bench``.

Examples::

    repro-bench --exp fig6
    repro-bench --exp fig10 --size 2000
    repro-bench --exp fig11 --trace-out fig11_trace.jsonl
    repro-bench --exp all
"""

from __future__ import annotations

import argparse
import contextlib
import json

from repro import obs
from repro.bench import runner
from repro.bench.ablations import ABLATIONS


def build_parser() -> argparse.ArgumentParser:
    """Construct the command-line argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=(
            "Regenerate the tables and figures of 'Authenticated Keyword "
            "Search in Scalable Hybrid-Storage Blockchains' (ICDE 2021)."
        ),
    )
    parser.add_argument(
        "--exp",
        default="all",
        choices=sorted(runner.EXPERIMENTS) + sorted(ABLATIONS) + ["all"],
        help="which experiment or ablation to run (default: all)",
    )
    parser.add_argument(
        "--size",
        type=int,
        default=None,
        help="override the dataset size (objects); defaults are per-experiment",
    )
    parser.add_argument(
        "--queries",
        type=int,
        default=None,
        help="queries per data point for the query experiments",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="workload seed (default 7)"
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the experiment's rows (with the per-phase "
        "observability columns) to PATH as JSON",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="collect the run's span trace and dump it as JSON lines "
        "for external tools",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    collector = None
    with contextlib.ExitStack() as stack:
        if args.trace_out is not None:
            collector = stack.enter_context(obs.collect())
        if args.exp == "all":
            runner.run_all()
            result = None
        else:
            fn = runner.EXPERIMENTS.get(args.exp) or ABLATIONS[args.exp]
            kwargs: dict = {"seed": args.seed}
            if args.size is not None:
                if args.exp in ("fig10",):
                    kwargs["sizes"] = tuple(
                        max(1, args.size // factor) for factor in (8, 4, 2, 1)
                    )
                elif args.exp in ("tab2",):
                    kwargs["sizes"] = tuple(
                        max(1, args.size // factor) for factor in (4, 2, 1)
                    )
                else:
                    kwargs["size"] = args.size
            if args.queries is not None and args.exp in (
                "fig11",
                "fig12",
                "fig13",
                "query",
            ):
                kwargs["num_queries"] = args.queries
            result = fn(**kwargs)
    if result is not None and args.json is not None:
        payload = {
            "experiment": args.exp,
            "seed": args.seed,
            "rows": runner.rows_to_jsonable(result),
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, default=str)
        print(f"wrote rows to {args.json}")
    if collector is not None:
        obs.write_jsonl(collector.spans, args.trace_out)
        print(f"wrote {len(collector.spans)} spans to {args.trace_out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
