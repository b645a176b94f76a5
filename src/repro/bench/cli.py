"""Command-line entry point: ``repro-bench`` / ``python -m repro.bench``.

Examples::

    repro-bench --exp fig6
    repro-bench --exp fig10 --size 2000
    repro-bench --exp fig11 --profile --trace-out fig11_trace.jsonl
    repro-bench --exp all
"""

from __future__ import annotations

import argparse
import contextlib
import json

from repro import obs
from repro.bench import runner
from repro.bench.ablations import ABLATIONS
from repro.obs.profiler import SamplingProfiler


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
        "--profile",
        action="store_true",
        help="run under the sampling profiler and print the span-"
        "attributed profile (see also --profile-interval/--profile-out)",
    )
    parser.add_argument(
        "--profile-interval",
        type=float,
        default=25.0,
        metavar="MS",
        help="sampling interval in milliseconds (default %(default)s)",
    )
    parser.add_argument(
        "--profile-out",
        metavar="PATH",
        default=None,
        help="with --profile, also write the full profile report as JSON",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="collect the run's span trace and dump it as JSON lines "
        "(analyse with `repro obs critpath`); experiments that scope "
        "their own collector keep those sections out of this trace",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    collector = profiler = None
    with contextlib.ExitStack() as stack:
        # Order matters: the collector must be live before the profiler
        # starts so samples attribute to the spans being recorded.
        if args.trace_out is not None:
            collector = stack.enter_context(obs.collect())
        if args.profile:
            profiler = stack.enter_context(
                SamplingProfiler(interval_s=args.profile_interval / 1e3)
            )
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
    if profiler is not None:
        print()
        print(profiler.render())
        if args.profile_out is not None:
            with open(args.profile_out, "w") as handle:
                json.dump(profiler.to_dict(), handle, indent=2)
            print(f"wrote profile to {args.profile_out}")
    if collector is not None:
        obs.write_jsonl(collector.spans, args.trace_out)
        print(f"wrote {len(collector.spans)} spans to {args.trace_out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
