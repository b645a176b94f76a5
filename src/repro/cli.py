"""``repro`` — command-line front end for the hybrid-storage system.

A small operational CLI over the persistence layer (event-sourced
snapshots; see :mod:`repro.core.persistence`).  State lives in a
directory; every command replays the object log, applies its action and
re-saves.  Intended for exploration and demos — long-lived deployments
should embed the library directly.

Examples::

    repro init ./registry --scheme ci* --seed 42
    repro add ./registry --id 1 --keywords covid-19,vaccine --content "trial"
    repro add ./registry --from-jsonl corpus.jsonl
    repro query ./registry "covid-19 AND vaccine"
    repro obs trace ./registry "covid-19 AND vaccine" --trace-out t.jsonl
    repro obs critpath t.jsonl --workers 4
    repro bench compare --baseline BENCH_fastpath.json --current fresh.json
    repro info ./registry
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import sys
from pathlib import Path

from repro import obs
from repro.core.objects import DataObject
from repro.core.persistence import load_system, save_system
from repro.core.system import HybridStorageSystem
from repro.errors import ReproError
from repro.ethereum.gas import gas_to_usd


def build_parser() -> argparse.ArgumentParser:
    """Construct the command-line argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Authenticated keyword search over a hybrid-storage "
        "blockchain (ICDE 2021 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    init = sub.add_parser("init", help="create a new system directory")
    init.add_argument("directory")
    init.add_argument(
        "--scheme", default="ci*", choices=["mi", "smi", "ci", "ci*"]
    )
    init.add_argument("--seed", type=int, default=7)
    init.add_argument("--fanout", type=int, default=4)
    init.add_argument("--arity", type=int, default=2)
    init.add_argument("--bloom-capacity", type=int, default=30)
    init.add_argument(
        "--shards",
        type=int,
        default=1,
        help="keyword partitions served by independent shard engines",
    )
    init.add_argument(
        "--engine",
        default="memory",
        choices=["memory", "disk"],
        help="shard engine kind (disk journals live under the system "
        "directory and are rebuilt on load)",
    )
    init.add_argument(
        "--pool",
        default="stateless",
        choices=["stateless", "affine"],
        help="where the shard engines live: 'stateless' in this process; "
        "'affine' keeps each shard's engine resident in a long-lived "
        "worker process and ships only posting deltas per batch",
    )

    add = sub.add_parser("add", help="notarise one or more objects")
    add.add_argument("directory")
    add.add_argument("--id", type=int, help="object ID (monotonic)")
    add.add_argument("--keywords", help="comma-separated keywords")
    add.add_argument("--content", help="object content (text)")
    add.add_argument(
        "--from-jsonl",
        help="bulk-add from a JSONL file with id/keywords/content fields",
    )

    query = sub.add_parser("query", help="run a verified keyword search")
    query.add_argument("directory")
    query.add_argument("expression", help='e.g. "covid-19 AND vaccine"')
    query.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    obs_cmd = sub.add_parser(
        "obs",
        help="observability: traced queries and trace analysis",
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    obs_trace = obs_sub.add_parser(
        "trace",
        help="run a query under the observability layer and show the trace",
    )
    obs_trace.add_argument("directory")
    obs_trace.add_argument("expression", help='e.g. "covid-19 AND vaccine"')
    obs_trace.add_argument(
        "--trace-out",
        metavar="PATH",
        help="also dump the span trace as JSON lines to PATH",
    )
    obs_trace.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    obs_crit = obs_sub.add_parser(
        "critpath",
        help="attribute a JSONL trace: critical path, per-phase "
        "self-time, parallelism efficiency",
    )
    obs_crit.add_argument(
        "trace", help="JSONL trace file (written by --trace-out)"
    )
    obs_crit.add_argument(
        "--root",
        help="analyse the critical path under root spans of this name "
        "(default: the longest root)",
    )
    obs_crit.add_argument(
        "--workers",
        type=int,
        help="efficiency denominator: configured worker count "
        "(default: observed lanes)",
    )
    obs_crit.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    bench_cmd = sub.add_parser(
        "bench",
        help="benchmark baselines: regression compare and trend history",
    )
    bench_sub = bench_cmd.add_subparsers(dest="bench_command", required=True)
    bench_compare = bench_sub.add_parser(
        "compare",
        help="diff a fresh bench JSON against a committed baseline "
        "with per-metric tolerance bands",
    )
    bench_compare.add_argument(
        "--baseline", required=True, help="committed baseline BENCH_*.json"
    )
    bench_compare.add_argument(
        "--current", required=True, help="freshly generated bench JSON"
    )
    bench_compare.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed relative regression on timing metrics "
        "(0.25 = 25%% slower still passes; default %(default)s)",
    )
    bench_compare.add_argument(
        "--trend-out",
        metavar="PATH",
        help="append a one-line comparison record to this JSONL trend log",
    )
    bench_compare.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    compact = sub.add_parser(
        "compact",
        help="checkpoint disk shard journals into flat-buffer snapshots "
        "and truncate the replayed records",
    )
    compact.add_argument("directory")
    compact.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    info = sub.add_parser("info", help="show system statistics")
    info.add_argument("directory")
    return parser


def _seed_of(directory: str) -> int:
    manifest = json.loads(
        (Path(directory) / "manifest.json").read_text()
    )
    return manifest["seed"]


def cmd_init(args) -> int:
    """Handle ``repro init``."""
    system = HybridStorageSystem(
        scheme=args.scheme,
        seed=args.seed,
        fanout=args.fanout,
        arity=args.arity,
        bloom_capacity=args.bloom_capacity,
        shards=args.shards,
        engine=args.engine,
        pool=args.pool,
        engine_dir=(
            Path(args.directory) / "shard-journals"
            if args.engine == "disk"
            else None
        ),
    )
    path = save_system(system, args.directory, seed=args.seed)
    print(
        f"initialised {args.scheme} system at {path} "
        f"({args.shards} shard(s), {args.engine} engine)"
    )
    return 0


def _objects_from_args(args):
    if args.from_jsonl:
        with open(args.from_jsonl) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                content = record["content"]
                if isinstance(content, str):
                    try:
                        raw = base64.b64decode(content, validate=True)
                    except Exception:
                        raw = content.encode("utf-8")
                else:
                    raw = bytes(content)
                yield DataObject(
                    object_id=record["id"],
                    keywords=tuple(record["keywords"]),
                    content=raw,
                )
        return
    if args.id is None or not args.keywords or args.content is None:
        raise ReproError(
            "either --from-jsonl or all of --id/--keywords/--content required"
        )
    yield DataObject(
        object_id=args.id,
        keywords=tuple(k for k in args.keywords.split(",") if k.strip()),
        content=args.content.encode("utf-8"),
    )


def cmd_add(args) -> int:
    """Handle ``repro add``."""
    system = load_system(args.directory)
    added = 0
    gas = 0
    for obj in _objects_from_args(args):
        report = system.add_object(obj)
        gas += report.gas
        added += 1
    save_system(system, args.directory, seed=_seed_of(args.directory))
    print(
        f"added {added} object(s); maintenance gas {gas:,} "
        f"(US${gas_to_usd(gas):.4f})"
    )
    return 0


def cmd_query(args) -> int:
    """Handle ``repro query``."""
    system = load_system(args.directory)
    result = system.query(args.expression)
    if args.json:
        print(
            json.dumps(
                {
                    "query": str(result.query),
                    "verified": result.verified,
                    "result_ids": result.result_ids,
                    "vo_bytes": result.vo_total_bytes,
                    "objects": {
                        oid: base64.b64encode(obj.content).decode("ascii")
                        for oid, obj in result.objects.items()
                    },
                }
            )
        )
        return 0
    print(f"query:    {result.query}")
    print(f"verified: {result.verified}")
    print(f"results:  {result.result_ids}")
    for oid in result.result_ids:
        preview = result.objects[oid].content[:60]
        print(f"  #{oid}: {preview!r}")
    print(
        f"VO: {result.vo_total_bytes:,} bytes "
        f"(SP {result.vo_sp_bytes:,} + chain {result.vo_chain_bytes:,}); "
        f"verify {1e3 * result.verify_seconds:.1f} ms"
    )
    return 0


def cmd_obs(args) -> int:
    """Dispatch ``repro obs`` to its subcommand."""
    if args.obs_command == "critpath":
        return cmd_obs_critpath(args)
    return cmd_obs_trace(args)


def cmd_obs_critpath(args) -> int:
    """Handle ``repro obs critpath``: attribute a dumped trace."""
    spans = obs.read_jsonl(args.trace)
    report = obs.analyze(spans, root=args.root, workers=args.workers)
    if args.json:
        print(json.dumps(report.to_dict(), default=str))
    else:
        print(report.render())
    return 0


def cmd_obs_trace(args) -> int:
    """Handle ``repro obs trace``: a traced, metered query round trip."""
    system = load_system(args.directory)
    with obs.collect() as col:
        result = system.query(args.expression)
    if args.json:
        print(
            json.dumps(
                {
                    "query": str(result.query),
                    "verified": result.verified,
                    "result_ids": result.result_ids,
                    "vo_bytes": result.vo_total_bytes,
                    "spans": [obs.span_to_dict(s) for s in col.spans],
                    "metrics": col.metrics.snapshot(),
                },
                default=str,
            )
        )
    else:
        print(f"query:    {result.query}")
        print(f"verified: {result.verified}")
        print(f"results:  {result.result_ids}")
        print("\ntrace:")
        print(obs.render_tree(col.spans))
        print("\nmetrics:")
        print(obs.render_summary(col.metrics))
    if args.trace_out:
        obs.write_jsonl(col.spans, args.trace_out)
        print(f"\nwrote {len(col.spans)} spans to {args.trace_out}")
    return 0


def cmd_compact(args) -> int:
    """Handle ``repro compact``: checkpoint and truncate shard journals."""
    manifest_path = Path(args.directory) / "manifest.json"
    if not manifest_path.exists():
        raise ReproError(f"no manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("config", {}).get("engine") != "disk":
        print("nothing to compact: system uses in-memory shard engines")
        return 0
    engine_dir = Path(args.directory) / "shard-journals"
    # Shard journals are derived state (the object log is the durable
    # ground truth); rebuild them from a clean slate so replay does not
    # double-apply records, then checkpoint the rebuilt state.
    if engine_dir.exists():
        for stale in engine_dir.iterdir():
            stale.unlink()
    system = load_system(args.directory, engine_dir=engine_dir)
    report = system.compact() or {}
    system.close()
    if args.json:
        print(json.dumps(report))
        return 0
    print(f"compacted {report.get('shards_compacted', 0)} shard journal(s)")
    print(
        f"journal:     {report.get('journal_bytes_before', 0):,} -> "
        f"{report.get('journal_bytes_after', 0):,} bytes "
        f"({report.get('reclaimed', 0):,} reclaimed)"
    )
    print(f"checkpoints: {report.get('checkpoint_bytes', 0):,} bytes")
    return 0


def cmd_info(args) -> int:
    """Handle ``repro info``."""
    system = load_system(args.directory)
    meter = system.maintenance_meter()
    print(f"scheme:        {system.scheme.value}")
    print(f"objects:       {len(system)}")
    print(f"chain height:  {system.chain.height}")
    print(f"chain linked:  {system.chain.verify_chain()}")
    print(
        f"gas total:     {meter.total:,} (US${gas_to_usd(meter.total):.4f})"
    )
    if len(system):
        avg = system.average_gas_per_object()
        print(f"gas/object:    {avg:,.0f} (US${gas_to_usd(avg):.4f})")
    return 0


def cmd_bench(args) -> int:
    """Dispatch ``repro bench`` to its subcommand."""
    from repro.bench.compare import cmd_compare

    return cmd_compare(args)


_COMMANDS = {
    "init": cmd_init,
    "add": cmd_add,
    "query": cmd_query,
    "obs": cmd_obs,
    "bench": cmd_bench,
    "compact": cmd_compact,
    "info": cmd_info,
}

#: ``repro obs`` grew subcommands; bare ``repro obs <dir> <expr>``
#: (the pre-subcommand form) still works by routing to ``trace``.
_OBS_SUBCOMMANDS = ("trace", "critpath")


def _normalise_argv(argv: list[str]) -> list[str]:
    if (
        len(argv) >= 2
        and argv[0] == "obs"
        and argv[1] not in _OBS_SUBCOMMANDS
        and not argv[1].startswith("-")
    ):
        return [argv[0], "trace", *argv[1:]]
    return argv


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = _normalise_argv(sys.argv[1:] if argv is None else list(argv))
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream consumer (e.g. ``| head``) closed the pipe; not
        # an error.  Detach stdout so interpreter shutdown does not
        # raise again while flushing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
