"""Bench baseline comparison: tolerance-banded regression detection.

The committed ``BENCH_*.json`` files are the repo's performance
baselines; this module diffs a freshly generated run against one and
classifies every metric:

* **timing metrics** (``*_ms``, ``*_seconds``...) regress when the
  fresh value exceeds the baseline by more than the tolerance band;
* **throughput metrics** (``*_per_s``, ``speedup*``...) regress when
  the fresh value falls below the baseline by more than the band;
* **boolean invariants** (``vo_identical``, ``all_verified``...)
  regress on any ``True -> False`` flip, tolerance notwithstanding;
* **informational values** (counts, core counts) are reported but
  never fail — they legitimately differ across machines.

Bench documents are arbitrary JSON; rows are addressed by *identity*
(their string-valued fields plus well-known config integers such as
``shards``/``corpus_size``), so two runs line up even when row order
changes.  A metric present in the baseline but absent from the fresh
run counts as a regression — silently dropping a measurement must not
turn a red comparison green.

Gas and VO bytes are deterministic per seed, so the verdict also lists
each workload whose ``*gas*`` or ``vo_bytes*`` values moved at all, and
the change of ``tools/src_size.py``'s columns when both documents carry
them.

``repro bench compare`` is the CLI front end; ``--trend-out`` appends
one summary record per comparison to a JSONL trend log
(``BENCH_TREND.jsonl``), giving cheap longitudinal history without a
metrics server.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone

from repro.errors import ReproError

#: Integer/float row fields that identify a row rather than measure it.
CONFIG_KEYS = frozenset(
    {
        "arity",
        "batches",
        "corpus_size",
        "fanout",
        "queries",
        "repeats",
        "seed",
        "shards",
        "threads",
        "workers",
    }
)

#: Leaf-name suffixes where *higher* current values are improvements.
_HIGHER_SUFFIXES = ("_per_s", "_hits")
#: Leaf-name suffixes where *lower* current values are improvements.
_LOWER_SUFFIXES = ("_ms", "_ns", "_s", "_seconds", "_misses", "_bytes")


def metric_direction(metric: str) -> str:
    """``higher`` / ``lower`` / ``info`` from the metric's leaf name.

    Conventions over configuration: the bench row fields already encode
    their unit (``ingest_ms``, ``objects_per_s``, ``speedup_cold``), so
    the name alone determines which way regression points.  Unknown
    names are informational — compared and reported, never failing.
    """
    leaf = metric.rsplit(".", 1)[-1].rsplit("]", 1)[-1] or metric
    if leaf in CONFIG_KEYS:
        return "info"
    if "speedup" in leaf or leaf.endswith(_HIGHER_SUFFIXES):
        return "higher"
    if leaf.endswith(_LOWER_SUFFIXES):
        return "lower"
    return "info"


def _row_identity(row: dict) -> str:
    parts = []
    for key in sorted(row):
        value = row[key]
        if isinstance(value, str) or (
            key in CONFIG_KEYS and isinstance(value, (int, float))
        ):
            parts.append(f"{key}={value}")
    return " ".join(parts)


def flatten(doc: object, prefix: str = "") -> dict[str, object]:
    """Flatten a bench JSON document to ``dotted.path -> value``.

    Dicts nest with ``.``; list elements are addressed by row identity
    (``rows[corpus_size=100000 fanout=4].build_ms``) so row order
    never matters, falling back to the list index for identity-less
    rows.  Strings become part of identities, not metrics; booleans
    and numbers are the comparable leaves.
    """
    out: dict[str, object] = {}
    _flatten_into(doc, prefix, out)
    return out


def _flatten_into(node: object, prefix: str, out: dict[str, object]) -> None:
    if isinstance(node, dict):
        for key in sorted(node):
            path = f"{prefix}.{key}" if prefix else str(key)
            _flatten_into(node[key], path, out)
    elif isinstance(node, (list, tuple)):
        seen: dict[str, int] = {}
        for index, item in enumerate(node):
            identity = (
                _row_identity(item) if isinstance(item, dict) else ""
            ) or str(index)
            # Identical identities (repeated trials) fall back to
            # positional disambiguation so no row shadows another.
            if identity in seen:
                seen[identity] += 1
                identity = f"{identity}#{seen[identity]}"
            else:
                seen[identity] = 0
            _flatten_into(item, f"{prefix}[{identity}]", out)
    elif isinstance(node, (bool, int, float)):
        out[prefix] = node


@dataclass
class MetricDelta:
    """One metric's baseline/current pair and its verdict."""

    metric: str
    direction: str  # higher | lower | info | invariant
    baseline: object
    current: object
    change_pct: float | None
    status: str  # ok | regressed | missing | new | info

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "direction": self.direction,
            "baseline": self.baseline,
            "current": self.current,
            "change_pct": self.change_pct,
            "status": self.status,
        }


@dataclass
class CompareReport:
    """Full comparison outcome; ``passed`` gates the CLI exit code."""

    baseline_path: str
    current_path: str
    tolerance: float
    deltas: list[MetricDelta] = field(default_factory=list)
    #: Per size column both documents carry: ``(baseline, current)``.
    size: dict[str, tuple] = field(default_factory=dict)

    @property
    def moved(self) -> dict[str, list[MetricDelta]]:
        """Per workload (the name before a metric's), its ``*gas*`` and
        ``vo_bytes*`` metrics whose value changed at all."""
        out: dict[str, list[MetricDelta]] = {}
        for delta in self.deltas:
            *path, leaf = delta.metric.removesuffix(".value").split(".")
            pair = delta.baseline, delta.current
            moved = None not in pair and pair[0] != pair[1]
            if moved and ("gas" in leaf or leaf.startswith("vo_bytes")):
                out.setdefault(path[-1] if path else leaf, []).append(delta)
        return out

    @property
    def regressions(self) -> list[MetricDelta]:
        return [
            d for d in self.deltas if d.status in ("regressed", "missing")
        ]

    @property
    def passed(self) -> bool:
        return not self.regressions

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline_path,
            "current": self.current_path,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "regressions": [d.metric for d in self.regressions],
            "moved": sorted(self.moved),
            "size": self.size,
            "deltas": [d.to_dict() for d in self.deltas],
        }

    def trend_record(self) -> dict:
        """Compact one-line record for the JSONL trend log."""
        return {
            "at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "baseline": self.baseline_path,
            "current": self.current_path,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "regressions": [d.metric for d in self.regressions],
            "metrics": {
                d.metric: d.current
                for d in self.deltas
                if d.direction in ("higher", "lower")
                and isinstance(d.current, (int, float))
            },
        }

    def render(self) -> str:
        """Human-readable verdict: regressions in full, the rest tallied."""
        checked = [d for d in self.deltas if d.direction != "info"]
        lines = [
            f"bench compare: {self.current_path} vs {self.baseline_path} "
            f"(tolerance {100 * self.tolerance:.0f}%)"
        ]
        for delta in self.regressions:
            if delta.status == "missing":
                lines.append(
                    f"  MISSING    {delta.metric}  "
                    f"(baseline {_fmt(delta.baseline)}, no current value)"
                )
            elif delta.direction == "invariant":
                lines.append(
                    f"  REGRESSED  {delta.metric}  "
                    f"{delta.baseline} -> {delta.current}"
                )
            else:
                lines.append(
                    f"  REGRESSED  {delta.metric}  "
                    f"{_fmt(delta.baseline)} -> {_fmt(delta.current)}  "
                    f"({delta.change_pct:+.1f}%, {delta.direction} is better)"
                )
        for workload, deltas in self.moved.items():
            moves = ", ".join(
                f"{d.metric.removesuffix('.value').rsplit('.', 1)[-1]} "
                f"{_fmt(d.baseline)} -> {_fmt(d.current)}" for d in deltas
            )
            lines.append(f"  MOVED      {workload}: {moves}")
        if self.size:
            sizes = ", ".join(f"{k} {a} -> {b} ({b - a:+d})" for k, (a, b) in self.size.items())
            lines.append(f"  SIZE       {sizes}")
        ok = sum(1 for d in checked if d.status == "ok")
        new = sum(1 for d in self.deltas if d.status == "new")
        info = sum(1 for d in self.deltas if d.status == "info")
        lines.append(
            f"  {'PASS' if self.passed else 'FAIL'}: "
            f"{len(self.regressions)} regression(s), {ok} within tolerance, "
            f"{info} informational, {new} new"
        )
        return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _change_pct(baseline: float, current: float) -> float | None:
    if baseline == 0:
        return None
    return 100.0 * (current - baseline) / abs(baseline)


def _classify(
    metric: str, baseline: object, current: object, tolerance: float
) -> MetricDelta:
    if isinstance(baseline, bool) or isinstance(current, bool):
        regressed = bool(baseline) and not bool(current)
        return MetricDelta(
            metric=metric,
            direction="invariant",
            baseline=baseline,
            current=current,
            change_pct=None,
            status="regressed" if regressed else "ok",
        )
    direction = metric_direction(metric)
    change = _change_pct(float(baseline), float(current))  # type: ignore[arg-type]
    if direction == "info" or change is None:
        return MetricDelta(
            metric=metric,
            direction=direction,
            baseline=baseline,
            current=current,
            change_pct=change,
            status="info" if direction == "info" else "ok",
        )
    if direction == "lower":
        regressed = change > 100.0 * tolerance
    else:
        regressed = change < -100.0 * tolerance
    return MetricDelta(
        metric=metric,
        direction=direction,
        baseline=baseline,
        current=current,
        change_pct=change,
        status="regressed" if regressed else "ok",
    )


def compare(
    baseline_doc: object,
    current_doc: object,
    tolerance: float = 0.25,
    baseline_path: str = "<baseline>",
    current_path: str = "<current>",
) -> CompareReport:
    """Diff two bench documents metric by metric.

    ``tolerance`` is the allowed relative slack on directional metrics
    (0.25 = a timing may be 25% slower, a throughput 25% lower).
    Boolean invariants ignore tolerance entirely.
    """
    if tolerance < 0:
        raise ReproError("tolerance must be non-negative")
    base = flatten(baseline_doc)
    cur = flatten(current_doc)
    report = CompareReport(
        baseline_path=baseline_path,
        current_path=current_path,
        tolerance=tolerance,
    )
    if isinstance(baseline_doc, dict) and isinstance(current_doc, dict):
        for name in ("src_lines", "constructor_args"):  # tools/src_size.py --json
            pair = baseline_doc.get(name), current_doc.get(name)
            if all(isinstance(value, int) for value in pair):
                report.size[name] = pair
    for metric in sorted(base):
        if metric not in cur:
            report.deltas.append(
                MetricDelta(
                    metric=metric,
                    direction=metric_direction(metric),
                    baseline=base[metric],
                    current=None,
                    change_pct=None,
                    status="missing",
                )
            )
            continue
        report.deltas.append(
            _classify(metric, base[metric], cur[metric], tolerance)
        )
    for metric in sorted(set(cur) - set(base)):
        report.deltas.append(
            MetricDelta(
                metric=metric,
                direction=metric_direction(metric),
                baseline=None,
                current=cur[metric],
                change_pct=None,
                status="new",
            )
        )
    return report


def compare_files(
    baseline_path: str, current_path: str, tolerance: float = 0.25
) -> CompareReport:
    """:func:`compare` over two JSON files on disk."""
    try:
        with open(baseline_path) as handle:
            baseline_doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read baseline {baseline_path}: {exc}")
    try:
        with open(current_path) as handle:
            current_doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read current {current_path}: {exc}")
    return compare(
        baseline_doc,
        current_doc,
        tolerance=tolerance,
        baseline_path=baseline_path,
        current_path=current_path,
    )


def append_trend(report: CompareReport, path: str) -> None:
    """Append the comparison's summary record to a JSONL trend log."""
    with open(path, "a") as handle:
        handle.write(json.dumps(report.trend_record(), default=str) + "\n")


def cmd_compare(args) -> int:
    """Handle ``repro bench compare``; exit 0 on pass, 1 on regression."""
    report = compare_files(
        args.baseline, args.current, tolerance=args.tolerance
    )
    if args.trend_out:
        append_trend(report, args.trend_out)
    if args.json:
        print(json.dumps(report.to_dict(), default=str))
    else:
        print(report.render())
    return 0 if report.passed else 1
