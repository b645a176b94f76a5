"""repro.obs — end-to-end observability: tracing, metrics, exporters
and the cross-process snapshot that brings worker telemetry home.

The library's owner → chain → SP → client pipeline is instrumented
with hierarchical spans and a metrics registry, all funnelled through
one module-level collector slot.  Nothing is recorded until a
:class:`Collector` is installed, and the uninstrumented cost is a
``None`` check per call site (the null-sink fast path), so telemetry
is always-on but effectively free when unobserved.

Typical use::

    from repro import DataObject, HybridStorageSystem, obs

    system = HybridStorageSystem(scheme="ci*")
    with obs.collect() as col:
        system.add_object(DataObject(1, ("covid-19",), b"..."))
        system.query("covid-19")

    print(obs.render_tree(col.spans))          # span tree with timings
    print(obs.render_summary(col.metrics))     # counters + histograms
    snap = col.metrics.snapshot()
    assert snap["gas.total"] == snap["gas.write"] + snap["gas.read"] + snap["gas.others"]

See ``repro obs`` for the CLI equivalent; ``--trace-out`` there and in
``repro-bench`` dumps the spans as JSON lines for external tools.
"""

from repro.obs.exporters import (
    render_summary,
    render_tree,
    span_to_dict,
    spans_to_jsonl,
    write_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    GAS_BUCKETS,
    SIZE_BUCKETS_BYTES,
    TIME_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    NULL_SPAN,
    Collector,
    Span,
    collect,
    current,
    inc,
    install,
    metrics,
    observe,
    record_gas,
    set_gauge,
    span,
    uninstall,
)
from repro.obs.xproc import adopt as adopt_snapshot
from repro.obs.xproc import capture as capture_snapshot

__all__ = [
    "Collector",
    "Counter",
    "DEFAULT_BUCKETS",
    "GAS_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "SIZE_BUCKETS_BYTES",
    "Span",
    "TIME_BUCKETS_S",
    "adopt_snapshot",
    "capture_snapshot",
    "collect",
    "current",
    "inc",
    "install",
    "metrics",
    "observe",
    "record_gas",
    "render_summary",
    "render_tree",
    "set_gauge",
    "span",
    "span_to_dict",
    "spans_to_jsonl",
    "uninstall",
    "write_jsonl",
]
