"""Hierarchical tracing with a null-sink fast path.

The library is instrumented unconditionally — ``obs.span("query.sp")``
context managers and ``obs.inc``/``obs.observe`` metric helpers sit on
the real code paths — but all of them funnel through one module-level
collector slot.  With no collector installed every call degrades to a
``None`` check (plus, for :func:`span`, a shared no-op context
manager), so an uninstrumented run pays close to nothing.

Install a :class:`Collector` to start recording::

    from repro import obs

    with obs.collect() as col:
        system.query("covid-19 AND vaccine")
    print(obs.render_tree(col.spans))
    print(col.metrics.snapshot()["gas.total"])

Span stacks are thread-local: spans opened on different threads nest
independently, so a multi-threaded SP serving concurrent requests
produces one clean tree per request.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager

from repro.obs.metrics import MetricsRegistry


class Span:
    """One timed, attributed section of work.

    Spans are context managers bound to the collector that created
    them; entering pushes onto the creating thread's span stack (fixing
    the parent), exiting records the end time and hands the finished
    span to the collector.
    """

    __slots__ = (
        "collector",
        "name",
        "span_id",
        "parent_id",
        "thread",
        "start_s",
        "end_s",
        "attributes",
    )

    def __init__(self, collector: "Collector", name: str, attributes: dict):
        self.collector = collector
        self.name = name
        self.span_id = next(collector._ids)
        self.parent_id: int | None = None
        self.thread = threading.current_thread().name
        self.start_s: float = 0.0
        self.end_s: float | None = None
        self.attributes = attributes

    @property
    def duration_s(self) -> float:
        """Wall-clock seconds between enter and exit (0.0 while open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def set(self, **attributes) -> None:
        """Attach or overwrite attributes on the span."""
        self.attributes.update(attributes)

    def __enter__(self) -> "Span":
        stack = self.collector._stack()
        if stack:
            self.parent_id = stack[-1].span_id
        stack.append(self)
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_s = time.perf_counter()
        stack = self.collector._stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # misnested exit: drop everything above us
            del stack[stack.index(self):]
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self.collector._record(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, {1e3 * self.duration_s:.3f}ms)"
        )


class _NullSpan:
    """The shared do-nothing span returned when no collector is installed."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attributes) -> None:
        """Ignore attributes."""


NULL_SPAN = _NullSpan()


class Collector:
    """A sink for finished spans plus a metrics registry.

    One collector observes one measurement window; install it with
    :func:`install` (or the :func:`collect` context manager), run the
    workload, then read ``spans`` and ``metrics``.
    """

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def span(self, name: str, **attributes) -> Span:
        """Create a span; enter it (``with``) to start the clock."""
        return Span(self, name, attributes)

    def clear(self) -> None:
        """Drop recorded spans and reset all metrics."""
        with self._lock:
            self.spans = []
        self.metrics.reset()


#: The installed collector; ``None`` means the null sink (record nothing).
_collector: Collector | None = None


def install(collector: Collector | None = None) -> Collector:
    """Install (and return) the collector receiving all telemetry."""
    global _collector
    if collector is None:
        collector = Collector()
    _collector = collector
    return collector


def uninstall() -> Collector | None:
    """Remove the installed collector, returning it (None if none was)."""
    global _collector
    collector = _collector
    _collector = None
    return collector


def current() -> Collector | None:
    """The installed collector, or ``None`` when running null-sink."""
    return _collector


@contextmanager
def collect(collector: Collector | None = None):
    """Scope a collector: install on entry, restore the previous on exit."""
    global _collector
    previous = _collector
    installed = install(collector)
    try:
        yield installed
    finally:
        _collector = previous


def span(name: str, **attributes):
    """A span under the installed collector, or the shared no-op span."""
    collector = _collector
    if collector is None:
        return NULL_SPAN
    return collector.span(name, **attributes)


# -- metric helpers (null-sink fast path) ------------------------------------


def inc(name: str, amount: int | float = 1) -> None:
    """Increment counter ``name`` if a collector is installed."""
    collector = _collector
    if collector is not None:
        collector.metrics.counter(name).inc(amount)


def observe(
    name: str, value: float, buckets: tuple[float, ...] | None = None
) -> None:
    """Record ``value`` into histogram ``name`` if a collector is installed."""
    collector = _collector
    if collector is not None:
        collector.metrics.histogram(name, buckets=buckets).observe(value)


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` if a collector is installed."""
    collector = _collector
    if collector is not None:
        collector.metrics.gauge(name).set(value)


def metrics() -> MetricsRegistry | None:
    """The installed collector's registry, or ``None`` when null-sink."""
    collector = _collector
    return None if collector is None else collector.metrics


def record_gas(amount: int, category_key: str, operation: str) -> None:
    """Feed one gas charge into the live counters (Table III breakdown).

    Called by :meth:`repro.ethereum.gas.GasMeter.charge` for every
    charge, so ``gas.total`` / ``gas.write`` / ``gas.read`` /
    ``gas.others`` (and per-op ``gas.op.*``) always equal the sum of
    the receipts' meters over the collection window.
    """
    collector = _collector
    if collector is None:
        return
    registry = collector.metrics
    registry.counter("gas.total").inc(amount)
    registry.counter(category_key).inc(amount)
    registry.counter("gas.op." + operation).inc(amount)
