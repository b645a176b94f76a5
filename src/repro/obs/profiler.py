"""Lightweight sampling profiler attributed to the active span.

A stdlib-only statistical profiler: a daemon thread wakes every
``interval_s`` seconds, grabs every thread's current frame via
``sys._current_frames()``, and charges one sample to

* the **innermost open span** on that thread (read through
  :meth:`~repro.obs.trace.Collector.active_span`, so attribution
  follows whatever collector is installed at sample time), and
* the frame's **function** (``name (file:line)``), with obs/profiler
  internals skipped so samples land on library code.

Unlike ``cProfile`` (deterministic, ~2x overhead on hot pure-Python
paths) sampling costs only the sampler thread's wake-ups (wake-up
churn dominates the ~1 us per-sample work, so overhead scales with the
sampling rate) — so it can ride along any benchmark run
(``repro-bench --profile``).  The span
attribution is what makes it an *attribution* tool rather than a flat
profile: "mbtree hashing inside ``sp.index.insert``" and "mbtree
hashing inside ``query.sp.join``" stay separate buckets.

Limitation: ``sys._current_frames`` sees only the sampling process.
Affine shard workers profile as idle from the parent; run the workload
with in-process engines (``pool="stateless"``) to profile their
internals — span-level attribution for the workers comes from
:mod:`repro.obs.xproc` snapshots instead.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter as TallyCounter
from types import FrameType

from repro.obs import trace as trace_mod

#: Module name fragments whose frames are skipped when picking the
#: representative function of a sample.
_SKIP_FRAGMENTS = ("repro/obs/profiler", "threading.py")

#: Bucket used when a sampled thread has no open span.
NO_SPAN = "<no-span>"


def _describe(frame: FrameType) -> str:
    """``func (file:line)`` for the innermost non-internal frame."""
    node: FrameType | None = frame
    while node is not None:
        filename = node.f_code.co_filename.replace("\\", "/")
        if not any(frag in filename for frag in _SKIP_FRAGMENTS):
            short = "/".join(filename.split("/")[-2:])
            return f"{node.f_code.co_name} ({short}:{node.f_lineno})"
        node = node.f_back
    return f"{frame.f_code.co_name} (<internal>)"


class SamplingProfiler:
    """Periodic stack sampler, attributed to the innermost active span.

    Use as a context manager or via :meth:`start` / :meth:`stop`::

        profiler = SamplingProfiler(interval_s=0.025)
        with profiler:
            run_workload()
        print(profiler.render())

    Samples tally into ``samples[(span_name, function)]``; the profiler
    may be started and stopped repeatedly, accumulating across runs.
    """

    def __init__(self, interval_s: float = 0.025) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = interval_s
        self.samples: TallyCounter = TallyCounter()
        self.total_samples = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Launch the sampler thread (no-op if already running)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="obs-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop sampling and join the sampler thread (idempotent)."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # -- sampling --------------------------------------------------------------

    def _run(self) -> None:
        me = threading.get_ident()
        while not self._stop.wait(self.interval_s):
            self._sample(me)

    def _sample(self, sampler_ident: int) -> None:
        collector = trace_mod.current()
        frames = sys._current_frames()
        for ident, frame in frames.items():
            if ident == sampler_ident:
                continue
            span_name = NO_SPAN
            if collector is not None:
                span = collector.active_span(ident)
                if span is not None:
                    span_name = span.name
            self.samples[(span_name, _describe(frame))] += 1
            self.total_samples += 1

    # -- reporting -------------------------------------------------------------

    def by_span(self) -> dict[str, int]:
        """Samples per span name, descending."""
        tally: TallyCounter = TallyCounter()
        for (span_name, _), count in self.samples.items():
            tally[span_name] += count
        return dict(tally.most_common())

    def to_dict(self, top: int = 10) -> dict:
        """JSON-ready report: per-span totals with top functions."""
        per_span: dict[str, TallyCounter] = {}
        for (span_name, function), count in self.samples.items():
            per_span.setdefault(span_name, TallyCounter())[function] += count
        return {
            "interval_s": self.interval_s,
            "total_samples": self.total_samples,
            "spans": [
                {
                    "span": span_name,
                    "samples": sum(functions.values()),
                    "functions": [
                        {"function": fn, "samples": n}
                        for fn, n in functions.most_common(top)
                    ],
                }
                for span_name, functions in sorted(
                    per_span.items(),
                    key=lambda item: -sum(item[1].values()),
                )
            ],
        }

    def render(self, top: int = 5) -> str:
        """Human-readable profile: spans by sample share, top functions."""
        if not self.total_samples:
            return "(no samples collected)"
        report = self.to_dict(top=top)
        lines = [
            f"profile: {self.total_samples} samples at "
            f"{1e3 * self.interval_s:.1f} ms interval"
        ]
        for entry in report["spans"]:
            share = 100.0 * entry["samples"] / self.total_samples
            lines.append(
                f"  {entry['span']:<28}{entry['samples']:>7}  {share:5.1f}%"
            )
            for item in entry["functions"]:
                fn_share = 100.0 * item["samples"] / self.total_samples
                lines.append(
                    f"      {item['function']:<50}{item['samples']:>6}"
                    f"  {fn_share:5.1f}%"
                )
        return "\n".join(lines)
