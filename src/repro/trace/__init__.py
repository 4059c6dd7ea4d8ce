"""Execution tracing: typed event timelines for every simulated run.

The subsystem has four parts:

- :mod:`repro.trace.events` / :mod:`repro.trace.recorder` -- the
  :class:`TraceEvent` record and the :class:`TraceRecorder`, which keeps
  one raw row per event (optionally as a bounded ring) and builds the
  events only when they are read.  A recorder attaches to a
  :class:`~repro.sim.engine.Simulator` as ``sim.trace``; every traced
  layer guards on ``sim.trace is not None``, so a run without a recorder
  pays nothing and is bit-identical to the pre-trace runtime.
- :mod:`repro.trace.export` -- exporters to Chrome/Perfetto
  ``trace_event`` JSON (load the file at https://ui.perfetto.dev) and a
  plain-text timeline dump.
- :mod:`repro.trace.analytics` -- derived timeline analytics: per-stream
  utilization, compute/swap overlap, pipeline bubbles, link contention.
  :func:`analyze_trace` folds them into a :class:`TraceAnalytics` that
  :class:`~repro.runtime.metrics.RunMetrics` carries and describes.
- :mod:`repro.trace.invariants` -- assertable trace invariants (span
  exclusivity, FIFO order, dependency ordering, byte reconciliation,
  fault-event completeness) used by the test harness and ``repro.cli
  trace --validate``.
"""

from repro.trace.analytics import TraceAnalytics, analyze_trace
from repro.trace.events import TraceEvent
from repro.trace.export import dump_chrome_trace, to_chrome_trace, to_text_timeline
from repro.trace.invariants import (
    TraceInvariantError,
    check_network_reconciliation,
    check_trace,
)
from repro.trace.recorder import TraceRecorder

__all__ = [
    "TraceAnalytics",
    "TraceEvent",
    "TraceInvariantError",
    "TraceRecorder",
    "analyze_trace",
    "check_network_reconciliation",
    "check_trace",
    "dump_chrome_trace",
    "to_chrome_trace",
    "to_text_timeline",
]
