"""Self-tests for the trace invariant checkers.

Each checker gets a synthetic violating timeline (must raise
:class:`TraceInvariantError` with a readable message) and a passing one.
A real traced run exercises the dependency checker both ways: as-is it
passes; with the task lifecycle instants pushed past the end of the run,
every dependent kernel appears to start before its producers finished.
"""

import pytest

from repro.runtime.metrics import GpuMetrics, RunMetrics
from repro.trace import TraceInvariantError, TraceRecorder, check_trace
from repro.trace.invariants import (
    check_bytes,
    check_compute_busy,
    check_compute_exclusivity,
    check_dependencies,
    check_fault_events,
    check_stream_exclusivity,
)


def _metrics(**gpu_fields):
    return RunMetrics(mode="pp", minibatch=8, iteration_time=1.0,
                      gpus=[GpuMetrics(**gpu_fields)])


# -- structural ---------------------------------------------------------------------


def test_stream_overlap_rejected():
    rec = TraceRecorder()
    rec.span("stream", "a", 0.0, 1.0, device=0, lane="swap_in")
    rec.span("stream", "b", 0.5, 1.5, device=0, lane="swap_in")
    with pytest.raises(TraceInvariantError, match="must not overlap"):
        check_stream_exclusivity(rec.events)


def test_stream_disjoint_lanes_may_overlap():
    rec = TraceRecorder()
    rec.span("stream", "a", 0.0, 1.0, device=0, lane="swap_in")
    rec.span("stream", "b", 0.5, 1.5, device=0, lane="swap_out")
    rec.span("stream", "c", 0.5, 1.5, device=1, lane="swap_in")
    check_stream_exclusivity(rec.events)


def test_compute_overlap_rejected():
    rec = TraceRecorder()
    rec.span("compute", "FWD0", 0.0, 1.0, device=0, lane="compute", tid=1)
    rec.span("compute", "FWD1", 0.9, 2.0, device=0, lane="compute", tid=2)
    with pytest.raises(TraceInvariantError, match="overlaps"):
        check_compute_exclusivity(rec.events)


def test_compute_other_device_or_cpu_ok():
    rec = TraceRecorder()
    rec.span("compute", "FWD0", 0.0, 1.0, device=0, lane="compute", tid=1)
    rec.span("compute", "FWD1", 0.5, 1.5, device=1, lane="compute", tid=2)
    rec.span("compute", "UPD", 0.5, 1.5, device=0, lane="cpu", tid=3)
    check_compute_exclusivity(rec.events)


# -- accounting ---------------------------------------------------------------------


def test_byte_mismatch_rejected():
    rec = TraceRecorder()
    rec.span("xfer", "WL0", 0.0, 0.5, device=0, lane="swap_in", nbytes=100)
    with pytest.raises(TraceInvariantError, match="swap bytes"):
        check_bytes(rec.events, _metrics(swap_in_bytes=50))


def test_byte_reconciliation_passes():
    rec = TraceRecorder()
    rec.span("xfer", "WL0", 0.0, 0.5, device=0, lane="swap_in", nbytes=100)
    rec.span("xfer", "Y0", 0.5, 0.6, device=0, lane="p2p_in", nbytes=7)
    # Migration legs carry bytes but are deliberately outside the
    # training swap/p2p ledger.
    rec.span("xfer", "W3", 0.6, 0.7, device=0, lane="migration", nbytes=999)
    check_bytes(rec.events, _metrics(swap_in_bytes=100, p2p_in_bytes=7))


def test_compute_busy_mismatch_rejected():
    rec = TraceRecorder()
    rec.span("compute", "FWD0", 0.0, 1.0, device=0, lane="compute", tid=1)
    with pytest.raises(TraceInvariantError, match="compute busy"):
        check_compute_busy(rec.events, _metrics(compute_busy=2.0))


def test_faulted_transfer_counts_zero_goodput():
    """A faulted hold records nbytes=0: busy time real, goodput none."""
    rec = TraceRecorder()
    rec.span("xfer", "WL0", 0.0, 0.5, device=0, lane="swap_in", nbytes=0,
             faulted=1)
    check_bytes(rec.events, _metrics())


# -- fault-event completeness -------------------------------------------------------


def test_phantom_fault_event_rejected():
    rec = TraceRecorder()
    rec.instant("fault", "transfer", 0.5, device=0, lane="swap_in")
    with pytest.raises(TraceInvariantError, match="phantom"):
        check_fault_events(rec.events, _metrics())


def test_silent_recovery_rejected():
    rec = TraceRecorder()
    metrics = _metrics()
    metrics.recovery.restarts = 1
    with pytest.raises(TraceInvariantError, match="silent recovery"):
        check_fault_events(rec.events, metrics)


def test_matched_fault_ledger_passes():
    rec = TraceRecorder()
    rec.instant("fault", "task_crash", 0.2, device=0, tid=4)
    rec.instant("retry", "compute", 0.2, device=0, tid=4)
    rec.span("migration", "W3", 0.5, 0.6, device=1, lane="migration")
    metrics = _metrics()
    metrics.recovery.faults_injected = 1
    metrics.recovery.compute_retries = 1
    metrics.elastic.migrations = 1
    check_fault_events(rec.events, metrics)


# -- dependency order, on a real run ------------------------------------------------


def test_dependencies_hold_on_real_run(toy_traced):
    plan, _metrics_, recorder = toy_traced
    check_dependencies(recorder.events, plan.graph)


def test_dependencies_catch_time_travel(toy_traced):
    """Pushing producers' lifecycle instants past the end of the run makes
    every dependent kernel look like it started before its inputs existed."""
    plan, _metrics_, recorder = toy_traced
    late = recorder.extent + 1.0
    tampered = [
        e._replace(t0=late, t1=late)
        if e.kind == "instant" and e.cat == "task" else e
        for e in recorder.events
    ]
    with pytest.raises(TraceInvariantError):
        check_dependencies(tampered, plan.graph)


# -- the full battery ---------------------------------------------------------------


def test_check_trace_full_battery(toy_traced):
    plan, metrics, recorder = toy_traced
    check_trace(recorder.events, graph=plan.graph, metrics=metrics,
                iterations=1, dropped=0)


def test_ring_dropped_trace_skips_accounting():
    """Half a timeline cannot reconcile; structure is still checked."""
    rec = TraceRecorder(ring=1)
    rec.span("xfer", "WL0", 0.0, 0.5, device=0, lane="swap_in", nbytes=100)
    rec.span("xfer", "WL1", 0.5, 1.0, device=0, lane="swap_in", nbytes=100)
    assert rec.dropped == 1
    # Metrics wildly disagree with the surviving suffix -- ignored.
    check_trace(rec.events, metrics=_metrics(), dropped=rec.dropped)
    with pytest.raises(TraceInvariantError):
        check_trace(rec.events, metrics=_metrics(), dropped=0)
