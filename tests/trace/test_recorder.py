"""Unit tests for :class:`repro.trace.TraceRecorder` and the event model."""

import pytest

from repro.trace import TraceRecorder
from repro.trace.events import LANES, TraceEvent


def test_span_and_instant_recording():
    rec = TraceRecorder()
    rec.span("compute", "FWD0", 0.0, 1.5, device=0, lane="compute", tid=3,
             mb=2)
    rec.instant("fault", "transfer", 2.0, device=1, lane="swap_in")
    assert len(rec) == 2
    span, inst = rec.events
    assert span.kind == "span" and span.cat == "compute"
    assert span.duration == pytest.approx(1.5)
    assert span.tid == 3 and span.meta_dict() == {"mb": 2}
    assert inst.kind == "instant" and inst.t0 == inst.t1 == 2.0
    assert rec.extent == pytest.approx(2.0)


def test_base_offset_and_advance():
    """advance() stitches successive simulator timelines end to end."""
    rec = TraceRecorder()
    rec.span("compute", "a", 0.0, 1.0)
    rec.advance(1.0)
    rec.span("compute", "b", 0.0, 1.0)  # local time restarts at 0
    a, b = rec.events
    assert (a.t0, a.t1) == (0.0, 1.0)
    assert (b.t0, b.t1) == (1.0, 2.0)
    assert rec.base == pytest.approx(1.0)
    assert rec.extent == pytest.approx(2.0)


def test_advance_rejects_negative():
    rec = TraceRecorder()
    with pytest.raises(ValueError):
        rec.advance(-0.5)


def test_ring_mode_bounds_memory():
    rec = TraceRecorder(ring=4)
    for i in range(10):
        rec.span("compute", f"s{i}", float(i), float(i) + 1.0)
    assert len(rec) == 4
    assert rec.dropped == 6
    # The newest events survive; the oldest were evicted.
    assert [e.name for e in rec.events] == ["s6", "s7", "s8", "s9"]
    # extent still covers the whole run, not just the surviving window.
    assert rec.extent == pytest.approx(10.0)


def test_ring_must_be_positive():
    with pytest.raises(ValueError):
        TraceRecorder(ring=0)


def test_clear_resets_everything():
    rec = TraceRecorder(ring=2)
    rec.span("compute", "a", 0.0, 1.0)
    rec.span("compute", "b", 1.0, 2.0)
    rec.span("compute", "c", 2.0, 3.0)
    rec.advance(3.0)
    rec.clear()
    assert len(rec) == 0 and rec.dropped == 0
    assert rec.base == 0.0 and rec.extent == 0.0


def test_seq_is_monotonic_recording_order():
    rec = TraceRecorder()
    # Spans are recorded at completion time; an earlier-starting span can
    # be recorded after a later-starting one.  seq preserves recording
    # order regardless of timestamps.
    rec.span("compute", "late", 5.0, 6.0)
    rec.span("compute", "early", 0.0, 1.0)
    seqs = [e.seq for e in rec.events]
    assert seqs == sorted(seqs) and len(set(seqs)) == 2


def test_canonical_is_stable_text():
    rec = TraceRecorder()
    rec.span("xfer", "WL0", 0.0, 0.25, device=1, lane="swap_in",
             nbytes=1024, links="a+b", wait=0.125)
    line = rec.canonical()
    assert line == (
        "span|xfer|WL0|dev1|swap_in|t-1|1024|0.0|0.25|links=a+b,wait=0.125"
    )


def test_meta_is_sorted_and_stable():
    rec = TraceRecorder()
    rec.span("compute", "x", 0.0, 1.0, z=1, a=2)
    assert rec.events[-1].meta == (("a", 2), ("z", 1))
    rec.instant("task", "y", 1.0, z=1, a=2)
    assert rec.events[-1].meta == (("a", 2), ("z", 1))
    rec.span("compute", "x", 0.0, 1.0)
    assert rec.events[-1].meta == ()


# -- the lazy-event contract: events are built on read ------------------------


def test_ring_survivors_keep_their_seq():
    rec = TraceRecorder(ring=4)
    for i in range(10):
        rec.span("compute", f"s{i}", float(i), float(i) + 1.0)
    assert [e.seq for e in rec.events] == [7, 8, 9, 10]


def test_clear_restarts_seq():
    rec = TraceRecorder(ring=2)
    for i in range(3):
        rec.span("compute", f"s{i}", float(i), float(i) + 1.0)
    rec.clear()
    rec.span("compute", "fresh", 0.0, 1.0)
    rec.instant("task", "tick", 1.0)
    assert [e.seq for e in rec.events] == [1, 2]


def test_reads_of_events_are_equal():
    rec = TraceRecorder()
    rec.span("xfer", "WL0", 0.0, 0.25, device=1, lane="swap_in",
             nbytes=1024, links="a+b", wait=0.125)
    rec.instant("task", "done", 0.25, device=1, lane="compute", tid=4)
    first = rec.events
    assert rec.events == first and len(first) == 2


def test_canonical_joins_the_events_canonical_lines():
    rec = TraceRecorder(ring=3)
    for i in range(5):
        rec.span("stream", f"op{i}", float(i), float(i) + 0.5, device=0,
                 lane="swap_in", ok=1)
        rec.instant("task", f"mb{i}", float(i) + 0.5, device=0,
                    lane="compute", tid=i)
    assert rec.canonical() == "\n".join(e.canonical() for e in rec.events)


def test_meta_out_of_order_comes_back_sorted():
    rec = TraceRecorder()
    rec.span("compute", "x", 0.0, 1.0, device=0, lane="compute", tid=1,
             mb=3, attempt=0, crashed=1)
    rec.instant("fault", "y", 1.0, zeta=2, alpha=1, mid=0)
    span, instant = rec.events
    assert span.meta == (("attempt", 0), ("crashed", 1), ("mb", 3))
    assert instant.meta == (("alpha", 1), ("mid", 0), ("zeta", 2))


def test_event_is_frozen_value_type():
    e = TraceEvent(kind="span", cat="compute", name="x", t0=0.0, t1=1.0)
    with pytest.raises(AttributeError):
        e.name = "y"


def test_lane_taxonomy_covers_streams_and_control():
    assert {"swap_in", "swap_out", "p2p_in", "p2p_out", "compute",
            "cpu", "run", "migration"} <= set(LANES)
