"""The event-scanning analytics: the reference the recorder's fold meets.

:func:`repro.trace.analyze_trace` folds accumulators the recorder keeps
as spans arrive.  :func:`reference_analytics` below is the post-pass it
replaced: bucket every recorded span, sort and union each bucket, then
measure.  It derives every :class:`~repro.trace.TraceAnalytics` field
except ``link_contention`` (the contention oracle has its own reference),
and :func:`plain_facts` renders those fields by ``float.hex``, so two
analytics agree bit for bit exactly when their facts are equal.
"""

from __future__ import annotations

from repro.common.floats import ordered_sum
from repro.trace import TraceAnalytics

SWAP_LANES = ("swap_in", "swap_out")


def union(intervals) -> list:
    """Merge intervals into a sorted disjoint list (touching ones merge,
    zero-length ones vanish)."""
    merged: list = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def measure(intervals):
    if not intervals:
        return 0
    return ordered_sum(end - start for start, end in intervals)


def intersect(a, b) -> list:
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            out.append((lo, hi))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def reference_analytics(events, n_devices: int, total_time: float = 0.0,
                        dropped: int = 0) -> TraceAnalytics:
    """Every analytic but link contention, from the events alone."""
    if total_time <= 0:
        total_time = max((e.t1 for e in events), default=0.0)
    compute: list = [[] for _ in range(n_devices)]
    cpu: list = [[] for _ in range(n_devices)]
    stream: list = [{} for _ in range(n_devices)]
    swap: list = [[] for _ in range(n_devices)]
    p2p: list = [[] for _ in range(n_devices)]
    for e in events:
        if e.kind != "span" or not 0 <= e.device < n_devices:
            continue
        d = e.device
        if e.cat == "compute":
            (cpu if e.lane == "cpu" else compute)[d].append((e.t0, e.t1))
        elif e.cat == "stream":
            stream[d].setdefault(e.lane, []).append((e.t0, e.t1))
        elif e.cat == "xfer":
            if e.lane in SWAP_LANES:
                swap[d].append((e.t0, e.t1))
            elif e.lane.startswith("p2p"):
                p2p[d].append((e.t0, e.t1))
    out = TraceAnalytics(total_time=total_time, n_devices=n_devices,
                         n_events=len(events), dropped=dropped)
    for d in range(n_devices):
        comp = union(compute[d])
        swp = union(swap[d])
        out.compute_busy.append(measure(comp))
        out.cpu_busy.append(measure(union(cpu[d])))
        out.stream_busy.append({
            lane: measure(union(spans))
            for lane, spans in sorted(stream[d].items())
        })
        out.swap_hold.append(measure(swp))
        out.p2p_hold.append(measure(union(p2p[d])))
        out.overlap_time.append(measure(intersect(comp, swp)))
        if comp:
            window = comp[-1][1] - comp[0][0]
            out.bubble_time.append(max(0.0, window - measure(comp)))
        else:
            out.bubble_time.append(0.0)
    return out


def hexed(value) -> str:
    return value.hex() if isinstance(value, float) else repr(value)


def plain_facts(analytics: TraceAnalytics, *, counts: bool = True) -> dict:
    """Every non-contention field by ``float.hex`` (``counts=False``
    leaves out ``n_events`` and ``dropped``, which a ring changes)."""
    facts = {"total_time": hexed(analytics.total_time),
             "n_devices": analytics.n_devices}
    if counts:
        facts["n_events"] = analytics.n_events
        facts["dropped"] = analytics.dropped
    for name in ("compute_busy", "cpu_busy", "swap_hold", "p2p_hold",
                 "overlap_time", "bubble_time"):
        facts[name] = [hexed(v) for v in getattr(analytics, name)]
    facts["stream_busy"] = [
        [(lane, hexed(busy)) for lane, busy in lanes.items()]
        for lanes in analytics.stream_busy
    ]
    return facts


def contention_facts(analytics: TraceAnalytics) -> list:
    """``link_contention`` by ``float.hex``, in the dict's own order."""
    return [(link, hexed(c.busy), hexed(c.contended), c.intervals)
            for link, c in analytics.link_contention.items()]
