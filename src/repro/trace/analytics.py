"""Derived timeline analytics over a recorded trace.

Everything here is computed from event intervals, not from aggregate
counters -- that is the point: the aggregate path (``compute_busy`` /
``iteration_time``) cannot see *when* work happened, so it cannot measure
overlap, bubbles, or contention.  :func:`analyze_trace` produces a
:class:`TraceAnalytics` that :class:`~repro.runtime.metrics.RunMetrics`
attaches and folds into ``describe()``.

Definitions:

- **stream utilization**: measure of the union of ``stream``-cat spans on
  a (device, lane) track, over the trace extent;
- **compute busy**: measure of the union of ``compute``-cat spans per
  device (crashed attempts included -- the GPU really ran them);
- **compute/swap overlap**: measure of (union of compute spans) INTERSECT
  (union of swap-lane ``xfer`` holds) per device; the *fraction* is over
  the swap hold time -- "how much of my swapping hid under compute";
- **pipeline bubble**: idle compute time inside a device's active window
  [first compute start, last compute end];
- **link contention**: per link, time some transfer spent waiting on the
  path while the link was held by another transfer (approximate: a
  multi-hop wait is attributed to every busy hop of the path).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.common.floats import ordered_sum
from repro.trace.events import TraceEvent

_SWAP_LANES = ("swap_in", "swap_out")


def _union(intervals: Iterable[tuple]) -> list:
    """Merge intervals into a sorted disjoint list."""
    merged: list = []
    lo = hi = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if hi is not None and start <= hi:
            if end > hi:
                hi = end
            continue
        if hi is not None:
            merged.append((lo, hi))
        lo, hi = start, end
    if hi is not None:
        merged.append((lo, hi))
    return merged


def _measure(intervals: Sequence[tuple]) -> float:
    # Nothing measured stays the int 0 that builtin ``sum`` returned: the
    # analytics pins and reports render it as ``0``.
    if not intervals:
        return 0
    return ordered_sum(end - start for start, end in intervals)


def _intersect(a: Sequence[tuple], b: Sequence[tuple]) -> list:
    """Intersection of two disjoint sorted interval lists."""
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


@dataclass
class LinkContention:
    """Contention summary for one link."""

    busy: float = 0.0          # seconds the link was held
    contended: float = 0.0     # seconds somebody waited while it was held
    intervals: int = 0         # distinct (transfer, link) wait overlaps


@dataclass
class TraceAnalytics:
    """Timeline-derived figures for one traced run."""

    total_time: float
    n_devices: int
    n_events: int
    dropped: int = 0
    #: per-device busy seconds of compute spans (crashes included)
    compute_busy: list = field(default_factory=list)
    #: per-device busy seconds of host-offloaded update spans
    cpu_busy: list = field(default_factory=list)
    #: per-device {lane: union-measure of stream-op spans}
    stream_busy: list = field(default_factory=list)
    #: per-device union-measure of swap-lane transfer holds
    swap_hold: list = field(default_factory=list)
    #: per-device union-measure of p2p-lane transfer holds
    p2p_hold: list = field(default_factory=list)
    #: per-device compute INTERSECT swap-hold seconds
    overlap_time: list = field(default_factory=list)
    #: per-device idle-compute seconds inside the active compute window
    bubble_time: list = field(default_factory=list)
    #: {link name: LinkContention}
    link_contention: dict = field(default_factory=dict)

    def idle_fraction(self, device: int) -> float:
        if self.total_time <= 0:
            return 0.0
        return max(0.0, 1.0 - self.compute_busy[device] / self.total_time)

    def overlap_fraction(self, device: int) -> float:
        """Fraction of the device's swap hold time hidden under compute."""
        if self.swap_hold[device] <= 0:
            return 0.0
        return self.overlap_time[device] / self.swap_hold[device]

    @property
    def contended_links(self) -> list:
        """(name, contention) for every link that saw any waiting."""
        return sorted(
            (
                (name, c) for name, c in self.link_contention.items()
                if c.contended > 0
            ),
            key=lambda item: -item[1].contended,
        )

    def describe(self) -> str:
        lines = [
            f"trace: {self.n_events} events over {self.total_time:.3f}s"
            + (f" ({self.dropped} dropped by ring)" if self.dropped else "")
        ]
        for d in range(self.n_devices):
            lines.append(
                f"  gpu{d}: compute {self.compute_busy[d]:.3f}s "
                f"(idle {self.idle_fraction(d) * 100:.0f}%, "
                f"bubble {self.bubble_time[d]:.3f}s), "
                f"swap hold {self.swap_hold[d]:.3f}s "
                f"(overlap {self.overlap_fraction(d) * 100:.0f}%), "
                f"p2p hold {self.p2p_hold[d]:.3f}s"
            )
        contended = self.contended_links
        if contended:
            worst = ", ".join(
                f"{name} {c.contended:.3f}s/{c.intervals}x"
                for name, c in contended[:4]
            )
            lines.append(f"  link contention: {worst}")
        return "\n".join(lines)


def analyze_trace(events: Sequence[TraceEvent], n_devices: int,
                  total_time: float = 0.0,
                  dropped: int = 0) -> TraceAnalytics:
    """Compute :class:`TraceAnalytics` over recorded events."""
    if total_time <= 0:
        total_time = max((e.t1 for e in events), default=0.0)
    compute: list = [[] for _ in range(n_devices)]
    cpu: list = [[] for _ in range(n_devices)]
    stream: list = [dict() for _ in range(n_devices)]
    swap: list = [[] for _ in range(n_devices)]
    p2p: list = [[] for _ in range(n_devices)]
    xfers = []
    for e in events:
        if e.kind != "span":
            continue
        d = e.device
        on_device = 0 <= d < n_devices
        if e.cat == "compute" and on_device:
            (cpu if e.lane == "cpu" else compute)[d].append((e.t0, e.t1))
        elif e.cat == "stream" and on_device:
            stream[d].setdefault(e.lane, []).append((e.t0, e.t1))
        elif e.cat == "xfer":
            xfers.append(e)
            if on_device:
                if e.lane in _SWAP_LANES:
                    swap[d].append((e.t0, e.t1))
                elif e.lane.startswith("p2p"):
                    p2p[d].append((e.t0, e.t1))

    out = TraceAnalytics(
        total_time=total_time, n_devices=n_devices,
        n_events=len(events), dropped=dropped,
    )
    for d in range(n_devices):
        comp = _union(compute[d])
        swp = _union(swap[d])
        out.compute_busy.append(_measure(comp))
        out.cpu_busy.append(_measure(_union(cpu[d])))
        out.stream_busy.append({
            lane: _measure(_union(spans))
            for lane, spans in sorted(stream[d].items())
        })
        out.swap_hold.append(_measure(swp))
        out.p2p_hold.append(_measure(_union(p2p[d])))
        out.overlap_time.append(_measure(_intersect(comp, swp)))
        if comp:
            window = comp[-1][1] - comp[0][0]
            out.bubble_time.append(max(0.0, window - _measure(comp)))
        else:
            out.bubble_time.append(0.0)
    out.link_contention = _contention(xfers)
    return out


def _contention(xfers: Sequence[TraceEvent]) -> dict:
    """Per-link busy/contended time from transfer hold spans.

    A transfer's wait interval is ``[t0 - wait, t0)``; its overlap with
    *other* transfers' holds of a shared link is contention on that link.
    Each link's holds are unioned once and every wait window is bisected
    into that union.  The waiting transfer's own hold needs no exclusion:
    it starts exactly where the window ends, so it can only extend a
    union piece past ``t0`` or add one at or after it, and neither
    changes the measure inside the window.
    """
    paths = []
    holds: dict = {}
    for e in xfers:
        meta = dict(e.meta)
        links = [name for name in str(meta.get("links", "")).split("+")
                 if name]
        paths.append((e.t0, float(meta.get("wait", 0.0)), links))
        for link in links:
            holds.setdefault(link, []).append((e.t0, e.t1))
    out: dict = {}
    unions: dict = {}
    for link, spans in holds.items():
        out[link] = LinkContention(busy=_measure(spans))
        merged = _union(spans)
        unions[link] = (merged, [end for _, end in merged])
    for t0, wait, links in paths:
        if wait <= 0:
            continue
        w0 = t0 - wait
        for link in links:
            merged, ends = unions[link]
            overlap = 0.0
            for start, end in merged[bisect_right(ends, w0):]:
                if start >= t0:
                    break
                overlap += min(t0, end) - max(w0, start)
            if overlap > 0:
                out[link].contended += overlap
                out[link].intervals += 1
    return out
