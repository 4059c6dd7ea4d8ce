"""Derived timeline analytics over a recorded trace.

Everything here is computed from event intervals, not from aggregate
counters -- that is the point: the aggregate path (``compute_busy`` /
``iteration_time``) cannot see *when* work happened, so it cannot measure
overlap, bubbles, or contention.  The :class:`~repro.trace.TraceRecorder`
keeps per-lane interval unions and per-link totals as events arrive;
:func:`analyze_trace` folds them into a :class:`TraceAnalytics` that
:class:`~repro.runtime.metrics.RunMetrics` attaches and folds into
``describe()``.  It reads no event.

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
- **link contention**: per link, the time transfers spent queued for
  that link (exact).  A transfer acquires its path's links one at a
  time in a fixed order; its wait for a link runs from its grant of the
  previous link (from its request, for the first) to its grant of this
  one, so each moment of a multi-hop wait is charged to the one link it
  was spent queued on.  ``intervals`` counts the (transfer, link) pairs
  with a positive wait, and ``busy`` is the sum of the link's holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import sub
from typing import TYPE_CHECKING

from repro.common.floats import ordered_sum

if TYPE_CHECKING:
    from repro.trace.recorder import TraceRecorder

_SWAP_LANES = ("swap_in", "swap_out")


# Interval sets are flat, strictly increasing lists ``[start0, end0,
# start1, end1, ...]`` of disjoint intervals, the form the recorder keeps.


def _union(tracks: list) -> list:
    """The union of several flat interval lists (one list is its own)."""
    if len(tracks) < 2:
        return tracks[0] if tracks else []
    pairs = sorted(chain.from_iterable(
        zip(track[::2], track[1::2]) for track in tracks))
    merged: list = []
    for start, end in pairs:
        if merged and start <= merged[-1]:
            if end > merged[-1]:
                merged[-1] = end
        else:
            merged += (start, end)
    return merged


def _measure(intervals: list) -> float:
    # Nothing measured stays the int 0 that builtin ``sum`` returned: the
    # analytics pins and reports render it as ``0``.
    if not intervals:
        return 0
    return ordered_sum(map(sub, intervals[1::2], intervals[::2]))


def _intersect(a: list, b: list) -> list:
    """Intersection of two flat interval lists."""
    out: list = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        a0, a1, b0, b1 = a[i], a[i + 1], b[j], b[j + 1]
        lo = b0 if b0 > a0 else a0      # max(a0, b0)
        hi = b1 if b1 < a1 else a1      # min(a1, b1)
        if hi > lo:
            out += (lo, hi)
        if a1 <= b1:
            i += 2
        else:
            j += 2
    return out


@dataclass
class LinkContention:
    """Contention summary for one link."""

    busy: float = 0.0          # seconds the link was held
    contended: float = 0.0     # seconds transfers spent queued for it
    intervals: int = 0         # (transfer, link) pairs with a positive wait


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


def analyze_trace(recorder: "TraceRecorder",
                  n_devices: int) -> TraceAnalytics:
    """Fold a recorder's accumulators into :class:`TraceAnalytics`.

    Covers the whole run, ring mode included: ``total_time`` is the
    recorder's extent, ``n_events`` the surviving events.
    """
    compute: list = [[] for _ in range(n_devices)]
    cpu: list = [[] for _ in range(n_devices)]
    stream: list = [{} for _ in range(n_devices)]
    swap: list = [[] for _ in range(n_devices)]
    p2p: list = [[] for _ in range(n_devices)]
    for (cat, d, lane), track in recorder.tracks.items():
        if not 0 <= d < n_devices:
            continue
        if cat == "compute":
            (cpu if lane == "cpu" else compute)[d].append(track)
        elif cat == "stream":
            stream[d][lane] = track
        elif lane in _SWAP_LANES:
            swap[d].append(track)
        elif lane.startswith("p2p"):
            p2p[d].append(track)

    out = TraceAnalytics(
        total_time=recorder.extent, n_devices=n_devices,
        n_events=len(recorder), dropped=recorder.dropped,
    )
    for d in range(n_devices):
        comp = _union(compute[d])
        swp = _union(swap[d])
        out.compute_busy.append(_measure(comp))
        out.cpu_busy.append(_measure(_union(cpu[d])))
        out.stream_busy.append({
            lane: _measure(track) for lane, track in sorted(stream[d].items())
        })
        out.swap_hold.append(_measure(swp))
        out.p2p_hold.append(_measure(_union(p2p[d])))
        out.overlap_time.append(_measure(_intersect(comp, swp)))
        if comp:
            window = comp[-1] - comp[0]
            out.bubble_time.append(max(0.0, window - _measure(comp)))
        else:
            out.bubble_time.append(0.0)
    out.link_contention = {
        link: LinkContention(busy, contended, intervals)
        for link, (busy, contended, intervals) in recorder.links.items()
    }
    return out
