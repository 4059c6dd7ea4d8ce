"""The trace recorder: collects events, optionally as a bounded ring.

A recorder attaches to a simulator as ``sim.trace``; traced layers call
:meth:`span` / :meth:`instant` only after checking the attribute, so an
unattached run does no recording work at all.

Recording stores one raw row per event: the event's positional fields
and the caller's own ``**meta`` dict, with no sort and no
:class:`TraceEvent`.  Reading :attr:`events` builds the events from the
rows, each with its meta sorted into a tuple and its ``seq`` derived
from the row's position; :meth:`canonical` formats the rows directly.
A traced run whose only reader is
:func:`~repro.trace.analytics.analyze_trace` therefore builds no event
at all.  The ``**meta`` dict is a fresh one the interpreter made for the
call, so no caller can alias or mutate it after the row keeps it.

The recorder owns a *base* time offset.  Runs that span several
simulators -- the fault-tolerant runner restarts each iteration attempt
on a fresh simulator whose clock starts at zero, and state migrations run
on their own simulator too -- advance the base by each phase's virtual
duration, so the recorded events form one continuous global timeline.

Besides the rows, the recorder keeps the accumulators
:func:`~repro.trace.analytics.analyze_trace` folds, updated as each span
arrives:

- :attr:`tracks` -- per ``(category, device, lane)`` of every
  ``compute``, ``stream`` and ``xfer`` span, the union of the lane's
  spans as one flat, strictly increasing list ``[start0, end0, start1,
  end1, ...]`` of disjoint intervals (touching intervals merge;
  zero-length spans add nothing).  A lane is a FIFO track, so spans
  arrive in end-time order and the common update appends an interval or
  moves the last end; a span that starts before the last interval or
  ends before it does is bisected into place (:func:`_insert`).
- :attr:`links` -- per link name, ``[busy, contended, intervals]``:
  ``busy`` is the left fold, in record order, of every ``xfer`` hold's
  duration; ``contended`` the fold of the per-link waits the transfer
  charged (:func:`repro.sim.links.transfer`) and ``intervals`` how many
  of those waits were positive.

Ring mode (``ring=N``) keeps only the newest ``N`` rows and counts the
rest in :attr:`dropped`, so memory for events stays bounded no matter how
long the run.  A surviving event keeps the ``seq`` it was recorded with.
The accumulators are not evicted: analytics over a ring cover the whole
run (only ``n_events`` and ``dropped`` tell a ring run apart), while
invariant checks over :attr:`events` see the surviving suffix.
:meth:`clear` resets rows and accumulators alike.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from typing import Optional

from repro.trace.events import TraceEvent, canonical_line

#: Fills a :class:`TraceEvent` from a tuple of its fields in declaration
#: order, skipping the generated ``__new__``'s per-field argument binding.
#: Every event the recorder builds is built here, on read.
_new_event = tuple.__new__

#: Span categories whose per-lane interval unions the recorder keeps.
TRACKED = frozenset(("compute", "stream", "xfer"))


def _insert(track: list, t0: float, t1: float) -> None:
    """Merge ``[t0, t1)`` into the flat union ``track`` wherever it lands:
    in an earlier gap, across several intervals, or over the last one.

    ``track`` is strictly increasing, so an odd bisection index means the
    endpoint falls inside (or touches) an interval, whose own endpoint
    then bounds the merge.
    """
    i = bisect_left(track, t0)
    j = bisect_right(track, t1)
    if i % 2:
        i -= 1
        t0 = track[i]
    if j % 2:
        t1 = track[j]
        j += 1
    track[i:j] = (t0, t1)


class TraceRecorder:
    """Records events as raw rows in arrival order; builds
    :class:`TraceEvent` records only when they are read."""

    def __init__(self, ring: Optional[int] = None):
        if ring is not None and ring < 1:
            raise ValueError(f"ring capacity must be >= 1, got {ring}")
        self.ring = ring
        #: (kind, cat, name, t0, t1, device, lane, tid, nbytes, meta dict)
        self._rows: deque = deque(maxlen=ring)
        self._append = self._rows.append
        #: global time offset added to every recorded timestamp
        self.base = 0.0
        #: largest (base-adjusted) end time seen, even for evicted events
        self.extent = 0.0
        #: events recorded since construction or the last clear()
        self._seq = 0
        #: {(cat, device, lane): flat union [start0, end0, start1, ...]}
        self.tracks: dict = {}
        #: {link name: [busy, contended, intervals]}, first hold first
        self.links: dict = {}

    # -- recording ---------------------------------------------------------------

    def span(self, cat: str, name: str, t0: float, t1: float,
             device: int = -1, lane: str = "", tid: int = -1,
             nbytes: int = 0, holds: tuple = (),
             waits: Optional[list] = None, **meta) -> None:
        """Record an interval event (local times; base applied here).

        ``holds`` names the links an ``xfer`` span held, each charged the
        span's duration as busy time; ``waits`` lists the positive
        ``(link, seconds)`` queueing delays the transfer saw before each
        grant.  Neither is part of the event.  Hot sites pass the fields
        up to ``waits`` positionally.
        """
        base = self.base
        t0 = base + t0
        t1 = base + t1
        self._seq += 1
        self._append(("span", cat, name, t0, t1, device, lane, tid, nbytes,
                      meta))
        if t1 > self.extent:
            self.extent = t1
        if cat in TRACKED:
            track = self.tracks.get((cat, device, lane))
            if track is None:
                # A lane of zero-length spans is still a lane.
                self.tracks[(cat, device, lane)] = [t0, t1] if t1 > t0 else []
            elif t1 > t0:
                if not track or t0 > track[-1]:
                    track.append(t0)
                    track.append(t1)
                elif t1 >= track[-1] and t0 >= track[-2]:
                    track[-1] = t1
                else:
                    _insert(track, t0, t1)
        if holds:
            held = t1 - t0
            links = self.links
            for link in holds:
                acc = links.get(link)
                if acc is None:
                    acc = links[link] = [0.0, 0.0, 0]
                acc[0] += held
            if waits:
                for link, wait in waits:
                    acc = links[link]
                    acc[1] += wait
                    acc[2] += 1

    def instant(self, cat: str, name: str, t: float, device: int = -1,
                lane: str = "", tid: int = -1, nbytes: int = 0,
                **meta) -> None:
        """Record a point event (local time; base applied here)."""
        at = self.base + t
        self._seq += 1
        self._append(("instant", cat, name, at, at, device, lane, tid, nbytes,
                      meta))
        if at > self.extent:
            self.extent = at

    # -- multi-simulator stitching ------------------------------------------------

    def advance(self, dt: float) -> None:
        """Shift the base: the next simulator phase starts ``dt`` later."""
        if dt < 0:
            raise ValueError(f"cannot advance the trace base by {dt}")
        self.base += dt

    # -- access ------------------------------------------------------------------

    @property
    def events(self) -> list:
        """The surviving events, in record order, built from the rows.

        ``seq`` counts from the first event since construction or the
        last :meth:`clear`, so a ring's survivors keep their numbers.
        """
        seq = self.dropped
        events = []
        for kind, cat, name, t0, t1, device, lane, tid, nbytes, meta in \
                self._rows:
            seq += 1
            events.append(_new_event(TraceEvent, (
                kind, cat, name, t0, t1, device, lane, tid, nbytes, seq,
                tuple(sorted(meta.items())) if meta else (),
            )))
        return events

    @property
    def dropped(self) -> int:
        """Events evicted by ring mode."""
        return self._seq - len(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def clear(self) -> None:
        self._rows.clear()
        self.base = 0.0
        self.extent = 0.0
        self._seq = 0
        self.tracks.clear()
        self.links.clear()

    def canonical(self) -> str:
        """One line per event -- the golden-trace file format.

        Formatted from the rows, without building the events: the text
        equals joining the events' own :meth:`TraceEvent.canonical` lines.
        """
        return "\n".join([
            canonical_line(kind, cat, name, t0, t1, device, lane, tid, nbytes,
                           sorted(meta.items()) if meta else ())
            for kind, cat, name, t0, t1, device, lane, tid, nbytes, meta
            in self._rows
        ])
