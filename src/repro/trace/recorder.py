"""The trace recorder: collects events, optionally as a bounded ring.

A recorder attaches to a simulator as ``sim.trace``; traced layers call
:meth:`span` / :meth:`instant` only after checking the attribute, so an
unattached run does no recording work at all.

The recorder owns a *base* time offset.  Runs that span several
simulators -- the fault-tolerant runner restarts each iteration attempt
on a fresh simulator whose clock starts at zero, and state migrations run
on their own simulator too -- advance the base by each phase's virtual
duration, so the recorded events form one continuous global timeline.

Ring mode (``ring=N``) keeps only the newest ``N`` events and counts the
rest in :attr:`dropped`; memory stays bounded no matter how long the run.
Analytics and invariants over a ring see only the surviving suffix.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.trace.events import TraceEvent, make_meta

#: Fills a :class:`TraceEvent` from a tuple of its fields in declaration
#: order, skipping the generated ``__new__``'s per-field argument binding.
_new_event = tuple.__new__


class TraceRecorder:
    """Collects :class:`TraceEvent` records in arrival order."""

    def __init__(self, ring: Optional[int] = None):
        if ring is not None and ring < 1:
            raise ValueError(f"ring capacity must be >= 1, got {ring}")
        self.ring = ring
        self._events: deque = deque(maxlen=ring)
        #: global time offset added to every recorded timestamp
        self.base = 0.0
        #: events evicted by ring mode
        self.dropped = 0
        #: largest (base-adjusted) end time seen, even for evicted events
        self.extent = 0.0
        self._seq = 0

    # -- recording ---------------------------------------------------------------

    def span(self, cat: str, name: str, t0: float, t1: float, *,
             device: int = -1, lane: str = "", tid: int = -1,
             nbytes: int = 0, **meta) -> TraceEvent:
        """Record an interval event (local times; base applied here)."""
        return self._record("span", cat, name, self.base + t0,
                            self.base + t1, device, lane, tid, nbytes, meta)

    def instant(self, cat: str, name: str, t: float, *,
                device: int = -1, lane: str = "", tid: int = -1,
                nbytes: int = 0, **meta) -> TraceEvent:
        """Record a point event (local time; base applied here)."""
        at = self.base + t
        return self._record("instant", cat, name, at, at, device, lane, tid,
                            nbytes, meta)

    def _record(self, kind: str, cat: str, name: str, t0: float, t1: float,
                device: int, lane: str, tid: int, nbytes: int,
                meta: dict) -> TraceEvent:
        self._seq += 1
        event = _new_event(TraceEvent, (
            kind, cat, name, t0, t1, device, lane, tid, nbytes, self._seq,
            make_meta(**meta) if meta else (),
        ))
        if self.ring is not None and len(self._events) == self.ring:
            self.dropped += 1
        self._events.append(event)
        if t1 > self.extent:
            self.extent = t1
        return event

    # -- multi-simulator stitching ------------------------------------------------

    def advance(self, dt: float) -> None:
        """Shift the base: the next simulator phase starts ``dt`` later."""
        if dt < 0:
            raise ValueError(f"cannot advance the trace base by {dt}")
        self.base += dt

    # -- access ------------------------------------------------------------------

    @property
    def events(self) -> list:
        """The surviving events, in record order."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0
        self.base = 0.0
        self.extent = 0.0
        self._seq = 0

    def canonical(self) -> str:
        """One line per event -- the golden-trace file format."""
        return "\n".join(e.canonical() for e in self._events)
