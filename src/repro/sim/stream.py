"""CUDA-stream analog: a serial, in-order work queue on the simulator.

The Harmony runtime uses five streams per GPU (compute, swap-in, swap-out,
p2p-in, p2p-out) and CUDA events for cross-stream dependencies; this module
provides exactly that abstraction.  Submitting work returns a
:class:`~repro.sim.engine.SimEvent` that fires on completion, which doubles
as the ``cudaEvent`` recorded after the operation.

An operation that raises (a fault it did not recover from) *poisons* its
completion event -- the event fails with the exception, so dependents
observe a typed error instead of waiting forever -- and the stream keeps
draining subsequent operations, mirroring how a CUDA stream keeps
executing after an async error is surfaced on its event.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator

from repro.common.errors import SimulationError
from repro.sim.engine import Process, SimEvent, Simulator


class Stream:
    """A FIFO executor: queued operations run one at a time, in order.

    Operations are generators.  Each submitted op gets a completion
    :class:`SimEvent`; ops may themselves wait on events from other
    streams, giving CUDA-like cross-stream synchronization.

    One drain process serves the queue until it empties; a submission
    to an idle stream starts a new one.  The drain runs each op inside
    its own generator (``result = yield from op``) between two yields of
    the stream's one already-fired event, which keep every hop where an
    op run as a process of its own would put it (see "Dispatch order" in
    :mod:`repro.sim.engine`).  A failed event the op waits on is thrown
    into it; an op's ``Exception`` fails its completion event, and a
    :class:`SimulationError` aborts :meth:`Simulator.run`.
    """

    def __init__(self, sim: Simulator, name: str, device: int = -1):
        self.sim = sim
        self.name = name
        #: Owning GPU index for trace attribution (-1: not device-bound).
        self.device = device
        #: Trace lane: the short stream name ("compute", "swap_in", ...).
        self.lane = name.rsplit(".", 1)[-1]
        self._queue: deque[tuple[Generator, SimEvent, str]] = deque()
        #: Yielded around each op: already fired, so each yield is a hop.
        self._hop = SimEvent(sim).succeed()
        self._drain_name = f"stream:{name}"
        self._running = False
        self.busy_time = 0.0
        self._ops_done = 0

    @property
    def ops_completed(self) -> int:
        return self._ops_done

    def submit(self, op: Generator, label: str = "") -> SimEvent:
        """Enqueue ``op`` (a generator body) and return its completion event."""
        done = SimEvent(self.sim, name=f"{self.name}:{label}" if label else "")
        self._queue.append((op, done, label))
        if not self._running:
            self._running = True
            Process(self.sim, self._drain(), self._drain_name)
        return done

    def delay(self, seconds: float, label: str = "") -> SimEvent:
        """Enqueue a fixed-duration operation (e.g. a kernel launch)."""

        def body() -> Generator:
            start = self.sim.now
            yield self.sim.timeout(seconds)
            self.busy_time += self.sim.now - start

        return self.submit(body(), label=label)

    def barrier(self, event: SimEvent) -> SimEvent:
        """Enqueue a wait: later ops on this stream run only after ``event``.

        Mirrors ``cudaStreamWaitEvent``.  Waiting does not count as busy
        time.
        """

        def body() -> Generator:
            yield event

        return self.submit(body())

    def call(self, fn: Callable[[], Any]) -> SimEvent:
        """Enqueue an instantaneous host callback in stream order."""

        def body() -> Generator:
            fn()
            return
            yield  # pragma: no cover - makes ``body`` a generator

        return self.submit(body())

    def _drain(self) -> Generator:
        sim, queue, hop = self.sim, self._queue, self._hop
        while queue:
            op, done, label = queue.popleft()
            trace = sim.trace
            start = sim._now
            yield hop
            try:
                result = yield from op
            except SimulationError:
                raise
            except Exception as exc:
                # The op failed; fail its completion event so dependents
                # observe the typed error, and keep serving the queue.
                yield hop
                if trace is not None:
                    trace.span("stream", label, start, sim._now,
                               self.device, self.lane, ok=0)
                done.fail(exc)
                continue
            yield hop
            self._ops_done += 1
            if trace is not None:
                trace.span("stream", label, start, sim._now,
                           self.device, self.lane, ok=1)
            done.succeed(result)
        self._running = False


class StreamSet:
    """The five per-GPU streams the Harmony runtime uses (Section 4.4)."""

    def __init__(self, sim: Simulator, owner: str, device: int = -1):
        self.compute = Stream(sim, f"{owner}.compute", device=device)
        self.swap_in = Stream(sim, f"{owner}.swap_in", device=device)
        self.swap_out = Stream(sim, f"{owner}.swap_out", device=device)
        self.p2p_in = Stream(sim, f"{owner}.p2p_in", device=device)
        self.p2p_out = Stream(sim, f"{owner}.p2p_out", device=device)
