"""A small process-based discrete-event simulation kernel.

The kernel follows the SimPy model: a *process* is a Python generator that
yields :class:`SimEvent` objects; yielding suspends the process until the
event fires.  The :class:`Simulator` owns virtual time and the scheduled
callbacks: a binary heap for future ones and a FIFO for zero-delay ones
(event wake-ups, process starts), which make up most of a run.

Dispatch order
--------------

Every scheduled callback gets a sequence number, and callbacks run in
``(time, seq)`` order -- exactly the order one heap of ``(time, seq)``
entries would pop.  A zero-delay callback is due at the current time and
its ``seq`` is the largest yet, so the FIFO is sorted by ``(time, seq)``
too; each step runs the lower of the FIFO's head and the heap's.  The
heap head wins a tie on time when it was scheduled earlier (a timeout
due now), which is what keeps the merge equal to the single heap.

The loop runs the FIFO head outright, with no comparison of the two
heads and no clock update, whenever the heap is empty or its head is
strictly later than now.  Every FIFO entry is due now, so then no heap
entry can precede it in ``(time, seq)`` order and the single heap would
pop it too.  A heap entry due now -- a timeout expiring at this
instant, or a positive delay absorbed by a huge clock -- sends the step
back through the general comparison above.

Scheduling hops are part of that order: a timeout's waiter runs one hop
after the timeout fires, never inside it, so same-time events interleave
as they always have.

An :class:`AllOf` counts down in its constituents' waiter slots instead
of taking a hop per constituent.  When a constituent succeeds, the
composite's counter drops in place; only the final countdown takes a
hop, and it takes the FIFO position the waiter slot holds, which is the
position a hop per constituent gave the final one.  A failure takes a
hop at its slot too.  Constituents that had already fired when the
composite was built count at construction.  The dropped hops ran
nothing but a decrement, so the ``(time, seq)`` order of every other
callback is unchanged; only :attr:`Simulator.steps` falls, by the number
of non-final countdowns.

Only the features the Harmony runtime needs are implemented -- timeouts,
composable events, FIFO resources, interruptible (failable) events, and a
watchdog -- which keeps the kernel small enough to reason about and fully
unit-tested.

Failure model
-------------

An event can *fail* instead of succeeding (:meth:`SimEvent.fail`).  A
process waiting on a failed event has the exception thrown into its
generator at the ``yield``, so it can catch and recover (retry a faulted
transfer) or let it propagate, failing the process's own completion event
in turn.  A failure that reaches an event nobody waits on is *unhandled*:
the simulator re-raises it out of :meth:`Simulator.run` instead of
silently swallowing it.  The net effect is the guarantee the fault
subsystem (:mod:`repro.faults`) builds on: an injected fault either gets
handled by a recovery policy or surfaces as a typed exception -- never as
a hang.

Cyclic GC
---------

:meth:`Simulator.run` turns the cyclic garbage collector off for its
loop and restores the caller's setting when it returns or raises.  The
loop allocates an event, a tuple or a generator frame at nearly every
step, so collections kept triggering inside it, and on fault-free runs
they found nothing to free: processes, events and drained stream ops are
freed by reference counting (a finished process drops its target and its
resume callback; see :class:`Process`).  A nested run (the planning
service's loop executing a plan's own simulation) finds the collector
already off and leaves it off; only the outermost run turns it back on.
Chaos runs do make cycles -- an exception thrown into a process keeps a
traceback that refers to the frames that caught it -- and those wait
for the first collection after the outermost ``run`` returns.
"""

from __future__ import annotations

import gc
import heapq
import math
import sys
from collections import deque
from typing import Any, Callable, Generator, Iterable, NoReturn, Optional

from repro.common.errors import SimulationError

ProcessBody = Generator["SimEvent", Any, Any]


class SimEvent:
    """A one-shot event that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` fires it, resuming
    every waiting process with ``value``, and calling :meth:`fail` fires
    it in the failed state, throwing the exception into every waiting
    process.  Waiting on an already-fired event resumes the waiter
    immediately (on the next simulator step).

    ``name`` identifies the event in error messages; the runtime names
    its task events with the same ``t<tid>`` / ``gpu<d>.<stream>``
    scheme the static analyzer's diagnostics use, so a runtime failure
    and a pre-run diagnostic point at the same schedule entity.
    """

    __slots__ = ("sim", "name", "_fired", "_value", "_exc", "_waiters",
                 "__weakref__")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._fired = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        #: Callbacks to schedule on firing, and waiting composites (an
        #: :class:`AllOf` in its own slot), in registration order.
        self._waiters: list[Any] = []

    def _label(self) -> str:
        return f"event {self.name!r}" if self.name else "event"

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def failed(self) -> bool:
        """True once the event has fired in the failed state."""
        return self._fired and self._exc is not None

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    @property
    def value(self) -> Any:
        if not self._fired:
            raise SimulationError(
                f"{self._label()} value read before the event fired"
            )
        if self._exc is not None:
            raise self._exc
        return self._value

    def succeed(self, value: Any = None) -> "SimEvent":
        """Fire the event, waking all waiters at the current sim time."""
        if self._fired:
            raise SimulationError(f"{self._label()} fired twice")
        self._fired = True
        self._value = value
        waiters = self._waiters
        if waiters:
            # Inlined ``sim.schedule(0.0, callback, value)`` per waiter; a
            # waiting composite counts down in its slot instead.
            self._waiters = []
            sim = self.sim
            now, seq, append = sim._now, sim._seq, sim._fifo.append
            args = (value,)
            for callback in waiters:
                if callback.__class__ is AllOf:
                    callback._remaining -= 1
                    if callback._remaining:
                        continue
                    seq += 1
                    append((now, seq, callback._finish, ()))
                    continue
                seq += 1
                append((now, seq, callback, args))
            sim._seq = seq
        return self

    def fail(self, exc: BaseException) -> "SimEvent":
        """Fire the event in the failed state.

        Every waiter is woken with the exception (processes have it thrown
        into their generator).  If nobody is waiting, the failure is
        recorded as *unhandled* and :meth:`Simulator.run` re-raises it on
        its next step -- a fault can terminate the run with a typed error
        but can never be silently lost.
        """
        if self._fired:
            raise SimulationError(f"{self._label()} fired twice")
        if not isinstance(exc, BaseException):
            raise SimulationError(
                f"{self._label()} failed with non-exception {exc!r}"
            )
        self._fired = True
        self._exc = exc
        waiters, self._waiters = self._waiters, []
        if not waiters:
            self.sim._unhandled.append((self, exc))
        for callback in waiters:
            if callback.__class__ is AllOf:
                self.sim.schedule(0.0, callback._abort, exc)
            else:
                self.sim.schedule(0.0, callback, exc)
        return self

    def add_callback(self, callback: Callable[[Any], None]) -> None:
        """Invoke ``callback(value)`` when the event fires (immediately if
        it already has).  On a failed event the callback receives the
        exception instance as its value; composite events and processes
        inspect :attr:`failed` to tell the cases apart."""
        if self._fired:
            self.sim.schedule(
                0.0, callback, self._exc if self._exc is not None else self._value
            )
        else:
            self._waiters.append(callback)


class Timeout(SimEvent):
    """An event that fires ``delay`` seconds after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float):
        super().__init__(sim)
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        # Inlined ``sim.schedule(delay, self.succeed)``.
        sim._seq += 1
        if delay == 0:
            sim._fifo.append((sim._now, sim._seq, self.succeed, ()))
        else:
            heapq.heappush(sim._heap,
                           (sim._now + delay, sim._seq, self.succeed, ()))


class AllOf(SimEvent):
    """Fires once every event in ``events`` has fired.

    The value is the list of constituent event values, in input order.
    An empty input fires immediately.  If any constituent fails, the
    composite fails with the first such exception (the remaining
    constituents are still awaited by whoever holds them, but this event
    reports the failure as soon as it is known).

    The composite sits in each pending constituent's waiter list itself;
    :meth:`SimEvent.succeed` and :meth:`SimEvent.fail` count it down or
    abort it there (see "Dispatch order" in the module docstring).
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[SimEvent],
                 name: str = ""):
        super().__init__(sim, name=name)
        self._events = list(events)
        remaining = len(self._events)
        for event in self._events:
            if not event._fired:
                event._waiters.append(self)
            elif event._exc is None:
                remaining -= 1
            else:
                sim.schedule(0.0, self._abort, event._exc)
        self._remaining = remaining
        if remaining == 0:
            sim.schedule(0.0, self._finish)

    def _finish(self) -> None:
        """The final countdown's hop: every constituent succeeded."""
        if not self._fired:
            self.succeed([event._value for event in self._events])

    def _abort(self, exc: BaseException) -> None:
        """A failed constituent's hop: the first one fails the composite."""
        if not self._fired:
            self.fail(exc)


class Process(SimEvent):
    """Runs a generator as a simulation process.

    The process event itself fires when the generator returns; its value is
    the generator's return value, so processes compose (a process may yield
    another process to join it).  An exception escaping the generator --
    either raised directly or thrown in by a failed event it was waiting
    on -- fails the process event, propagating the failure to joiners.

    While waiting, the process holds the event in ``_target`` and the
    event holds a freshly bound ``_resume`` among its waiters; the resume
    clears ``_target``, so a finished process is freed by reference
    counting.  (A bound method cached on the process itself would be a
    reference cycle that only the cyclic collector frees.)
    """

    __slots__ = ("_body", "_target")

    def __init__(self, sim: "Simulator", body: ProcessBody, name: str = "proc"):
        super().__init__(sim, name=name)
        self._body = body
        self._target: Optional[SimEvent] = None
        # Register, then the inlined ``sim.schedule(0.0, self._resume, None)``.
        sim._processes[self] = None
        sim._seq += 1
        sim._fifo.append((sim._now, sim._seq, self._resume, (None,)))

    def _resume(self, _value: Any) -> None:
        """Advance the generator past its wait on ``_target`` (or start
        it), then wait on whatever it yields next."""
        event = self._target
        try:
            if event is None:
                target = self._body.send(None)
            else:
                self._target = None
                exc = event._exc
                if exc is None:
                    target = self._body.send(event._value)
                else:
                    target = self._body.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            del self.sim._processes[self]
            return
        except SimulationError:
            # Kernel-invariant violations abort the simulation outright.
            raise
        except BaseException as exc:
            self.fail(exc)
            del self.sim._processes[self]
            return
        if not isinstance(target, SimEvent):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield SimEvent instances"
            )
        self._target = target
        if target._fired:
            sim = self.sim
            sim._seq += 1
            sim._fifo.append((sim._now, sim._seq, self._resume, (None,)))
        else:
            target._waiters.append(self._resume)


class Resource:
    """A counted FIFO resource (like a semaphore with fair queuing).

    ``request()`` returns an event that fires when a slot is granted;
    the holder must call ``release()`` exactly once per grant.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "res"):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._queue: deque[SimEvent] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    def request(self) -> SimEvent:
        event = SimEvent(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            # A free grant fires with no waiters: all ``succeed()`` would do.
            event._fired = True
        else:
            self._queue.append(event)
        return event

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._queue:
            grant = self._queue.popleft()
            grant.succeed()
        else:
            self._in_use -= 1


class Simulator:
    """The event loop: virtual clock plus the scheduled callbacks (a heap
    for future ones, a FIFO for zero-delay ones; see the module docstring).

    The loop carries a watchdog: ``run(max_steps=...)`` bounds the number
    of executed callbacks and ``run(horizon=...)`` bounds virtual time;
    exceeding either raises :class:`SimulationError` naming the processes
    still pending, instead of looping (or advancing virtual time) forever
    when a process leaks.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        #: Zero-delay callbacks, same entries as the heap, in seq order.
        self._fifo: deque[tuple[float, int, Callable[..., None], tuple]] = \
            deque()
        self._seq = 0
        self._steps = 0
        self._unhandled: list[tuple[SimEvent, BaseException]] = []
        # Pending-process index.  Long simulations (multi-iteration chaos
        # runs) spawn one short-lived process per stream operation; an
        # append-only list both grows without bound and forces the
        # watchdog to scan every process that ever ran.  An insertion-
        # ordered dict keyed on the process gives O(1) register/retire
        # and keeps only live processes, while preserving the
        # registration order the watchdog's error message reports.
        self._processes: dict[Process, None] = {}
        #: Optional execution-trace recorder (duck-typed
        #: :class:`repro.trace.recorder.TraceRecorder`).  Traced layers
        #: guard every recording on ``sim.trace is not None``, so the
        #: default costs one attribute read and the simulation schedule
        #: is bit-identical with tracing on or off -- recording never
        #: consumes virtual time.
        self.trace: Optional[Any] = None

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def steps(self) -> int:
        """Callbacks executed so far (the watchdog's step counter); the
        count is brought up to date when :meth:`run` returns or raises."""
        return self._steps

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        if delay == 0:
            self._fifo.append((self._now, self._seq, callback, args))
        else:
            heapq.heappush(self._heap,
                           (self._now + delay, self._seq, callback, args))

    def event(self, name: str = "") -> SimEvent:
        return SimEvent(self, name=name)

    def timeout(self, delay: float) -> Timeout:
        return Timeout(self, delay)

    def all_of(self, events: Iterable[SimEvent], name: str = "") -> AllOf:
        return AllOf(self, events, name=name)

    def process(self, body: ProcessBody, name: str = "proc") -> Process:
        """Register a generator as a process starting at the current time."""
        return Process(self, body, name=name)

    def _pending_processes(self, limit: int = 8) -> str:
        pending = [p.name for p in self._processes if not p.fired]
        shown = ", ".join(repr(n) for n in pending[:limit])
        more = len(pending) - min(len(pending), limit)
        if more > 0:
            shown += f", +{more} more"
        return shown or "(none)"

    def _raise_unhandled(self) -> None:
        event, exc = self._unhandled[0]
        self._unhandled.clear()
        raise exc

    def _raise_step_limit(self, max_steps: Optional[int]) -> NoReturn:
        raise SimulationError(
            f"simulation exceeded {max_steps} steps without "
            f"draining (suspected runaway or leaked process); "
            f"pending processes: {self._pending_processes()}"
        )

    def run(
        self,
        until: Optional[float] = None,
        max_steps: Optional[int] = None,
        horizon: Optional[float] = None,
    ) -> float:
        """Execute events until the heap drains (or ``until`` is reached).

        ``until`` pauses quietly at the given virtual time (resumable); it
        may equal the current time but not precede it.  ``max_steps`` /
        ``horizon`` are watchdog limits -- exceeding either raises
        :class:`SimulationError` naming the still-pending processes.  An
        unhandled event failure (see :meth:`SimEvent.fail`) is re-raised
        out of this method.

        Returns the final simulation time.
        """
        if self._unhandled:
            self._raise_unhandled()
        now = self._now
        if until is not None and until < now:
            raise SimulationError(
                f"run(until={until!r}) would rewind the clock from "
                f"{now!r}; a pause must not precede the current time"
            )
        # Everything the loop touches is bound to locals: it runs once per
        # scheduled callback and is re-entered thousands of times across a
        # chaos sweep, so attribute lookups in it are measurable.  The
        # step count is a local too, written back however the loop ends.
        heap, fifo, unhandled = self._heap, self._fifo, self._unhandled
        heappop, popleft = heapq.heappop, fifo.popleft
        # One comparison per step guards both ``until`` and ``horizon``.
        bound = min((t for t in (until, horizon) if t is not None),
                    default=math.inf)
        limit = sys.maxsize if max_steps is None else max_steps
        steps = self._steps
        collecting = gc.isenabled()
        gc.disable()
        try:
            while True:
                # Fast path: a FIFO entry is due now, so while the heap
                # head is strictly later the FIFO head is the lowest
                # ``(time, seq)``, and the clock stays where it is.
                while fifo and (not heap or heap[0][0] > now) and now <= bound:
                    if steps >= limit:
                        self._raise_step_limit(max_steps)
                    item = popleft()
                    steps += 1
                    item[2](*item[3])
                    if unhandled:
                        self._raise_unhandled()
                if fifo:
                    item = fifo[0]
                    from_heap = False
                    # Tuples compare by (time, seq): an earlier-scheduled
                    # heap entry due now still runs first.
                    if heap and heap[0] < item:
                        item = heap[0]
                        from_heap = True
                elif heap:
                    item = heap[0]
                    from_heap = True
                else:
                    return now
                time = item[0]
                if time > bound:
                    if until is not None and time > until:
                        self._now = until
                        return until
                    raise SimulationError(
                        f"simulation exceeded its virtual-time horizon "
                        f"({horizon:.6g}s) with work still pending; pending "
                        f"processes: {self._pending_processes()}"
                    )
                if steps >= limit:
                    self._raise_step_limit(max_steps)
                if from_heap:
                    heappop(heap)
                else:
                    popleft()
                if time < now - 1e-12:
                    raise SimulationError("event heap time went backwards")
                self._now = now = time
                steps += 1
                item[2](*item[3])
                if unhandled:
                    self._raise_unhandled()
        finally:
            self._steps = steps
            if collecting:
                gc.enable()
