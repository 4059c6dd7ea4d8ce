"""Dispatch-order oracle: the FIFO/heap merge and the in-slot ``AllOf``
countdown equal one heap with a hop per constituent.

The engine keeps zero-delay callbacks in a FIFO beside its heap and runs
the lower ``(time, seq)`` of the two heads each step, and an ``AllOf``
counts down in its constituents' waiter slots, taking a hop only for its
final countdown or a failure.  The reference here is the older kernel:
every callback, zero-delay or not, on one heap, drained by the heap-only
loop below, and an ``AllOf`` (:class:`HopAllOf`) that takes one hop per
constituent.  Seeded random process soups run on both, and the
``(now, label)`` logs the processes write and the unhandled failures
``Soup.drive`` catches must be equal; the step counts must differ by
exactly the reference's non-final countdowns.

The soups mix zero, tied and positive delays, delays absorbed by a huge
clock (a heap entry due *now* scheduled after FIFO entries), shared
events that succeed or fail, ``AllOf`` gates (with duplicate
constituents, constituents that fired before the gate was built, and
failures among success countdowns), contended resources, joins, failing
processes and ``run(until=...)`` pauses with work injected between them.
They reach heap entries due now while FIFO entries wait (ties and the
huge clock), the case the engine's FIFO fast path must leave to the
merge.
"""

from __future__ import annotations

import heapq
import random
from functools import partial
from typing import Any, Iterable, Optional

import pytest

from repro.common.errors import SimulationError
from repro.sim.engine import Resource, SimEvent, Simulator


class _OnTheHeap:
    """Stands in for the FIFO: every zero-delay entry goes on the heap,
    and its ``seq`` is kept in ``pending`` until it runs."""

    def __init__(self, heap: list) -> None:
        self.heap = heap
        self.pending: set[int] = set()

    def append(self, entry: tuple) -> None:
        heapq.heappush(self.heap, entry)
        self.pending.add(entry[1])


class HopAllOf(SimEvent):
    """The older ``AllOf``: one ``_one_done`` hop per constituent.

    It counts the hops the engine's in-slot countdown drops (success
    countdowns that do not fire the gate) on ``sim.non_final``, and notes
    the cases the soups reach on ``sim.cases``.
    """

    __slots__ = ("_events", "_remaining", "_counted")

    def __init__(self, sim: "HeapSimulator", events: Iterable[SimEvent],
                 name: str = ""):
        super().__init__(sim, name=name)
        self._events = list(events)
        self._remaining = len(self._events)
        self._counted = 0
        if any(event.fired for event in self._events):
            sim.cases.add("prefired")
        if len({id(event) for event in self._events}) < len(self._events):
            sim.cases.add("duplicate")
        if self._remaining == 0:
            sim.schedule(0.0, self.succeed, [])
            return
        for event in self._events:
            event.add_callback(partial(self._one_done, event))

    def _one_done(self, event: SimEvent, _value: Any) -> None:
        sim: HeapSimulator = self.sim  # type: ignore[assignment]
        if self._fired:
            if not event.failed:
                sim.non_final += 1
            return
        if event.failed:
            if self._counted:
                sim.cases.add("failure-after-countdown")
            self.fail(event.exception)  # type: ignore[arg-type]
            return
        self._remaining -= 1
        self._counted += 1
        if self._remaining == 0:
            self.succeed([e.value for e in self._events])
        else:
            sim.non_final += 1


class HeapSimulator(Simulator):
    """The reference kernel: one heap of ``(time, seq)`` entries, and a
    hop per ``AllOf`` constituent."""

    def __init__(self) -> None:
        super().__init__()
        self.zero_delay = _OnTheHeap(self._heap)
        self._fifo = self.zero_delay  # type: ignore[assignment]
        #: Hops the engine's countdown drops: success countdowns that do
        #: not fire their gate.
        self.non_final = 0
        self.cases: set[str] = set()

    def all_of(self, events: Iterable[SimEvent],  # type: ignore[override]
               name: str = "") -> HopAllOf:
        return HopAllOf(self, events, name=name)

    def run(self, until: Optional[float] = None,
            max_steps: Optional[int] = None,
            horizon: Optional[float] = None) -> float:
        if self._unhandled:
            self._raise_unhandled()
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            time, _seq, callback, args = heap[0]
            if until is not None and time > until:
                self._now = until
                return self._now
            if horizon is not None and time > horizon:
                raise SimulationError("horizon")
            if max_steps is not None and self._steps >= max_steps:
                raise SimulationError("max_steps")
            heappop(heap)
            zero_delay = self.zero_delay.pending
            if _seq in zero_delay:
                zero_delay.remove(_seq)
            elif zero_delay:
                # A heap entry due now runs ahead of FIFO entries: the
                # engine's FIFO fast path must hand this step back.
                self.cases.add("due-now")
            if time < self._now - 1e-12:
                raise SimulationError("event heap time went backwards")
            self._now = time
            self._steps += 1
            callback(*args)
            if self._unhandled:
                self._raise_unhandled()
        return self._now


class SoupError(Exception):
    """The failure a soup injects."""


#: Delay grid: repeated values make many callbacks tie on time.
DELAYS = (0.0, 0.0, 0.0, 0.25, 0.5, 0.5, 1.0)
#: A clock this large absorbs the grid's positive delays: ``now + 0.25``
#: is ``now``, so a heap entry lands due now behind FIFO entries.
HUGE = 1e16


def _script(rng: random.Random, depth: int) -> list[tuple]:
    """One process's actions, drawn up front so both kernels get the same
    soup whatever order they run it in."""
    actions = []
    for _ in range(rng.randint(2, 8)):
        kind = rng.choice(("sleep", "sleep", "wait", "fire", "use", "all",
                           "join", "spawn", "raise", "schedule"))
        if kind == "sleep":
            delay = rng.choice(DELAYS) if rng.random() < 0.8 else rng.random()
            actions.append(("sleep", delay))
        elif kind in ("wait", "fire"):
            actions.append((kind, rng.randrange(6), rng.random() < 0.7))
        elif kind == "use":
            actions.append(("use", rng.randrange(2), rng.choice(DELAYS)))
        elif kind == "all":
            events = [rng.randrange(6) for _ in range(rng.randint(0, 4))]
            actions.append(("all", events, rng.choice(DELAYS)))
        elif kind == "join":
            actions.append(("join", rng.randrange(64)))
        elif kind == "spawn" and depth < 2:
            actions.append(("spawn", _script(rng, depth + 1)))
        elif kind == "raise":
            actions.append(("raise",))
            break
        elif kind == "schedule":
            actions.append(("schedule", rng.choice(DELAYS)))
    return actions


class Soup:
    """Builds and drives one seeded soup on a given kernel."""

    def __init__(self, sim: Simulator, seed: int) -> None:
        rng = random.Random(f"dispatch-soup:{seed}")
        self.sim = sim
        self.log: list[tuple[float, str]] = []
        self.events = [sim.event(name=f"e{i}") for i in range(6)]
        self.resources = [Resource(sim, capacity=1), Resource(sim, capacity=2)]
        self.processes: list[SimEvent] = []
        huge = rng.random() < 0.3
        self.scripts = [
            ([("sleep", HUGE)] if huge else []) + _script(rng, 0)
            for _ in range(rng.randint(3, 12))
        ]
        self.pauses = sorted(rng.choice(DELAYS) * rng.randint(1, 4)
                             for _ in range(rng.randint(0, 3)))
        if huge:
            self.pauses = [HUGE + p for p in self.pauses]
        self.late = [_script(rng, 1) for _ in self.pauses]

    def spawn(self, script: list[tuple]) -> None:
        pid = len(self.processes)
        self.processes.append(
            self.sim.process(self._body(pid, script), name=f"p{pid}"))

    def _note(self, pid: int, what: str) -> None:
        self.log.append((self.sim.now, f"p{pid}:{what}"))

    def _body(self, pid: int, script: list[tuple]):
        sim = self.sim
        self._note(pid, "start")
        for step, action in enumerate(script):
            kind = action[0]
            try:
                if kind == "sleep":
                    yield sim.timeout(action[1])
                elif kind == "wait":
                    value = yield self.events[action[1]]
                    self._note(pid, f"{step}:got:{value}")
                elif kind == "fire":
                    event = self.events[action[1]]
                    if not event.fired:
                        if action[2]:
                            event.succeed(f"v{pid}.{step}")
                        else:
                            event.fail(SoupError(f"f{pid}.{step}"))
                elif kind == "use":
                    resource = self.resources[action[1]]
                    yield resource.request()
                    self._note(pid, f"{step}:granted")
                    yield sim.timeout(action[2])
                    resource.release()
                elif kind == "all":
                    members = [self.events[i] for i in action[1]]
                    members.append(sim.timeout(action[2]))
                    yield sim.all_of(members)
                elif kind == "join":
                    if action[1] < len(self.processes):
                        value = yield self.processes[action[1]]
                        self._note(pid, f"{step}:joined:{value}")
                elif kind == "spawn":
                    self.spawn(action[1])
                elif kind == "raise":
                    raise SoupError(f"p{pid} raised")
                elif kind == "schedule":
                    sim.schedule(action[1], self._note, pid, f"{step}:cb")
            except SoupError as exc:
                if kind == "raise":
                    raise  # fails the process, and so its joiners
                self._note(pid, f"{step}:caught:{exc}")
            self._note(pid, f"{step}:{kind}")
        return pid

    def drive(self) -> int:
        for script in self.scripts:
            self.spawn(script)
        for until, late in zip(self.pauses + [None], self.late + [None]):
            while True:
                try:
                    self.sim.run(until=until)
                    break
                except SoupError as exc:
                    self.log.append((self.sim.now, f"unhandled:{exc}"))
            self.log.append((self.sim.now, "pause"))
            if late is not None:
                self.spawn(late)
                self.sim.schedule(0.0, self._note, -1, "injected")
        return self.sim.steps


def _drive(kernel: type, seed: int) -> tuple[list, int, Simulator]:
    soup = Soup(kernel(), seed)
    steps = soup.drive()
    return soup.log, steps, soup.sim


@pytest.mark.parametrize("block", range(8))
def test_merge_dispatches_like_one_heap(block):
    for seed in range(block * 40, (block + 1) * 40):
        expected_log, expected_steps, reference = _drive(HeapSimulator, seed)
        log, steps, _ = _drive(Simulator, seed)
        assert log == expected_log, f"seed {seed}"
        assert steps == expected_steps - reference.non_final, f"seed {seed}"


def test_soups_reach_the_interesting_cases():
    """The soups really do hit ties, failures, pauses, contention, and
    every ``AllOf`` case the countdown has to get right."""
    seen: set[str] = set()
    dropped = 0
    for seed in range(320):
        log, _, reference = _drive(HeapSimulator, seed)
        seen |= reference.cases
        dropped += reference.non_final
        text = " ".join(label for _, label in log)
        for needle in ("caught", "unhandled", "granted", "joined", "got",
                       "injected", ":cb"):
            if needle in text:
                seen.add(needle)
        times = [t for t, _ in log]
        if len(times) != len(set(times)):
            seen.add("ties")
        if any(t >= HUGE for t in times):
            seen.add("huge")
    assert seen == {"caught", "unhandled", "granted", "joined", "got",
                    "injected", ":cb", "ties", "huge", "prefired",
                    "duplicate", "failure-after-countdown", "due-now"}
    assert dropped > 0


def test_unhandled_failure_from_a_fifo_callback_keeps_the_step_count():
    """The engine counts steps in a local; a failure escaping ``run``
    from a zero-delay callback still leaves the reference's count."""

    def steps_at_failure(sim: Simulator) -> int:
        def body():
            yield sim.timeout(0.0)
            yield sim.timeout(0.0)
            sim.event("orphan").fail(SoupError("lost"))
            yield sim.timeout(1.0)

        sim.process(body(), name="p")
        with pytest.raises(SoupError, match="lost"):
            sim.run()
        return sim.steps

    assert steps_at_failure(Simulator()) == steps_at_failure(HeapSimulator())
    assert steps_at_failure(Simulator()) == 5
