"""Unit tests for the discrete-event simulation kernel."""

import gc
import math
import weakref

import pytest

from repro.common.errors import SimulationError
from repro.sim.engine import AllOf, Resource, Timeout
from repro.sim.stream import Stream


class TestSimulatorBasics:
    def test_starts_at_time_zero(self, sim):
        assert sim.now == 0.0

    def test_run_with_no_events_returns_zero(self, sim):
        assert sim.run() == 0.0

    def test_schedule_advances_clock(self, sim):
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_schedule_order_is_time_then_fifo(self, sim):
        order = []
        sim.schedule(1.0, lambda: order.append("b"))
        sim.schedule(0.5, lambda: order.append("a"))
        sim.schedule(1.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_nan_delay_rejected(self, sim):
        with pytest.raises(SimulationError, match="NaN"):
            sim.schedule(math.nan, lambda: None)

    def test_nan_wait_never_takes_the_clock_to_nan(self, sim):
        log = []

        def waiter(name, delay):
            yield sim.timeout(delay)
            log.append((name, sim.now))

        for name, delay in (("a", 2.0), ("nan", math.nan), ("b", 1.0)):
            sim.process(waiter(name, delay), name=name)
        with pytest.raises(SimulationError, match="NaN"):
            sim.run()
        assert sim.now == 0.0 and log == []

    def test_nan_pause_and_horizon_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        for kwargs in ({"until": math.nan}, {"horizon": math.nan}):
            with pytest.raises(SimulationError, match="=nan"):
                sim.run(**kwargs)
        assert sim.now == 0.0 and sim.steps == 0
        assert sim.run(horizon=0.5, until=0.5) == 0.5

    def test_run_until_stops_early(self, sim):
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(5.0, lambda: seen.append(5))
        sim.run(until=2.0)
        assert seen == [1]
        assert sim.now == 2.0

    def test_run_until_before_now_is_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.schedule(10.0, lambda: None)
        assert sim.run(until=5.0) == 5.0
        with pytest.raises(SimulationError, match=r"until=3\.0.*from 5\.0"):
            sim.run(until=3.0)
        assert sim.now == 5.0
        assert sim.run(until=5.0) == 5.0  # an equal pause stays quiet
        assert sim.run() == 10.0

    def test_callbacks_can_schedule_more(self, sim):
        seen = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [2.0]


class TestEvents:
    def test_event_starts_pending(self, sim):
        event = sim.event()
        assert not event.fired

    def test_succeed_fires_and_stores_value(self, sim):
        event = sim.event()
        event.succeed(42)
        assert event.fired
        assert event.value == 42

    def test_value_before_fire_raises(self, sim):
        with pytest.raises(SimulationError):
            _ = sim.event().value

    def test_double_succeed_raises(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_callback_on_pending_event(self, sim):
        event = sim.event()
        seen = []
        event.add_callback(seen.append)
        sim.schedule(3.0, event.succeed, "x")
        sim.run()
        assert seen == ["x"]

    def test_callback_on_fired_event_runs_async(self, sim):
        event = sim.event()
        event.succeed("y")
        seen = []
        event.add_callback(seen.append)
        assert seen == []  # deferred to the event loop
        sim.run()
        assert seen == ["y"]


class TestTimeout:
    def test_timeout_fires_after_delay(self, sim):
        timeout = sim.timeout(4.0)
        sim.run()
        assert timeout.fired
        assert sim.now == 4.0

    def test_zero_timeout_allowed(self, sim):
        timeout = sim.timeout(0.0)
        sim.run()
        assert timeout.fired

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimulationError):
            Timeout(sim, -0.1)

    def test_nan_timeout_rejected(self, sim):
        with pytest.raises(SimulationError, match="NaN"):
            Timeout(sim, math.nan)
        with pytest.raises(SimulationError, match="NaN"):
            sim.timeout(float("nan"))


class TestAllOf:
    def test_waits_for_every_event(self, sim):
        first, second = sim.timeout(1.0), sim.timeout(3.0)
        gate = sim.all_of([first, second])
        sim.run()
        assert gate.fired
        assert sim.now == 3.0

    def test_empty_fires_immediately(self, sim):
        gate = AllOf(sim, [])
        sim.run()
        assert gate.fired
        assert gate.value == []

    def test_value_preserves_order(self, sim):
        a, b = sim.event(), sim.event()
        gate = sim.all_of([a, b])
        sim.schedule(1.0, b.succeed, "b")
        sim.schedule(2.0, a.succeed, "a")
        sim.run()
        assert gate.value == ["a", "b"]

    def test_already_fired_members(self, sim):
        a = sim.event()
        a.succeed(1)
        gate = sim.all_of([a])
        sim.run()
        assert gate.fired

    def test_only_the_final_countdown_takes_a_hop(self, sim):
        a, b, c = sim.event(), sim.event(), sim.event()
        a.succeed("a")
        gate = sim.all_of([a, b, c, b])
        assert gate._remaining == 3  # ``a`` counted at construction
        sim.schedule(1.0, b.succeed, "b")
        sim.schedule(2.0, c.succeed, "c")
        sim.run()
        # Two scheduled succeeds plus one hop for the final countdown.
        assert sim.steps == 3
        assert gate.value == ["a", "b", "c", "b"]

    def test_failure_takes_a_hop_and_later_successes_do_not(self, sim):
        a, b = sim.event(), sim.event()
        gate = sim.all_of([a, b])
        caught = []
        gate.add_callback(caught.append)
        sim.schedule(1.0, a.fail, ValueError("boom"))
        sim.schedule(2.0, b.succeed)
        sim.run()
        assert gate.failed and isinstance(gate.exception, ValueError)
        # a.fail, its hop, the gate's waiter; b.succeed takes no hop.
        assert sim.steps == 4
        assert caught == [gate.exception]


class TestProcess:
    def test_process_runs_to_completion(self, sim):
        def body():
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)
            return "done"

        proc = sim.process(body())
        sim.run()
        assert proc.fired
        assert proc.value == "done"
        assert sim.now == 3.0

    def test_processes_interleave(self, sim):
        trace = []

        def worker(name, delay):
            yield sim.timeout(delay)
            trace.append((name, sim.now))
            yield sim.timeout(delay)
            trace.append((name, sim.now))

        sim.process(worker("slow", 2.0))
        sim.process(worker("fast", 0.5))
        sim.run()
        assert trace == [("fast", 0.5), ("fast", 1.0), ("slow", 2.0), ("slow", 4.0)]

    def test_process_can_wait_on_process(self, sim):
        def inner():
            yield sim.timeout(1.5)
            return 7

        def outer():
            value = yield sim.process(inner())
            return value * 2

        proc = sim.process(outer())
        sim.run()
        assert proc.value == 14

    def test_yielding_non_event_raises(self, sim):
        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_process_waiting_shared_event(self, sim):
        gate = sim.event()
        woken = []

        def waiter(name):
            yield gate
            woken.append(name)

        sim.process(waiter("a"))
        sim.process(waiter("b"))
        sim.schedule(1.0, gate.succeed)
        sim.run()
        assert sorted(woken) == ["a", "b"]


class TestResource:
    def test_grants_up_to_capacity(self, sim):
        res = Resource(sim, capacity=2)
        first, second, third = res.request(), res.request(), res.request()
        assert first.fired and second.fired
        assert not third.fired

    def test_release_wakes_fifo(self, sim):
        res = Resource(sim, capacity=1)
        res.request()
        second = res.request()
        third = res.request()
        res.release()
        assert second.fired
        assert not third.fired

    def test_release_idle_raises(self, sim):
        res = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            res.release()

    def test_zero_capacity_rejected(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_in_use_tracking(self, sim):
        res = Resource(sim, capacity=3)
        res.request()
        res.request()
        assert res.in_use == 2
        res.release()
        assert res.in_use == 1


class TestProcessRegistry:
    """The live-process registry backs the watchdog's diagnostics; it
    must shed processes as they retire (success or failure) so it stays
    O(live) rather than O(ever-created), and keep registration order
    for deterministic watchdog messages."""

    def test_completed_processes_are_unregistered(self, sim):
        def body():
            yield sim.timeout(1.0)

        procs = [sim.process(body(), name=f"p{i}") for i in range(5)]
        assert list(sim._processes) == procs
        sim.run()
        assert sim._processes == {}

    def test_failed_process_is_unregistered(self, sim):
        def bad():
            yield sim.timeout(1.0)
            raise RuntimeError("boom")

        def watcher(proc):
            try:
                yield proc
            except RuntimeError:
                pass

        proc = sim.process(bad())
        sim.process(watcher(proc))
        sim.run()
        assert proc not in sim._processes

    def test_live_processes_stay_registered_for_watchdog(self, sim):
        def stuck():
            yield sim.event()  # never fires

        sim.process(stuck(), name="stuck-proc")
        sim.run()  # drains the heap; the process is still pending
        assert "stuck-proc" in sim._pending_processes()


@pytest.fixture
def no_cyclic_gc():
    """Only reference counting frees objects inside the test."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class TestFreedByRefcount:
    """Finished work must not sit in reference cycles.

    A run spawns many short-lived processes and stream drains; if a
    finished process, the events it waited on or its generator were only
    freeable by the cyclic collector, every pass would hold them until
    the next collection (a bound ``_resume`` cached on the process is
    such a cycle).
    """

    def test_finished_process_and_its_targets_are_freed(self, sim,
                                                         no_cyclic_gc):
        gate = sim.event("gate")
        refs = [weakref.ref(gate)]

        def body():
            for delay in (1.0, 0.0):
                timeout = sim.timeout(delay)
                refs.append(weakref.ref(timeout))
                yield timeout
            yield gate
            inner = sim.process(child())
            refs.append(weakref.ref(inner))
            return (yield inner)

        def child():
            yield sim.timeout(0.5)
            return "ok"

        body_gen = body()
        proc = sim.process(body_gen)
        refs += [weakref.ref(proc), weakref.ref(body_gen)]
        sim.schedule(2.0, gate.succeed)
        sim.run()
        assert proc.value == "ok"
        del gate, proc, body_gen
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_drained_stream_op_is_freed(self, sim, no_cyclic_gc):
        """A burst of three ops: the ops, their completion events, the
        drain generator and its process are all freed once drained."""
        stream = Stream(sim, "gpu0.compute", device=0)

        def op(delay):
            yield sim.timeout(delay)
            return delay

        refs = []
        for delay in (1.0, 0.0, 2.0):
            op_gen = op(delay)
            done = stream.submit(op_gen, label="k")
            refs += [weakref.ref(op_gen), weakref.ref(done)]
        (drain,) = sim._processes
        refs += [weakref.ref(drain), weakref.ref(drain._body)]
        del op_gen, done, drain
        sim.run()
        assert stream.ops_completed == 3 and sim.now == 3.0
        assert [ref() for ref in refs] == [None] * 8

    def test_fault_free_traced_run_leaves_no_cycles(self):
        """A fault-free traced gpt2 pp x4 run makes no garbage cycles, so
        the collector pause inside ``Simulator.run`` defers nothing.

        Collecting until nothing is found first clears what earlier tests
        left: a cycle whose generators run finalizers is freed by the
        collection after the one that finalized it.
        """
        from repro.core.harmony import Harmony, HarmonyOptions
        from repro.experiments.common import server_for
        from repro.trace import TraceRecorder

        harmony = Harmony("gpt2", server_for(4), 16,
                          options=HarmonyOptions(mode="pp"))
        plan = harmony.plan()
        while gc.collect():
            pass
        report = harmony.run(plan=plan, iterations=1, trace=TraceRecorder())
        assert report.metrics.trace.compute_busy
        assert gc.collect() == 0


@pytest.fixture
def collector():
    """The cyclic collector's state, restored whatever the test leaves."""
    enabled = gc.isenabled()
    try:
        yield
    finally:
        (gc.enable if enabled else gc.disable)()


class TestCyclicGcPause:
    """``Simulator.run`` keeps the cyclic collector off for its loop and
    leaves the caller's setting as it found it, however the run ends."""

    def _probe(self, sim, seen):
        def body():
            seen.append(gc.isenabled())
            yield sim.timeout(1.0)
            seen.append(gc.isenabled())

        sim.process(body())

    def test_off_inside_and_restored_after_a_normal_return(self, sim,
                                                           collector):
        gc.enable()
        seen: list = []
        self._probe(sim, seen)
        assert sim.run() == 1.0
        assert seen == [False, False]
        assert gc.isenabled()

    def test_restored_after_the_watchdog_raises(self, sim, collector):
        gc.enable()

        def forever():
            while True:
                yield sim.timeout(1.0)

        sim.process(forever())
        with pytest.raises(SimulationError, match="exceeded 5 steps"):
            sim.run(max_steps=5)
        assert gc.isenabled()
        with pytest.raises(SimulationError, match="horizon"):
            sim.run(horizon=100.0)
        assert gc.isenabled()

    def test_restored_after_an_unhandled_failure(self, sim, collector):
        gc.enable()
        sim.schedule(1.0, lambda: sim.event("orphan").fail(
            ValueError("nobody waits")))
        with pytest.raises(ValueError, match="nobody waits"):
            sim.run()
        assert gc.isenabled()

    def test_nested_run_keeps_it_off_until_the_outer_run_ends(self, sim,
                                                               collector):
        from repro.sim.engine import Simulator

        gc.enable()
        seen: list = []

        def outer():
            inner = Simulator()
            self._probe(inner, seen)
            inner.run()
            seen.append(gc.isenabled())
            yield sim.timeout(1.0)

        sim.process(outer())
        sim.run()
        assert seen == [False, False, False]
        assert gc.isenabled()

    def test_a_caller_that_disabled_it_keeps_it_disabled(self, sim,
                                                          collector):
        gc.disable()
        seen: list = []
        self._probe(sim, seen)
        sim.run()
        assert seen == [False, False]
        assert not gc.isenabled()
