"""Simulator failure propagation and the watchdog.

The contract under test: a failed event always surfaces as a typed
exception -- thrown into waiters, propagated through composites, or
re-raised from ``Simulator.run`` when nobody was listening -- and a
schedule that stops making progress trips the watchdog instead of
spinning forever.
"""

import pytest

from repro.common.errors import SimulationError, TransferFaultError
from repro.sim.engine import SimEvent, Simulator


class TestEventFailure:
    def test_fail_throws_into_waiting_process(self, sim):
        event = SimEvent(sim, name="doomed")
        caught = []

        def waiter():
            try:
                yield event
            except TransferFaultError as exc:
                caught.append(exc)

        def failer():
            yield sim.timeout(1.0)
            event.fail(TransferFaultError("boom", entity="gpu0.swap_in"))

        sim.process(waiter())
        sim.process(failer())
        sim.run()
        assert len(caught) == 1
        assert caught[0].entity == "gpu0.swap_in"

    def test_failed_event_state(self, sim):
        event = SimEvent(sim, name="x")
        exc = TransferFaultError("boom")
        done = []

        def waiter():
            with pytest.raises(TransferFaultError):
                yield event
            done.append(True)

        def failer():
            yield sim.timeout(1.0)
            event.fail(exc)

        sim.process(waiter())
        sim.process(failer())
        sim.run()
        assert done
        assert event.fired and event.failed
        assert event.exception is exc
        with pytest.raises(TransferFaultError):
            event.value

    def test_unhandled_failure_reraised_from_run(self, sim):
        SimEvent(sim, name="orphan").fail(TransferFaultError("lost fault"))
        with pytest.raises(TransferFaultError, match="lost fault"):
            sim.run()
        # The unhandled record is consumed: the next run is clean.
        sim.run()

    def test_fail_after_fire_rejected(self, sim):
        event = SimEvent(sim).succeed()
        with pytest.raises(SimulationError, match="twice"):
            event.fail(RuntimeError("late"))

    def test_value_before_fire_rejected(self, sim):
        with pytest.raises(SimulationError, match="before"):
            SimEvent(sim, name="early").value

    def test_all_of_fails_on_first_constituent_failure(self, sim):
        left = SimEvent(sim, name="left")
        right = SimEvent(sim, name="right")
        caught = []

        def waiter():
            try:
                yield sim.all_of([left, right])
            except TransferFaultError as exc:
                caught.append(exc)

        def driver():
            yield sim.timeout(1.0)
            left.succeed()
            right.fail(TransferFaultError("half dead"))

        sim.process(waiter())
        sim.process(driver())
        sim.run()
        assert len(caught) == 1

    def test_process_failure_propagates_to_its_waiter(self, sim):
        def inner():
            yield sim.timeout(1.0)
            raise TransferFaultError("from inner")

        caught = []

        def outer():
            try:
                yield sim.process(inner())
            except TransferFaultError as exc:
                caught.append(exc)

        sim.process(outer())
        sim.run()
        assert len(caught) == 1


class TestWatchdog:
    def test_max_steps_trips_with_pending_process_names(self):
        sim = Simulator()

        def spinner():
            while True:
                yield sim.timeout(1.0)

        sim.process(spinner(), name="runaway-proc")
        with pytest.raises(SimulationError) as err:
            sim.run(max_steps=16)
        assert "steps" in str(err.value)
        assert "runaway-proc" in str(err.value)

    @pytest.mark.parametrize("delay", [0.0, 1.0], ids=["fifo", "heap"])
    def test_max_steps_trip_leaves_exact_step_count(self, delay):
        sim = Simulator()

        def spinner():
            while True:
                yield sim.timeout(delay)

        sim.process(spinner(), name="runaway-proc")
        with pytest.raises(SimulationError, match="steps"):
            sim.run(max_steps=16)
        assert sim.steps == 16

    def test_horizon_trips_on_virtual_time(self):
        sim = Simulator()

        def spinner():
            while True:
                yield sim.timeout(1.0)

        sim.process(spinner(), name="slowpoke")
        with pytest.raises(SimulationError) as err:
            sim.run(horizon=5.0)
        assert "horizon" in str(err.value)
        assert "slowpoke" in str(err.value)

    def test_generous_limits_do_not_fire(self, sim):
        ticks = []

        def worker():
            for _ in range(10):
                yield sim.timeout(0.1)
            ticks.append(True)

        sim.process(worker())
        sim.run(max_steps=10_000, horizon=1e6)
        assert ticks

    def test_until_still_pauses_quietly(self, sim):
        def worker():
            yield sim.timeout(10.0)

        sim.process(worker())
        assert sim.run(until=1.0) == 1.0
