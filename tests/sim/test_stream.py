"""Tests for the CUDA-stream analog."""

import pytest

from repro.common.errors import SimulationError
from repro.sim.stream import Stream, StreamSet


class TestStreamOrdering:
    def test_ops_run_serially_in_order(self, sim):
        stream = Stream(sim, "s")
        finishes = []
        for duration in (2.0, 1.0, 3.0):
            event = stream.delay(duration)
            event.add_callback(lambda _v, d=duration: finishes.append((d, sim.now)))
        sim.run()
        assert finishes == [(2.0, 2.0), (1.0, 3.0), (3.0, 6.0)]

    def test_busy_time_accumulates(self, sim):
        stream = Stream(sim, "s")
        stream.delay(1.5)
        stream.delay(2.5)
        sim.run()
        assert stream.busy_time == 4.0

    def test_ops_completed_counter(self, sim):
        stream = Stream(sim, "s")
        stream.delay(1.0)
        stream.delay(1.0)
        sim.run()
        assert stream.ops_completed == 2

    def test_submit_after_drain_restarts(self, sim):
        stream = Stream(sim, "s")
        stream.delay(1.0)
        sim.run()
        done = stream.delay(1.0)
        sim.run()
        assert done.fired
        assert sim.now == 2.0


class TestBarriers:
    def test_barrier_blocks_later_ops(self, sim):
        stream = Stream(sim, "s")
        gate = sim.event()
        stream.barrier(gate)
        done = stream.delay(1.0)
        sim.schedule(5.0, gate.succeed)
        sim.run()
        assert done.fired
        assert sim.now == 6.0

    def test_barrier_on_fired_event_is_cheap(self, sim):
        stream = Stream(sim, "s")
        gate = sim.event()
        gate.succeed()
        stream.barrier(gate)
        done = stream.delay(1.0)
        sim.run()
        assert done.fired
        assert sim.now == 1.0

    def test_cross_stream_event_sync(self, sim):
        producer = Stream(sim, "p")
        consumer = Stream(sim, "c")
        ready = producer.delay(3.0)
        consumer.barrier(ready)
        done = consumer.delay(1.0)
        sim.run()
        assert done.fired
        assert sim.now == 4.0

    def test_barrier_does_not_count_busy(self, sim):
        stream = Stream(sim, "s")
        gate = sim.event()
        stream.barrier(gate)
        sim.schedule(10.0, gate.succeed)
        sim.run()
        assert stream.busy_time == 0.0


class TestFailures:
    def test_failed_op_fails_its_event_and_the_next_op_runs(self, sim):
        stream = Stream(sim, "s")

        def faulty():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        failed = stream.submit(faulty(), label="faulty")
        seen = []
        failed.add_callback(lambda exc: seen.append(("failed", sim.now, exc)))
        after = stream.delay(2.0)
        after.add_callback(lambda _v: seen.append(("after", sim.now, None)))
        sim.run()
        assert failed.failed and isinstance(failed.exception, ValueError)
        assert [(what, t) for what, t, _ in seen] == [("failed", 1.0),
                                                      ("after", 3.0)]
        assert seen[0][2] is failed.exception
        assert stream.ops_completed == 1 and stream.busy_time == 2.0

    def test_failed_wait_is_thrown_into_the_op(self, sim):
        stream = Stream(sim, "s")
        gate = sim.event("gate")

        def recovers():
            try:
                yield gate
            except ValueError as exc:
                return f"recovered {exc}"

        done = stream.submit(recovers())
        sim.schedule(1.0, gate.fail, ValueError("lost"))
        sim.run()
        assert done.value == "recovered lost"

    def test_simulation_error_in_an_op_escapes_run(self, sim):
        stream = Stream(sim, "s")

        def broken():
            yield sim.timeout(1.0)
            raise SimulationError("kernel invariant")

        done = stream.submit(broken())
        with pytest.raises(SimulationError, match="kernel invariant"):
            sim.run()
        assert not done.fired

    def test_op_yielding_a_non_event_raises(self, sim):
        stream = Stream(sim, "s")

        def bad():
            yield 42

        stream.submit(bad())
        with pytest.raises(SimulationError, match="must yield SimEvent"):
            sim.run()


class TestHostCallback:
    def test_call_runs_in_stream_order(self, sim):
        stream = Stream(sim, "s")
        seen = []
        stream.delay(2.0)
        stream.call(lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.0]


class TestStreamSet:
    def test_streams_are_independent(self, sim):
        streams = StreamSet(sim, "gpu0")
        a = streams.compute.delay(5.0)
        b = streams.swap_in.delay(1.0)
        b.add_callback(lambda _v: None)
        sim.run()
        assert a.fired and b.fired
        assert sim.now == 5.0  # overlapped, not serialized
