"""Runtime/analyzer identity contract: one naming scheme, two detectors.

A schedule the analyzer statically rejects as a stream-FIFO deadlock
really does hang the Executor, and the runtime's error names the same
``t<tid>`` / ``gpu<d>.<stream>`` entities the diagnostic did.  The
converse holds too: a schedule the Executor deadlocks on is rejected
statically.
"""

import pytest

from repro.analysis import analyze, stream_ref, task_ref
from repro.common.errors import SimulationError
from repro.core.types import Channel, Move, Task, TaskGraph, TaskKind, TensorKind
from repro.hardware.server import SimulatedServer
from repro.runtime.executor import Executor
from repro.sim.engine import Simulator


class _FlatTime:
    """Constant-duration stand-in for the calibrated time model."""

    def microbatch_time(self, task, u):
        return 1e-3

    def update_time(self, task):
        return 1e-3


def deadlocked_graph():
    """Acyclic src_task edges, deadlocked through gpu0's swap-in FIFO."""
    graph = TaskGraph(mode="test", n_devices=2)
    t0 = Task(0, TaskKind.FWD, 0, 0, 0, (1,),
              ins=[Move(TensorKind.Y, 100, Channel.SWAP, src_task=1)])
    t1 = Task(1, TaskKind.FWD, 0, 0, 1, (1,),
              ins=[Move(TensorKind.Y, 100, Channel.SWAP, src_task=2)],
              outs=[Move(TensorKind.Y, 100, Channel.MSG)])
    t2 = Task(2, TaskKind.FWD, 0, 0, 0, (1,),
              ins=[Move(TensorKind.W, 100, Channel.SWAP)],
              outs=[Move(TensorKind.Y, 100, Channel.MSG)])
    for t in (t0, t1, t2):
        graph.add(t)
    return graph


def test_analyzer_rejects_it():
    report = analyze(deadlocked_graph())
    assert report.has("deadlock/cycle")


@pytest.mark.no_graph_analysis
def test_executor_hangs_with_matching_identifiers(small_server):
    graph = deadlocked_graph()
    sim = Simulator()
    server = SimulatedServer(sim, small_server)
    with pytest.raises(SimulationError) as err:
        Executor(server, _FlatTime()).run(graph)
    message = str(err.value)
    assert "deadlock" in message
    assert task_ref(0) in message
    assert stream_ref(0, "swap_in") in message


def flush_deadlocked_graph():
    """A CPU update whose own flush is queued on gpu0.swap_out ahead of
    the backward flush it fetches: a cycle only through the O nodes."""
    graph = TaskGraph(mode="test", n_devices=1)
    graph.add(Task(0, TaskKind.UPD, 0, 0, 0, (1,), on_cpu=True,
                   ins=[Move(TensorKind.DW, 100, Channel.SWAP, src_task=1)],
                   outs=[Move(TensorKind.W, 100, Channel.SWAP)]))
    graph.add(Task(1, TaskKind.BWD, 0, 0, 0, (1,),
                   outs=[Move(TensorKind.DW, 100, Channel.SWAP)]))
    return graph


def test_analyzer_rejects_a_swap_out_fifo_deadlock():
    [diag] = analyze(flush_deadlocked_graph()).by_rule("deadlock/cycle")
    assert stream_ref(0, "swap_out") in diag.message


@pytest.mark.no_graph_analysis
def test_executor_hangs_on_the_swap_out_fifo_deadlock(small_server):
    sim = Simulator()
    server = SimulatedServer(sim, small_server)
    with pytest.raises(SimulationError, match="schedule deadlocked") as err:
        Executor(server, _FlatTime()).run(flush_deadlocked_graph())
    assert f"{task_ref(0)} stalled fetching inputs on " \
           f"{stream_ref(0, 'swap_in')}" in str(err.value)


@pytest.mark.no_graph_analysis
def test_fixture_optout_marker_respected(small_server):
    """Without the marker the autouse fixture would have raised
    ScheduleAnalysisError before the Executor ever ran; with it, the
    runtime detector is what fires."""
    graph = deadlocked_graph()
    sim = Simulator()
    server = SimulatedServer(sim, small_server)
    with pytest.raises(SimulationError):
        Executor(server, _FlatTime()).run(graph)


class TestNamedEvents:
    def test_unfired_value_read_names_the_event(self):
        from repro.sim.engine import SimEvent

        sim = Simulator()
        event = SimEvent(sim, name="t3.done")
        with pytest.raises(SimulationError, match="t3.done"):
            event.value

    def test_double_fire_names_the_event(self):
        from repro.sim.engine import SimEvent

        sim = Simulator()
        event = SimEvent(sim, name="t7.outs_flushed")
        event.succeed()
        with pytest.raises(SimulationError, match="t7.outs_flushed"):
            event.succeed()

    def test_anonymous_events_keep_terse_messages(self):
        sim = Simulator()
        event = sim.event()
        with pytest.raises(SimulationError, match="event value read"):
            event.value
