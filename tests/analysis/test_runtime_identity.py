"""Runtime/analyzer identity contract: one naming scheme, two detectors.

A schedule the analyzer statically rejects as a stream-FIFO deadlock
really does hang the Executor, and the runtime's error names the same
``t<tid>`` / ``gpu<d>.<lane>`` entities the diagnostic did.  The
converse holds too: a schedule the Executor deadlocks on is rejected
statically.  One minimal graph per wait rule of
:mod:`repro.core.waits` pins that the analyzer's verdict equals the
Executor's outcome.
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


def verdicts(graph, server, prefetch=True):
    """The ``deadlock/cycle`` message (or None) and the Executor's
    deadlock message (or None) for ``graph``."""
    report = analyze(graph, passes=("deadlock",), prefetch=prefetch)
    static = [d.message for d in report.by_rule("deadlock/cycle")]
    executor = Executor(SimulatedServer(Simulator(), server), _FlatTime(),
                        prefetch=prefetch)
    try:
        executor.run(graph)
    except SimulationError as err:
        assert "schedule deadlocked" in str(err)
        return (static or [None])[0], str(err)
    return (static or [None])[0], None


def graph_of(n_devices, *tasks):
    graph = TaskGraph(mode="test", n_devices=n_devices)
    for task in tasks:
        graph.add(task)
    return graph


def relay_from_computed_producer(channel):
    """t0 reads t2's output by message passing or shared memory; t2's
    flush queues on gpu1.swap_out behind a CPU update that waits on t0's
    flush.  The relay waits on t2's compute, not its flush, so it runs."""
    return graph_of(
        2,
        Task(0, TaskKind.FWD, 0, 0, 0, (1,),
             ins=[Move(TensorKind.Y, 100, channel, src_task=2)],
             outs=[Move(TensorKind.Y, 100, Channel.SWAP)]),
        Task(1, TaskKind.UPD, 0, 0, 1, (1,), on_cpu=True,
             ins=[Move(TensorKind.Y, 100, Channel.SWAP, src_task=0)],
             outs=[Move(TensorKind.W, 100, Channel.SWAP)]),
        Task(2, TaskKind.FWD, 0, 0, 1, (1,),
             outs=[Move(TensorKind.Y, 100, channel)]),
    )


def cpu_read_of_device_data(channel):
    """A CPU update reads t1's gradients over ``channel`` and so waits on
    t1's flush, which queues on gpu0.swap_out behind the update's own."""
    return graph_of(
        1,
        Task(0, TaskKind.UPD, 0, 0, 0, (1,), on_cpu=True,
             ins=[Move(TensorKind.DW, 100, channel, peer=0, src_task=1)],
             outs=[Move(TensorKind.W, 100, Channel.SWAP)]),
        Task(1, TaskKind.BWD, 0, 0, 0, (1,),
             outs=[Move(TensorKind.DW, 100, Channel.SWAP)]),
    )


def swap_in_ahead_of_cpu_update(move):
    """``move`` holds gpu0's swap-in stream until t2 runs; t2 waits on a
    CPU update whose fetch queues behind it."""
    return graph_of(
        2,
        Task(0, TaskKind.FWD, 0, 0, 0, (1,), ins=[move]),
        Task(1, TaskKind.UPD, 0, 0, 0, (1,), on_cpu=True,
             ins=[Move(TensorKind.K, 100, Channel.SWAP)]),
        Task(2, TaskKind.FWD, 0, 0, 1, (1,),
             ins=[Move(TensorKind.W, 100, Channel.SWAP, src_task=1)]),
    )


def out_ahead_of_fetched_flush(out):
    """A CPU update's ``out`` holds gpu0.swap_out until the update runs,
    and the update fetches the flush queued behind it."""
    return graph_of(
        1,
        Task(0, TaskKind.UPD, 0, 0, 0, (1,), on_cpu=True,
             ins=[Move(TensorKind.DW, 100, Channel.SWAP, src_task=1)],
             outs=[out]),
        Task(1, TaskKind.BWD, 0, 0, 0, (1,),
             outs=[Move(TensorKind.DW, 100, Channel.SWAP)]),
    )


def cpu_update_behind_held_slots():
    """t0 waits on a CPU update that needs one of gpu0's two slots,
    which t0 and t1 (queued behind t0 on gpu0.compute) hold."""
    return graph_of(
        1,
        Task(0, TaskKind.FWD, 0, 0, 0, (1,),
             ins=[Move(TensorKind.W, 100, Channel.LOCAL, src_task=2)]),
        Task(1, TaskKind.FWD, 0, 0, 0, (1,)),
        Task(2, TaskKind.UPD, 0, 0, 0, (1,), on_cpu=True),
    )


RULES = {
    "msg-waits-on-compute": (relay_from_computed_producer(Channel.MSG),
                             False),
    "shm-waits-on-compute": (relay_from_computed_producer(Channel.SHM),
                             False),
    "cpu-local-waits-on-flush": (cpu_read_of_device_data(Channel.LOCAL),
                                 True),
    "cpu-p2p-waits-on-flush": (cpu_read_of_device_data(Channel.P2P), True),
    "per-task-p2p-on-swap-in": (swap_in_ahead_of_cpu_update(
        Move(TensorKind.W, 100, Channel.P2P, src_task=2)), True),
    "zero-byte-chunk-on-swap-in": (swap_in_ahead_of_cpu_update(
        Move(TensorKind.Y, 0, Channel.SWAP, src_task=2)), True),
    "local-out-on-swap-out": (out_ahead_of_fetched_flush(
        Move(TensorKind.W, 100, Channel.LOCAL)), True),
    "zero-byte-out-on-swap-out": (out_ahead_of_fetched_flush(
        Move(TensorKind.W, 0, Channel.SWAP)), True),
    "cpu-update-behind-held-slots": (cpu_update_behind_held_slots(), True),
}


@pytest.mark.no_graph_analysis
@pytest.mark.parametrize("rule", RULES)
def test_analyzer_verdict_matches_the_executor(small_server, rule):
    graph, deadlocks = RULES[rule]
    static, hung = verdicts(graph, small_server)
    assert (static is not None, hung is not None) == (deadlocks, deadlocks)


@pytest.mark.no_graph_analysis
def test_slot_and_cpu_lanes_named_alike(small_server):
    static, hung = verdicts(cpu_update_behind_held_slots(), small_server)
    slots, cpu = stream_ref(0, "slots"), stream_ref(0, "cpu")
    assert f"{task_ref(2)} stalled waiting on {slots}" in hung
    assert f"{task_ref(1)} stalled computing on {stream_ref(0, 'compute')}" \
        in hung
    assert f"{task_ref(0)} stalled fetching inputs on " \
           f"{stream_ref(0, 'swap_in')}" in hung
    assert static == (
        f"tasks {task_ref(0)} -> {task_ref(2)} -> {task_ref(0)} can never "
        f"all make progress (cycle across streams {stream_ref(0, 'swap_in')}, "
        f"{stream_ref(0, 'compute')}, {slots}, {cpu})"
    )


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
