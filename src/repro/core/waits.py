"""What the Runtime waits on: the one declaration of its ordering rules.

Harmony's Runtime orders work through per-GPU FIFO streams plus
cross-stream events (Section 4.4 of the paper).  This module states
those rules once, per move and per task:

- which producer event a fetch waits on (:func:`producer_wait`): the
  producer's host flush, its completion, or -- for pipelined
  activations -- the producing microbatch;
- which stream a fetch or out-move occupies, if any
  (:func:`fetch_stream`, :data:`OUT_STREAM`);
- the compute stream, which is none for CPU-offloaded updates
  (:func:`compute_stream`);
- the per-device task slots (:func:`task_slots`) and their grant rule
  (:func:`slot_wait`).

The Executor (:mod:`repro.runtime.executor`) issues work by these
rules, the analyzer's wait graph (:mod:`repro.analysis.deadlock`)
proves schedules against them, and the trace checker
(:func:`repro.trace.invariants.check_dependencies`) holds recorded runs
to them, so the three cannot drift apart.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Union

from repro.core.taskgraph import mb_dependency
from repro.core.types import Channel, Move, Task, TaskKind, TensorKind

#: State tensors move once per task; every other family moves in one
#: chunk per microbatch.
PER_TASK_TENSORS = frozenset({TensorKind.W, TensorKind.DW, TensorKind.K})

#: Producer events a fetch may wait on besides a producing microbatch.
FLUSHED = "flushed"
DONE = "done"

#: Every out-move, of any channel or size, queues on the swap-out stream.
OUT_STREAM = "swap_out"
#: The lane a CPU-offloaded update runs on: a host process of its own.
CPU_LANE = "cpu"
#: The per-device task slots, named like a stream in diagnostics.
SLOT_LANE = "slots"


def per_task(move: Move) -> bool:
    """True when ``move`` moves once per task rather than per microbatch."""
    return move.tensor in PER_TASK_TENSORS


@lru_cache(maxsize=1024)
def _covering(producer_sizes: tuple[int, ...],
              consumer_sizes: tuple[int, ...]) -> tuple[int, ...]:
    """:func:`mb_dependency`, computed once per pair of microbatch groups."""
    return tuple(mb_dependency(producer_sizes, consumer_sizes))


def producer_wait(move: Move, consumer: Task, producer: Task,
                  mb: Optional[int]) -> Union[str, int]:
    """The producer event a fetch of ``move`` waits on.

    ``mb`` is the consumer microbatch a per-microbatch chunk feeds, or
    None for a per-task move.  The answer is :data:`FLUSHED` (the
    producer's outputs reached the host), :data:`DONE` (the producer
    completed) or the index of the producer microbatch that covers the
    chunk's samples.  A CPU consumer and a host swap read what the
    producer flushed; message passing and shared memory relay from the
    producer's device as soon as it has computed.
    """
    if consumer.on_cpu or move.channel is Channel.SWAP:
        return FLUSHED
    if mb is None or producer.group_samples != consumer.group_samples:
        return DONE
    return _covering(producer.microbatches, consumer.microbatches)[mb]


def fetch_stream(move: Move) -> Optional[str]:
    """The stream a fetch of ``move`` occupies, or None when it only
    waits on its producer event.  Per-task moves of nonzero size queue on
    ``swap_in`` whatever their channel; per-microbatch chunks queue, even
    at zero bytes, on ``p2p_in`` for P2P and ``swap_in`` otherwise."""
    if move.channel is Channel.LOCAL:
        return None
    if per_task(move):
        return "swap_in" if move.nbytes else None
    return "p2p_in" if move.channel is Channel.P2P else "swap_in"


def compute_stream(task: Task) -> Optional[str]:
    """The FIFO stream ``task`` computes on; None for a CPU-offloaded
    update, which runs off the GPU's streams on :data:`CPU_LANE`."""
    if task.on_cpu and task.kind is TaskKind.UPD:
        return None
    return "compute"


def compute_lane(task: Task) -> str:
    """The trace lane ``task`` computes on."""
    return compute_stream(task) or CPU_LANE


def fetch_streams(task: Task) -> list[str]:
    """The streams ``task``'s fetches occupy, in order of first use."""
    streams: list[str] = []
    for move in task.ins:
        stream = fetch_stream(move)
        if (stream is not None and stream not in streams
                and (per_task(move) or task.microbatches)):
            streams.append(stream)
    return streams


def fetch_lane(task: Task) -> str:
    """The stream a task's fetch is named by in diagnostics: ``p2p_in``
    when that is the only stream its fetches occupy, else ``swap_in``."""
    return "p2p_in" if fetch_streams(task) == ["p2p_in"] else "swap_in"


def flushes(task: Task) -> bool:
    """True when ``task`` queues any out-move on :data:`OUT_STREAM`."""
    return any(per_task(move) or task.microbatches for move in task.outs)


def task_slots(prefetch: bool) -> int:
    """Tasks per device that hold a slot at once: two with prefetch
    (one computes while the next fetches), one without.  A task takes
    its slot before it issues anything and frees it when it completes."""
    return 2 if prefetch else 1


def slot_wait(position: int, slots: int) -> int:
    """How many of the tasks issued ahead of the one at ``position`` in
    its device's order must complete before it is granted a slot: slots
    are granted in device order, one per completed earlier task."""
    return max(0, position - slots + 1)
