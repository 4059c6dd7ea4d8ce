"""Task-graph vocabulary: tensors, channels, moves, tasks.

A *task* is Harmony's unit of execution (Section 4.3.2): a layer pack, a
phase (forward / backward / weight update), a group of microbatches, and a
device binding, plus the explicit list of tensors to move in and out and
the channel each rides on.  Baseline schedules compile to the very same
representation, so one Runtime executes everything and metrics are
directly comparable.

There is one task type.  The configuration search scores the very
:class:`Task` objects the graph builder emits, and the winner's list
becomes its :class:`TaskGraph` as is.  A :class:`Move` is an immutable,
validated tuple, so tasks share their pack's moves and hot loops unpack
them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional


class TaskKind(enum.Enum):
    FWD = "forward"
    BWD = "backward"
    UPD = "update"


class TensorKind(enum.Enum):
    """Tensor roles, following Figure 5(a)."""

    W = "weights"
    DW = "gradients"
    X = "input_activation"
    Y = "output_activation"
    DX = "input_gradient"       # gradient w.r.t. the pack's input
    DY = "output_gradient"      # gradient w.r.t. the pack's output
    K = "optimizer_state"
    CKPT = "checkpoint"         # stashed pack-input for recomputation


class Channel(enum.Enum):
    """Transport for a move (Section 4.3.2 lists these four; LOCAL marks
    tensors already resident so no traffic is generated)."""

    SWAP = "cpu_gpu_swap"
    P2P = "peer_to_peer"
    MSG = "message_passing"     # activation/checkpoint state via host
    SHM = "shared_memory"       # model state via host shared memory
    LOCAL = "local"

    @property
    def crosses_pcie(self) -> bool:
        return self is not Channel.LOCAL

    @property
    def via_host(self) -> bool:
        """True if the bytes traverse a CPU-GPU link (count as swap load)."""
        return self in (Channel.SWAP, Channel.MSG, Channel.SHM)


_tuple_new = tuple.__new__


class _MoveFields(NamedTuple):
    """:class:`Move`'s fields in order; its constructor holds the defaults."""

    tensor: TensorKind
    nbytes: int
    channel: Channel
    peer: Optional[int]
    src_task: Optional[int]
    label: str


class Move(_MoveFields):
    """One tensor transfer attached to a task (input or output).

    ``src_task`` names the producing task when the data is generated
    within this iteration (p2p activations, stashed checkpoints); the
    Runtime uses it as an event dependency.  ``peer`` is the remote GPU
    for P2P moves.

    An immutable tuple, so tasks share their pack's moves and hot loops
    unpack them.  The constructor checks the size and the P2P endpoint,
    and so does :meth:`_replace`: it goes through :meth:`_make`.
    """

    __slots__ = ()

    def __new__(cls, tensor: TensorKind, nbytes: int, channel: Channel,
                peer: Optional[int] = None, src_task: Optional[int] = None,
                label: str = "") -> "Move":
        if nbytes < 0:
            raise ValueError(f"negative move size: {nbytes}")
        if channel is Channel.P2P and peer is None and src_task is None:
            raise ValueError(
                "P2P move needs a peer GPU or a source task to derive it from"
            )
        return _tuple_new(cls, (tensor, nbytes, channel, peer, src_task,
                                label))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Move":
        return cls(*iterable)


@dataclass
class Task:
    """One schedulable unit; see module docstring."""

    tid: int
    kind: TaskKind
    first_layer: int
    last_layer: int
    device: int                     # owning GPU
    microbatches: tuple[int, ...]   # group of microbatch sizes
    on_cpu: bool = False            # True: runs on the host (offloaded UPD)
    fused: bool = False             # BWD that also runs its forward (jit-compute)
    recompute: bool = True          # BWD rematerializes from a checkpoint
    ins: list[Move] = field(default_factory=list)
    outs: list[Move] = field(default_factory=list)
    compute_flops: float = 0.0      # total for the whole group
    resident_bytes: int = 0         # planned peak working set on the GPU
    label: str = ""

    @property
    def layers(self) -> range:
        return range(self.first_layer, self.last_layer + 1)

    @property
    def n_layers(self) -> int:
        return self.last_layer - self.first_layer + 1

    @property
    def group_samples(self) -> int:
        return sum(self.microbatches)

    def moves(self) -> Iterator[tuple[str, Move]]:
        for move in self.ins:
            yield "in", move
        for move in self.outs:
            yield "out", move


@dataclass
class TaskGraph:
    """All tasks of one training iteration, plus device-ordered views.

    ``pageable_swaps`` marks graphs whose host transfers take the
    on-demand LMS path (pageable staging copies through a shared host
    engine) rather than Harmony's pre-allocated pinned buffers.
    """

    mode: str
    n_devices: int
    tasks: list[Task] = field(default_factory=list)
    pageable_swaps: bool = False

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    def __getitem__(self, tid: int) -> Task:
        task = self.tasks[tid]
        if task.tid != tid:
            raise IndexError(f"task at position {tid} has tid {task.tid}")
        return task

    def add(self, task: Task) -> Task:
        if task.tid != len(self.tasks):
            raise ValueError(
                f"task tids must be dense: expected {len(self.tasks)}, "
                f"got {task.tid}"
            )
        self.tasks.append(task)
        return task

    def per_device(self) -> list[list[Task]]:
        """Tasks grouped by owning device, preserving global order.

        CPU-offloaded tasks stay in their owning GPU's runtime process
        (the paper's 1:1 process-per-GPU model).
        """
        buckets: list[list[Task]] = [[] for _ in range(self.n_devices)]
        for task in self.tasks:
            buckets[task.device].append(task)
        return buckets

    def of_kind(self, kind: TaskKind) -> list[Task]:
        return [t for t in self.tasks if t.kind is kind]

    # -- traffic accounting ---------------------------------------------------

    def swap_bytes_by_gpu(self) -> list[tuple[int, int]]:
        """(swap_in, swap_out) bytes per GPU: traffic on host links only."""
        totals = [[0, 0] for _ in range(self.n_devices)]
        for task in self.tasks:
            for direction, move in task.moves():
                if not move.channel.via_host:
                    continue
                if direction == "in":
                    totals[task.device][0] += move.nbytes
                else:
                    totals[task.device][1] += move.nbytes
        return [tuple(pair) for pair in totals]  # type: ignore[return-value]

    def global_swap_bytes(self) -> int:
        return sum(i + o for i, o in self.swap_bytes_by_gpu())

    def p2p_bytes(self) -> int:
        return sum(
            move.nbytes
            for task in self.tasks
            for direction, move in task.moves()
            if direction == "in" and move.channel is Channel.P2P
        )

    def checkpoint_stash_bytes(self) -> int:
        """Bytes of checkpoint stash the graph's out-moves park on host.

        All of it is live at once, beside the pinned model state, in the
        host working set the analyzer certifies and the Executor guards.
        """
        return sum(
            move.nbytes
            for task in self.tasks
            for move in task.outs
            if move.tensor is TensorKind.CKPT
        )

    def validate(self) -> None:
        """Certify the graph's structural invariants.

        Delegates to the error-severity structural subset of the static
        analyzer (:func:`repro.analysis.verify_graph`): dense tids, device
        bindings, resolvable move sources, stream-aware deadlock freedom,
        and tensor dataflow sanity.  Raises
        :class:`~repro.common.errors.ScheduleAnalysisError` on violation.
        """
        # Imported lazily: repro.analysis consumes these types at module
        # scope, so a top-level import would be circular.
        from repro.analysis import verify_graph

        verify_graph(self)

