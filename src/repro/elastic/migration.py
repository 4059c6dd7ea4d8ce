"""Costed state migration: move checkpointed state to a new packing.

After an elastic re-plan the per-layer model state (weights W plus
optimizer state K) sits partitioned according to the *old* packing --
resident on the old owner GPUs, with the pageable host checkpoint as the
backstop -- while the new plan needs each pack's state on its *new*
owner before training can resume.  Teleporting it for free would hide
exactly the cost elasticity is supposed to expose, so migration is
planned here as explicit byte moves and executed over the real simulated
links by :class:`repro.runtime.migration.MigrationExecutor`, a
:func:`~repro.runtime.migration.run_transfers` phase.

Ownership model:

- a layer's owner is the device of the UPD task covering it (the update
  task is where a layer's W/K must be resident); BWD placement is the
  fallback for graphs without update tasks;
- W always migrates GPU-to-GPU (or host-restore when the old owner died:
  dead hardware cannot source a transfer, so the bytes come from the
  host checkpoint instead);
- K lives where the update runs: on the host for CPU-offloaded updates
  (migrating host->host is free -- host memory is shared), on the owner
  GPU otherwise.

Moves between two live GPUs ride the p2p path when the plan allows p2p,
else the host-staged relay (both legs counted, like the executor's
p2p->swap fallback).  Same-owner layers on a surviving device move
nothing: migration cost is proportional to how much the packing actually
changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.common.errors import SimulationError
from repro.core.profiler import ModelProfiles
from repro.core.types import TaskGraph, TaskKind


@dataclass(frozen=True)
class MigrationMove:
    """One aggregated state transfer: between GPUs of one server
    (``None`` = host memory), or between the servers of a cluster."""

    src: Optional[int]
    dst: Optional[int]
    nbytes: int
    label: str

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise SimulationError(
                f"negative move size: {self.nbytes} ({self.label})"
            )
        if self.src is None and self.dst is None:
            raise SimulationError(
                f"host->host move should have been elided: {self.label}"
            )

    def describe(self) -> str:
        src = "host" if self.src is None else f"gpu{self.src}"
        dst = "host" if self.dst is None else f"gpu{self.dst}"
        return f"{src}->{dst} {self.nbytes / 2**20:.2f} MiB ({self.label})"


def layer_ownership(graph: TaskGraph) -> dict[int, tuple[int, bool]]:
    """Map each layer to ``(owner device, update runs on cpu)``.

    The UPD task covering a layer defines ownership; layers without one
    (ablated graphs) fall back to the first BWD task covering them.
    """
    owners: dict[int, tuple[int, bool]] = {}
    for task in graph.tasks:
        if task.kind is TaskKind.UPD:
            for layer in task.layers:
                owners.setdefault(layer, (task.device, task.on_cpu))
    for task in graph.tasks:
        if task.kind is TaskKind.BWD:
            for layer in task.layers:
                owners.setdefault(layer, (task.device, False))
    return owners


def plan_migration(
    old_graph: TaskGraph,
    new_graph: TaskGraph,
    profiles: ModelProfiles,
    lost: Iterable[int] = (),
) -> list[MigrationMove]:
    """Plan the state moves taking ``old_graph``'s packing to ``new_graph``'s.

    ``lost`` names permanently dead devices: state they owned is restored
    from the host checkpoint instead of sourced p2p.  Moves are
    aggregated per ``(src, dst)`` endpoint pair and returned in a
    deterministic order.
    """
    dead = set(lost)
    old_owners = layer_ownership(old_graph)
    new_owners = layer_ownership(new_graph)
    # (src, dst) -> bytes; None endpoint = host memory
    volume: dict[tuple[Optional[int], Optional[int]], int] = {}

    def add(src: Optional[int], dst: Optional[int], nbytes: int) -> None:
        if nbytes <= 0:
            return
        if src is None and dst is None:
            return  # host -> host: shared memory, nothing moves
        if src == dst and src not in dead:
            return  # already in place on a live device
        volume[(src, dst)] = volume.get((src, dst), 0) + nbytes

    for layer, (new_dev, new_cpu) in sorted(new_owners.items()):
        if layer not in old_owners:
            continue
        old_dev, old_cpu = old_owners[layer]
        w_bytes = profiles.layers[layer].param_bytes
        k_bytes = w_bytes * profiles.optimizer_slots
        w_src: Optional[int] = None if old_dev in dead else old_dev
        add(w_src, new_dev, w_bytes)
        k_src: Optional[int] = (
            None if (old_cpu or old_dev in dead) else old_dev
        )
        k_dst: Optional[int] = None if new_cpu else new_dev
        add(k_src, k_dst, k_bytes)

    moves = []
    for (src, dst), nbytes in sorted(
        volume.items(),
        key=lambda kv: (kv[0][0] is None, kv[0][0] or 0,
                        kv[0][1] is None, kv[0][1] or 0),
    ):
        src_name = "host" if src is None else f"gpu{src}"
        dst_name = "host" if dst is None else f"gpu{dst}"
        moves.append(MigrationMove(
            src=src, dst=dst, nbytes=nbytes,
            label=f"migrate:{src_name}->{dst_name}",
        ))
    return moves
