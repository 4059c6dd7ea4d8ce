"""Transfer phases: bulk state moves over the real simulated links.

:func:`run_transfers` is the one transfer-phase runner.  Every move runs
as its own simulator process, so moves contend on shared hops (survivors
restoring from the host checkpoint all squeeze through the oversubscribed
switch uplinks training traffic fights over; cluster transfers share the
network switch), and the phase time is the makespan, not a sum of
uncontended transfer times.

Three phases use it: intra-server state migration after an elastic
re-plan (:class:`MigrationExecutor`), and the cluster runner's
cross-server migration and per-iteration comm phases.

Intra-server routing mirrors the training executor's conventions:

- host -> GPU (checkpoint restore) rides the host-to-GPU tree path;
- GPU -> host (state spill) rides the GPU-to-host path plus the pageable
  staging engine, like every pageable swap;
- GPU -> GPU rides the p2p path when the plan allows p2p, else the
  host-staged relay (both legs counted as host traffic, exactly like the
  executor's p2p->swap fallback accounting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.common.errors import SimulationError
from repro.elastic.migration import MigrationMove
from repro.hardware.server import ServerSpec, SimulatedServer
from repro.sim.engine import Simulator
from repro.sim.links import Link, Route, transfer

#: Watchdog for one transfer phase: a handful of bulk transfers needs a
#: few thousand events at most; runaway growth means a broken move.
TRANSFER_MAX_STEPS = 1_000_000

#: One leg of a move: the route it holds and the label its ``xfer`` span
#: carries.
Leg = tuple[Route, str]


def run_transfers(
    moves: Sequence[MigrationMove],
    build: Callable[[Simulator], Any],
    legs: Callable[[Any, MigrationMove], Sequence[Leg]],
    lane: str,
    trace=None,
    device: Callable[[MigrationMove], int] = lambda move: -1,
    span: Optional[Callable[[MigrationMove], tuple[str, dict]]] = None,
) -> tuple[float, dict[str, int]]:
    """Run ``moves`` concurrently on a fresh simulator.

    ``build(sim)`` instantiates the links and their routes (a server or
    a network fabric) on the phase's simulator; ``legs(built, move)``
    routes one move as sequential legs.  One process per move, in list
    order, transfers the move's bytes over each leg on ``lane``,
    attributed to ``device(move)``.  With ``trace`` attached,
    ``span(move)`` names the ``(category, metadata)`` of a span covering
    the whole move, and the recorder's base advances by the phase's
    makespan.

    Returns the makespan and the bytes each link moved; raises
    :class:`SimulationError` when a link counted other bytes than the
    moves routed over it.
    """
    if not moves:
        return 0.0, {}
    sim = Simulator()
    sim.trace = trace
    built = build(sim)
    expected: dict[Link, int] = {}

    def op(move: MigrationMove):
        start = sim.now
        where = device(move)
        for route, label in legs(built, move):
            for link in route.hops:
                expected[link] = expected.get(link, 0) + move.nbytes
            yield from transfer(sim, route, move.nbytes, label=label,
                                device=where, lane=lane)
        if span is not None and sim.trace is not None:
            cat, meta = span(move)
            sim.trace.span(cat, move.label, start, sim.now, device=where,
                           lane=lane, nbytes=move.nbytes, **meta)

    for i, move in enumerate(moves):
        sim.process(op(move), name=f"{move.label}#{i}")
    sim.run(max_steps=TRANSFER_MAX_STEPS)
    for link, nbytes in expected.items():
        if link.bytes_moved != nbytes:
            raise SimulationError(
                f"link {link.name!r} byte accounting broken: expected "
                f"{nbytes}, counted {link.bytes_moved}"
            )
    if trace is not None:
        trace.advance(sim.now)
    return sim.now, {link.name: link.bytes_moved for link in expected}


@dataclass
class MigrationReport:
    """What one migration phase cost."""

    time: float = 0.0
    p2p_bytes: int = 0
    host_bytes: int = 0
    n_moves: int = 0


class MigrationExecutor:
    """Run an intra-server migration move list on a fresh simulated server.

    ``trace`` (a :class:`~repro.trace.recorder.TraceRecorder`) attaches to
    the phase's private simulator; every move lands as one ``migration``
    span (its transfer legs as ``xfer`` spans on the ``migration`` lane,
    so they never pollute training swap/p2p accounting) and the phase
    advances the recorder's global timeline by its makespan.
    """

    def __init__(self, spec: ServerSpec, p2p: bool = True, trace=None):
        self.spec = spec
        self.p2p = p2p
        self.trace = trace

    def _legs(self, live: SimulatedServer, move: MigrationMove) -> list[Leg]:
        if move.src is None:
            # Checkpoint restore: host -> surviving GPU.
            return [(live.route(None, move.dst), move.label)]
        # State spill: GPU -> host (pageable, so staging throttles).
        spill = live.route(move.src, None, staged=True)
        if move.dst is None:
            return [(spill, move.label)]
        if self.p2p:
            return [(live.route(move.src, move.dst), move.label)]
        # No p2p allowed: host-staged relay, both legs real traffic.
        return [(spill, move.label),
                (live.route(None, move.dst), f"{move.label}^")]

    def run(self, moves: Iterable[MigrationMove]) -> MigrationReport:
        """Execute all moves concurrently; returns the phase's cost."""
        todo = list(moves)
        time, _ = run_transfers(
            todo, lambda sim: SimulatedServer(sim, self.spec), self._legs,
            lane="migration", trace=self.trace,
            device=lambda m: m.dst if m.dst is not None else m.src,
            span=lambda m: ("migration", {
                "src": -1 if m.src is None else m.src,
                "dst": -1 if m.dst is None else m.dst,
            }),
        )
        report = MigrationReport(time=time, n_moves=len(todo))
        for move in todo:
            if move.src is None or move.dst is None:
                report.host_bytes += move.nbytes
            elif self.p2p:
                report.p2p_bytes += move.nbytes
            else:
                report.host_bytes += 2 * move.nbytes
        return report
