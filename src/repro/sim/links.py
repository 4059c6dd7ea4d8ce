"""Bandwidth-arbitrated interconnect links.

A :class:`Link` models one *direction* of a PCIe (or NVLink) hop: transfers
over a link serialize FIFO at the link's bandwidth.  A transfer over a
:class:`Route` (a path of links) holds every hop simultaneously for
``bytes / min(bw)`` seconds -- the cut-through model.  Links are acquired
in a canonical order (by id) so concurrent path transfers can never
deadlock.  A route works out that order, its latency and its nominal
bandwidth once, when it is built; a live server builds each of its
routes once per run.

This is the mechanism that exposes the paper's PCIe oversubscription
bottleneck (Figure 2a): several GPUs swapping to host all contend on the
shared upstream link, so aggregate swap time grows with the number of
swapping GPUs even though each GPU has a dedicated x16 leaf link.

Fault hooks
-----------

Two fault-injection surfaces live here so the chaos subsystem
(:mod:`repro.faults`) never has to reach into transfer internals:

- ``Link.degradation`` -- an optional function of virtual time returning
  a bandwidth multiplier in ``(0, 1]``; models link flapping, congestion
  episodes, and host-memory-pressure slowdowns.  Sampled when a transfer
  acquires the path, like real cut-through routing locks in a rate; a
  function installed after the route was built is sampled all the same.
- ``transfer(..., fault=...)`` -- aborts the transfer partway: the links
  are held for ``fault.fraction`` of the nominal duration (the wasted
  bus time is real contention other transfers observe), *no* bytes are
  accounted as moved, and ``fault.error`` is raised for the caller's
  retry/fallback policy to handle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Generator, Iterable, Optional

from repro.common.errors import SimulationError, TransferFaultError
from repro.common.floats import ordered_sum
from repro.sim.engine import Resource, Simulator, Timeout


class Link:
    """One direction of an interconnect hop with a fixed nominal bandwidth.

    ``latency`` is a fixed per-hop propagation delay added to every hold
    (0 for PCIe hops, where propagation is negligible against transfer
    time; network hops set it).  A zero latency adds ``0.0`` to the
    duration, which is bit-identical to the pre-latency arithmetic.
    """

    _next_id = 0

    def __init__(self, sim: Simulator, name: str, bandwidth: float,
                 latency: float = 0.0):
        if not bandwidth > 0:
            raise SimulationError(f"link {name!r} bandwidth must be positive")
        if not latency >= 0:
            raise SimulationError(
                f"link {name!r} latency must be a non-negative time")
        self.sim = sim
        self.name = name
        self.bandwidth = float(bandwidth)  # nominal bytes per second
        self.latency = float(latency)      # seconds per hold
        self.bytes_moved = 0
        self.busy_time = 0.0
        #: Optional time-varying bandwidth multiplier (fault injection).
        self.degradation: Optional[Callable[[float], float]] = None
        self._resource = Resource(sim, capacity=1, name=name)
        self.link_id = Link._next_id
        Link._next_id += 1

    def effective_bandwidth(self, now: float) -> float:
        """Bandwidth after any injected degradation, at virtual time ``now``."""
        if self.degradation is None:
            return self.bandwidth
        factor = self.degradation(now)
        if not 0.0 < factor <= 1.0:
            raise SimulationError(
                f"link {self.name!r} degradation factor {factor} outside (0, 1]"
            )
        return self.bandwidth * factor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.name}, {self.bandwidth / 1e9:.1f} GB/s)"


class NetworkLink(Link):
    """A cross-server network hop: bandwidth plus propagation latency.

    Semantically identical to :class:`Link` (same arbitration, same
    degradation/fault hooks, same byte accounting), but kept as its own
    type so cluster code and invariant checks can tell NICs and switch
    fabrics apart from PCIe hops.
    """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetworkLink({self.name}, {self.bandwidth / 1e9:.1f} GB/s, "
            f"{self.latency * 1e6:.0f}us)"
        )


_link_id = attrgetter("link_id")


class Route:
    """A fixed path of links and what every transfer over it reuses.

    ``hops`` keeps path order, ``ordered`` the canonical acquisition
    order (by link id), ``latency`` the hops' latencies folded with
    :func:`~repro.common.floats.ordered_sum` in path order, ``bandwidth``
    the nominal minimum (infinite for the zero-hop route), ``link_names``
    the hop names in acquisition order and ``names`` those joined by
    ``+``, as ``xfer`` spans carry them.
    """

    __slots__ = ("hops", "ordered", "latency", "bandwidth", "link_names",
                 "names")

    def __init__(self, hops: Iterable[Link]):
        self.hops = tuple(hops)
        self.ordered = tuple(sorted(self.hops, key=_link_id))
        self.latency = ordered_sum(link.latency for link in self.hops)
        self.bandwidth = min((link.bandwidth for link in self.hops),
                             default=math.inf)
        self.link_names = tuple(link.name for link in self.ordered)
        self.names = "+".join(self.link_names)

    def time(self, nbytes: int) -> float:
        """Uncontended transfer time for ``nbytes`` (estimation).

        Uses nominal bandwidths: the Scheduler's estimator plans for the
        healthy machine; injected degradation is the runtime's problem.
        Deterministically zero-cost for the zero-hop route or a
        non-positive byte count (co-located endpoints or an empty tensor
        cost nothing -- mirroring :func:`transfer`'s short-circuits),
        never a division error.
        """
        if not self.hops or nbytes <= 0:
            return 0.0
        return self.latency + nbytes / self.bandwidth

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Route({' -> '.join(link.name for link in self.hops)})"


@dataclass(frozen=True)
class TransferFault:
    """Instruction to abort a transfer partway through.

    ``fraction`` is how far through the nominal hold time the abort
    strikes; ``error`` is the typed exception raised to the caller.
    """

    error: TransferFaultError
    fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise SimulationError(
                f"transfer fault fraction {self.fraction} outside [0, 1]"
            )


def transfer(
    sim: Simulator,
    route: Route,
    nbytes: int,
    fault: Optional[TransferFault] = None,
    label: str = "",
    device: int = -1,
    lane: str = "",
) -> Generator:
    """Generator op that moves ``nbytes`` over ``route``.

    Acquires every link (in canonical id order, preventing deadlock), holds
    all of them for ``latency + nbytes / min(effective bandwidth)``
    seconds, then releases.  The nominal minimum is the route's own;
    a hop with a degradation function makes every hop's effective
    bandwidth be sampled, in path order, at acquisition.  Yields from
    inside, so it is submitted to a :class:`Stream` or run as a process
    directly.

    With ``fault`` set, the links are held for ``fault.fraction`` of the
    duration, released, and ``fault.error`` is raised; the aborted bytes
    are **not** counted in ``bytes_moved`` (goodput accounting) though the
    wasted hold time is counted in ``busy_time`` (it was real contention).

    ``label`` / ``device`` / ``lane`` attribute the hold on the execution
    trace when a recorder is attached (``sim.trace``): one ``xfer`` span
    per call, from path acquisition to release, carrying the hop names,
    the queueing delay (``wait``), and the bytes that actually moved
    (0 for a faulted hold -- the bus time was real, the goodput was not).
    The span also charges each hop its hold and the time the transfer
    queued for that hop: from its grant of the previous hop (or from its
    request, for the first) to its grant of this one.  A grant that was
    free on request queued for nothing, so only a queued grant reads the
    clock.
    """
    if nbytes < 0:
        raise SimulationError(f"negative transfer size: {nbytes}")
    hops = route.hops
    if not hops:
        if fault is not None:
            raise fault.error
        if nbytes > 0 and sim.trace is not None:
            # Zero-hop route (e.g. co-located endpoints): instantaneous,
            # but the bytes still moved -- record them so trace totals
            # reconcile with the byte counters.
            sim.trace.span("xfer", label, sim.now, sim.now, device=device,
                           lane=lane, nbytes=nbytes, links="", wait=0.0)
        return
    if nbytes == 0:
        if fault is not None:
            raise fault.error
        return
    trace = sim.trace
    requested = granted = sim._now
    waits = None
    ordered = route.ordered
    for link in ordered:
        grant = link._resource.request()
        queued = not grant._fired
        yield grant
        if queued and trace is not None and sim._now > granted:
            if waits is None:
                waits = []
            waits.append((link.name, sim._now - granted))
            granted = sim._now
    acquired = sim._now
    bandwidth = route.bandwidth
    for link in hops:
        if link.degradation is not None:
            bandwidth = min(hop.effective_bandwidth(acquired) for hop in hops)
            break
    duration = route.latency + nbytes / bandwidth
    if fault is not None:
        held = duration * fault.fraction
        if held > 0:
            yield Timeout(sim, held)
        for link in ordered:
            link.busy_time += held
            link._resource.release()
        if trace is not None:
            trace.span(
                "xfer", label, acquired, sim._now, device, lane, -1, 0,
                route.link_names, waits, links=route.names,
                wait=acquired - requested, faulted=1,
            )
        raise fault.error
    yield Timeout(sim, duration)
    for link in ordered:
        link.bytes_moved += nbytes
        link.busy_time += duration
        link._resource.release()
    if trace is not None:
        trace.span(
            "xfer", label, acquired, sim._now, device, lane, -1, nbytes,
            route.link_names, waits, links=route.names,
            wait=acquired - requested,
        )
