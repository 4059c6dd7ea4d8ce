"""Resource-sensitive co-placement of jobs onto a shared server fleet.

The placer answers one question deterministically: *where on the fleet
do this job's logical devices go, and how much of each GPU does it get?*
Every GPU's residual memory is a fraction in ``[0, 1]`` of the planned
card -- the same number
:class:`~repro.virt.devices.PhysicalDevice.memory_scale` speaks -- kept
as an integer count of ``1/den`` units, where ``den`` is the least
common multiple of the share denominators seen so far.  Placement
arithmetic is integer, so it can never drift, and it reads back as the
exact :class:`~fractions.Fraction` it stands for: a carved partition
round-trips bit-exactly into the capacity analyzer's per-device vector.

The placement ladder, cheapest isolation first (Synergy's insight that
jobs are *resource-sensitive* -- a job declares the memory share it
needs -- makes the sharing rungs genuinely reachable):

1. **full-width** -- a single server has ``gpus`` devices with residual
   >= the requested share.  A full-memory job on fully free devices gets
   an *identity* bind (bit-identical to its solo run by construction);
   a fractional share gets a *partition* bind (``memory_scale = share``),
   letting later tenants co-reside on the leftover fractions.
2. **time-slice** -- no server is wide enough: the widest eligible
   server hosts the job on fewer devices via round-robin
   :meth:`~repro.virt.devices.DeviceBinding.pack` (several logical
   devices per GPU, deterministic FIFO multiplexing).

Device choice within a server is best-fit (smallest residual first, then
lowest index): partially carved GPUs fill up before fresh ones are
touched, which is what keeps whole servers free for identity placements.
No randomness anywhere -- the placer is a pure function of its state, so
seeded storms through it are bit-reproducible.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import TYPE_CHECKING, Optional, Union

from repro.cluster.spec import ClusterSpec, homogeneous_cluster
from repro.common.errors import SimulationError
from repro.virt.devices import DeviceBinding, PhysicalDevice, VirtualTopology

if TYPE_CHECKING:
    from repro.core.harmony import HarmonyPlan
    from repro.virt.bind import BoundPlan

ShareLike = Union[Fraction, float, int]


class NoCapacityError(SimulationError):
    """Raised by :meth:`FleetPlacer.require` when nothing fits."""


def fleet_of(n_servers: int, gpus_per_server: int = 4) -> ClusterSpec:
    """A homogeneous commodity fleet: the default placement testbed."""
    from repro.experiments.common import server_for

    return homogeneous_cluster(n_servers, server_for(gpus_per_server))


@dataclass(frozen=True)
class FleetReservation:
    """One tenant's carved slice of one server.

    ``devices`` are the server's GPU indices backing the job, in the
    dense order the job's bind sees them (slice device ``i`` is fleet
    GPU ``devices[i]``).  ``share`` is the exact memory fraction charged
    to each listed device; ``n_logical`` is the job's logical device
    count (> ``len(devices)`` only for time-slice placements).
    """

    token: int
    tenant: str
    server: int
    devices: tuple[int, ...]
    share: Fraction
    n_logical: int
    kind: str  # "identity" | "partition" | "timeslice"

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    @property
    def gpu_share(self) -> Fraction:
        """Total fleet GPU capacity this reservation holds."""
        return self.share * len(self.devices)

    def binding(self) -> DeviceBinding:
        """The :class:`DeviceBinding` realizing this placement.

        A full-share, full-width reservation is the identity binding --
        the bound graph is the logical graph *object*, so execution is
        bit-identical to the solo run.  A fractional share carves the
        tenant's memory partition via ``memory_scale``; a time-slice
        reservation round-robins the logical devices onto the slice.
        The binding depends only on ``(share, width, n_logical)``, so
        every reservation of one shape shares one binding object and
        its cached fingerprint.
        """
        return _binding(self.share, len(self.devices), self.n_logical)

    def describe(self) -> str:
        slots = ", ".join(f"gpu{g}" for g in self.devices)
        return (f"{self.kind} placement for {self.tenant}: "
                f"{self.n_logical} logical device(s) on s{self.server}"
                f"[{slots}] at share {self.share}")


@lru_cache(maxsize=64)
def _binding(share: Fraction, width: int, n_logical: int) -> DeviceBinding:
    """The binding of every reservation of one shape (see
    :meth:`FleetReservation.binding`)."""
    if share == 1:
        if width == n_logical:
            return DeviceBinding.identity(width)
        return DeviceBinding.pack(n_logical, VirtualTopology.uniform(width))
    topology = VirtualTopology(tuple(
        PhysicalDevice(i, flops_scale=1.0, memory_scale=float(share))
        for i in range(width)
    ))
    return DeviceBinding.pack(n_logical, topology)


class FleetPlacer:
    """Deterministic, exact placement over a shared fleet.

    Capacity is counted in integer ``1/den`` units of a GPU (float
    shares are dyadic, so ``den`` stays a power of two for them): a
    share with a new denominator rescales the counts once, in place, and
    reserve, release and eligibility are integer compares and adds.
    :meth:`residual` and :meth:`occupancy` build exact Fractions on read.

    ``allow_sharing=False`` restricts eligibility to fully free GPUs
    (no cross-tenant co-residency); ``allow_timeslice=False`` turns off
    the narrowing rung, so jobs either get their full width or nothing.
    """

    def __init__(self, cluster: ClusterSpec, *,
                 allow_sharing: bool = True,
                 allow_timeslice: bool = True):
        self.cluster = cluster
        self.allow_sharing = allow_sharing
        self.allow_timeslice = allow_timeslice
        self._total = cluster.total_gpus
        #: capacity units per GPU: the residuals count ``1/_den``ths
        self._den = 1
        #: residual capacity per [server][gpu], in units
        self._residual: list[list[int]] = [
            [1] * spec.n_gpus for spec in cluster.servers
        ]
        #: occupied capacity in units, kept by ``_commit`` and
        #: ``release``: exactly the sum of ``_den - residual``
        self._held = 0
        self._active: dict[int, FleetReservation] = {}
        self._next_token = 0
        self.placements = 0
        self.releases = 0

    # -- capacity queries --------------------------------------------------------

    @property
    def n_servers(self) -> int:
        return self.cluster.n_servers

    @property
    def total_gpus(self) -> int:
        return self._total

    @property
    def active(self) -> tuple[FleetReservation, ...]:
        """Live reservations, oldest first (token order)."""
        return tuple(
            self._active[t] for t in sorted(self._active)
        )

    def residual(self, server: int, gpu: int) -> Fraction:
        return Fraction(self._residual[server][gpu], self._den)

    def occupancy(self) -> Fraction:
        """Occupied fraction of the whole fleet's GPU capacity, exact."""
        return Fraction(self._held, self._den * self._total)

    def occupancy_float(self) -> float:
        """``float(occupancy())`` without building the Fraction: int true
        division is correctly rounded, so the bits are the same."""
        return self._held / (self._den * self._total)

    def tenants_on(self, server: int, gpu: int) -> tuple[str, ...]:
        """Tenants co-resident on one GPU, oldest placement first."""
        return tuple(
            res.tenant for res in self.active
            if res.server == server and gpu in res.devices
        )

    def _units(self, share: Fraction) -> int:
        """``share`` in capacity units, refining ``_den`` first when its
        denominator does not divide it (the one in-place rescale)."""
        q = share.denominator
        if self._den % q:
            scale = q // gcd(self._den, q)
            for row in self._residual:
                row[:] = [r * scale for r in row]
            self._held *= scale
            self._den *= scale
        return share.numerator * (self._den // q)

    # -- placement ---------------------------------------------------------------

    def reserve(self, tenant: str, gpus: int,
                share: ShareLike = 1) -> Optional[FleetReservation]:
        """Place ``gpus`` logical devices for ``tenant``; None if nothing
        on the fleet can host them at the requested memory share."""
        try:
            gpus = operator.index(gpus)
        except TypeError as exc:
            raise SimulationError(
                f"gpus must be an integer, got {gpus!r}"
            ) from exc
        try:
            share = Fraction(share)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SimulationError(
                f"memory share must be a finite number, got {share!r}"
            ) from exc
        if gpus < 1:
            raise SimulationError(f"gpus must be >= 1, got {gpus}")
        if not 0 < share.numerator <= share.denominator:
            raise SimulationError(
                f"memory share must be in (0, 1], got {share}"
            )
        units = self._units(share)
        floor = self._den if not self.allow_sharing else units
        eligible = []
        for server, row in enumerate(self._residual):
            slots = [g for g, left in enumerate(row) if left >= floor]
            # Best-fit: fill partially carved GPUs before fresh ones so
            # whole servers stay free for identity placements (the sort
            # is stable, so ties keep the lowest index first).
            slots.sort(key=row.__getitem__)
            # Rung 1: full width on one server.
            if len(slots) >= gpus:
                kind = "identity" if units == self._den else "partition"
                return self._commit(tenant, server,
                                    tuple(sorted(slots[:gpus])),
                                    share, units, gpus, kind)
            eligible.append(slots)

        # Rung 2: time-slice onto the widest eligible server (every
        # server has fewer than ``gpus`` eligible slots by now).
        if self.allow_timeslice:
            best_server, best_slots = -1, []
            for server, slots in enumerate(eligible):
                if len(slots) > len(best_slots):
                    best_server, best_slots = server, slots
            if best_slots:
                return self._commit(tenant, best_server,
                                    tuple(sorted(best_slots)),
                                    share, units, gpus, "timeslice")
        return None

    def require(self, tenant: str, gpus: int,
                share: ShareLike = 1) -> FleetReservation:
        """:meth:`reserve`, but a miss raises :class:`NoCapacityError`."""
        reservation = self.reserve(tenant, gpus, share)
        if reservation is None:
            raise NoCapacityError(
                f"no server can host {gpus} device(s) for {tenant} "
                f"at share {Fraction(share)}"
            )
        return reservation

    def _commit(self, tenant: str, server: int, devices: tuple[int, ...],
                share: Fraction, units: int, n_logical: int,
                kind: str) -> FleetReservation:
        row = self._residual[server]
        for gpu in devices:
            row[gpu] -= units
            if row[gpu] < 0:  # pragma: no cover - guarded by eligibility
                raise SimulationError(
                    f"s{server}/gpu{gpu} oversubscribed to "
                    f"{self.residual(server, gpu)}"
                )
        self._held += units * len(devices)
        reservation = FleetReservation(
            token=self._next_token, tenant=tenant, server=server,
            devices=devices, share=share, n_logical=n_logical, kind=kind,
        )
        self._next_token += 1
        self._active[reservation.token] = reservation
        self.placements += 1
        return reservation

    def release(self, reservation: FleetReservation) -> None:
        """Return a reservation's capacity.  Double release is a bug and
        raises (mirrors the lifetime pass's double-free rule)."""
        if self._active.pop(reservation.token, None) is None:
            raise SimulationError(
                f"release of unknown/already released reservation "
                f"{reservation.token} ({reservation.tenant})"
            )
        share = reservation.share
        units = share.numerator * (self._den // share.denominator)
        row = self._residual[reservation.server]
        for gpu in reservation.devices:
            row[gpu] += units
            if row[gpu] > self._den:  # pragma: no cover - corrupt state
                raise SimulationError(
                    f"s{reservation.server}/gpu{gpu} released past full: "
                    f"{self.residual(reservation.server, gpu)}"
                )
        self._held -= units * len(reservation.devices)
        self.releases += 1

    # -- certification -----------------------------------------------------------

    def bind(self, reservation: FleetReservation,
             plan: "HarmonyPlan") -> "BoundPlan":
        """Realize a placement as an analyzer-certified bound plan.

        The plan must target exactly the reservation's logical device
        count.  Verification rewrites the graph and re-runs the full
        static pass set with the tenant's partition as the per-device
        capacity vector, so an accepted co-placement is *proved* to fit
        inside its share;
        :class:`~repro.common.errors.ScheduleAnalysisError` propagates
        when the partition is too small (callers release and shed).
        The planner service calls this for time-slice reservations only;
        a full-width one is :func:`repro.virt.bind.certify_relabel`'s.
        """
        from repro.virt.bind import bind as bind_plan

        if plan.graph.n_devices != reservation.n_logical:
            raise SimulationError(
                f"plan targets {plan.graph.n_devices} logical device(s) "
                f"but the reservation holds {reservation.n_logical}"
            )
        return bind_plan(plan, reservation.binding())

    # -- reporting ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready deterministic state (floats are exact dyadics for
        the dyadic shares the workloads use)."""
        return {
            "servers": self.n_servers,
            "gpus": self.total_gpus,
            "placements": self.placements,
            "releases": self.releases,
            "active": len(self._active),
            "occupancy": self.occupancy_float(),
            "residual": [
                [r / self._den for r in row] for row in self._residual
            ],
        }

    def describe(self) -> str:
        lines = [
            f"fleet: {self.n_servers} server(s) / {self.total_gpus} GPUs, "
            f"occupancy {self.occupancy_float() * 100:.0f}%, "
            f"{self.placements} placement(s), {self.releases} release(s)"
        ]
        for server, row in enumerate(self._residual):
            slots = " ".join(f"gpu{g}:{self.residual(server, g)}"
                             for g in range(len(row)))
            lines.append(f"  s{server}: {slots}")
        return "\n".join(lines)
