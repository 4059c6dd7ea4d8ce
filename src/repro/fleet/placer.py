"""Resource-sensitive co-placement of jobs onto a shared server fleet.

The placer answers one question deterministically: *where on the fleet
do this job's logical devices go, and how much of each GPU does it get?*
Every GPU's residual memory is tracked as an exact
:class:`~fractions.Fraction` in ``[0, 1]`` of the planned card -- the
same number :class:`~repro.virt.devices.PhysicalDevice.memory_scale`
speaks -- so placement arithmetic can never drift and a carved partition
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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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
    """Deterministic Fraction-exact placement over a shared fleet.

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
        #: residual memory fraction per [server][gpu], exact
        self._residual: list[list[Fraction]] = [
            [Fraction(1)] * spec.n_gpus for spec in cluster.servers
        ]
        #: occupied capacity in whole GPUs, kept by ``_commit`` and
        #: ``release``: exactly the sum of ``1 - residual``
        self._held = Fraction(0)
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
        return self.cluster.total_gpus

    @property
    def active(self) -> tuple[FleetReservation, ...]:
        """Live reservations, oldest first (token order)."""
        return tuple(
            self._active[t] for t in sorted(self._active)
        )

    def residual(self, server: int, gpu: int) -> Fraction:
        return self._residual[server][gpu]

    def occupancy(self) -> Fraction:
        """Occupied fraction of the whole fleet's GPU capacity, exact."""
        return self._held / self.total_gpus

    def tenants_on(self, server: int, gpu: int) -> tuple[str, ...]:
        """Tenants co-resident on one GPU, oldest placement first."""
        return tuple(
            res.tenant for res in self.active
            if res.server == server and gpu in res.devices
        )

    # -- placement ---------------------------------------------------------------

    def reserve(self, tenant: str, gpus: int,
                share: ShareLike = 1) -> Optional[FleetReservation]:
        """Place ``gpus`` logical devices for ``tenant``; None if nothing
        on the fleet can host them at the requested memory share."""
        share = Fraction(share)
        if gpus < 1:
            raise SimulationError(f"gpus must be >= 1, got {gpus}")
        if not 0 < share <= 1:
            raise SimulationError(
                f"memory share must be in (0, 1], got {share}"
            )
        floor = Fraction(1) if not self.allow_sharing else share

        def eligible(server: int) -> list[int]:
            row = self._residual[server]
            picked = [g for g in range(len(row)) if row[g] >= floor]
            # Best-fit: fill partially carved GPUs before fresh ones so
            # whole servers stay free for identity placements.
            picked.sort(key=lambda g: (row[g], g))
            return picked

        # Rung 1: full width on one server.
        for server in range(self.n_servers):
            slots = eligible(server)
            if len(slots) >= gpus:
                kind = "identity" if share == 1 else "partition"
                return self._commit(tenant, server,
                                    tuple(sorted(slots[:gpus])),
                                    share, gpus, kind)

        # Rung 2: time-slice onto the widest eligible server.
        if self.allow_timeslice:
            best_server, best_slots = -1, []
            for server in range(self.n_servers):
                slots = eligible(server)
                if len(slots) > len(best_slots):
                    best_server, best_slots = server, slots
            if best_slots:
                width = min(gpus, len(best_slots))
                return self._commit(tenant, best_server,
                                    tuple(sorted(best_slots[:width])),
                                    share, gpus, "timeslice")
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
                share: Fraction, n_logical: int,
                kind: str) -> FleetReservation:
        row = self._residual[server]
        for gpu in devices:
            row[gpu] -= share
            if row[gpu] < 0:  # pragma: no cover - guarded by eligibility
                raise SimulationError(
                    f"s{server}/gpu{gpu} oversubscribed to {row[gpu]}"
                )
        self._held += share * len(devices)
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
        row = self._residual[reservation.server]
        for gpu in reservation.devices:
            row[gpu] += reservation.share
            if row[gpu] > 1:  # pragma: no cover - implies corrupt state
                raise SimulationError(
                    f"s{reservation.server}/gpu{gpu} released past full: "
                    f"{row[gpu]}"
                )
        self._held -= reservation.share * len(reservation.devices)
        self.releases += 1

    # -- certification -----------------------------------------------------------

    def bind(self, reservation: FleetReservation,
             plan: "HarmonyPlan") -> "BoundPlan":
        """Realize a placement as an analyzer-certified bound plan.

        The plan must target exactly the reservation's logical device
        count.  Verification re-runs the full static pass set with the
        tenant's partition as the per-device capacity vector, so an
        accepted co-placement is *proved* to fit inside its share;
        :class:`~repro.common.errors.ScheduleAnalysisError` propagates
        when the partition is too small (callers release and shed).
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
            "occupancy": float(self.occupancy()),
            "residual": [
                [float(r) for r in row] for row in self._residual
            ],
        }

    def describe(self) -> str:
        lines = [
            f"fleet: {self.n_servers} server(s) / {self.total_gpus} GPUs, "
            f"occupancy {float(self.occupancy()) * 100:.0f}%, "
            f"{self.placements} placement(s), {self.releases} release(s)"
        ]
        for server, row in enumerate(self._residual):
            slots = " ".join(f"gpu{g}:{row[g]}" for g in range(len(row)))
            lines.append(f"  s{server}: {slots}")
        return "\n".join(lines)
