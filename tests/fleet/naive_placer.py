"""The Fraction placer: the reference the integer-unit placer meets.

:class:`repro.fleet.placer.FleetPlacer` keeps every GPU's residual and
its held total as ints in units of ``1/den``.  :class:`NaivePlacer`
below is the construction it replaced: each residual is an exact
:class:`~fractions.Fraction`, and every reserve, release and reading
does Fraction arithmetic.  The two must agree on every reservation,
``residual()``, ``occupancy()``, ``snapshot()`` and ``describe()``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from repro.cluster.spec import ClusterSpec
from repro.common.errors import SimulationError
from repro.fleet.placer import FleetReservation, ShareLike


class NaivePlacer:
    def __init__(self, cluster: ClusterSpec, *,
                 allow_sharing: bool = True,
                 allow_timeslice: bool = True):
        self.cluster = cluster
        self.allow_sharing = allow_sharing
        self.allow_timeslice = allow_timeslice
        self._residual: list[list[Fraction]] = [
            [Fraction(1)] * spec.n_gpus for spec in cluster.servers
        ]
        self._held = Fraction(0)
        self._active: dict[int, FleetReservation] = {}
        self._next_token = 0
        self.placements = 0
        self.releases = 0

    @property
    def n_servers(self) -> int:
        return self.cluster.n_servers

    @property
    def total_gpus(self) -> int:
        return self.cluster.total_gpus

    def residual(self, server: int, gpu: int) -> Fraction:
        return self._residual[server][gpu]

    def occupancy(self) -> Fraction:
        return self._held / self.total_gpus

    def reserve(self, tenant: str, gpus: int,
                share: ShareLike = 1) -> Optional[FleetReservation]:
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
            picked.sort(key=lambda g: (row[g], g))
            return picked

        for server in range(self.n_servers):
            slots = eligible(server)
            if len(slots) >= gpus:
                kind = "identity" if share == 1 else "partition"
                return self._commit(tenant, server,
                                    tuple(sorted(slots[:gpus])),
                                    share, gpus, kind)

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

    def _commit(self, tenant: str, server: int, devices: tuple[int, ...],
                share: Fraction, n_logical: int,
                kind: str) -> FleetReservation:
        row = self._residual[server]
        for gpu in devices:
            row[gpu] -= share
            assert row[gpu] >= 0
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
        if self._active.pop(reservation.token, None) is None:
            raise SimulationError(
                f"release of unknown/already released reservation "
                f"{reservation.token} ({reservation.tenant})"
            )
        row = self._residual[reservation.server]
        for gpu in reservation.devices:
            row[gpu] += reservation.share
            assert row[gpu] <= 1
        self._held -= reservation.share * len(reservation.devices)
        self.releases += 1

    def snapshot(self) -> dict:
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
