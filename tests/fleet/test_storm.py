"""The fleet storm acceptance matrix: seeds x fleet sizes, zero leaks.

The issue's bar: seeded storms of mixed zoo jobs (widths 2 and 4,
memory shares 1 and 1/2) over {2, 4}-server fleets across 5 seeds must
end with every request terminally resolved under a typed outcome, the
fleet drained to zero occupancy, per-tenant GPU work conserved by every
certified bind (a placement may move a task between devices, never
create or destroy FLOPs), and bit-identical metrics on a rerun.
"""

import json
from collections import Counter
from fractions import Fraction

import pytest

from repro.fleet import FleetPlacer, fleet_of
from repro.service import (
    Outcome,
    PlannerService,
    ServiceConfig,
    scripted_workload,
)

SEEDS = (0, 1, 2, 3, 4)
FLEETS = (2, 4)
STORM_SIZE = 80


def _storm(seed, servers):
    requests = scripted_workload(
        STORM_SIZE, seed=seed, gpus=(2, 4), shares=(1.0, 0.5)
    )
    service = PlannerService(
        ServiceConfig(workers=3),
        fleet=FleetPlacer(fleet_of(servers, 4)),
        seed=seed,
    )
    results = service.run(requests)
    return service, results


@pytest.fixture(scope="module")
def storms():
    """All ten storm cells, run once and shared (the expensive part)."""
    return {
        (seed, servers): _storm(seed, servers)
        for seed in SEEDS for servers in FLEETS
    }


@pytest.mark.parametrize("servers", FLEETS)
@pytest.mark.parametrize("seed", SEEDS)
class TestStormCell:
    def test_every_request_resolves_with_a_typed_outcome(
            self, storms, seed, servers):
        service, results = storms[(seed, servers)]
        assert len(results) == STORM_SIZE
        assert service.metrics.resolved == STORM_SIZE
        for result in results:
            assert isinstance(result.outcome, Outcome)
            assert result.outcome.group in (
                "served", "degraded", "shed", "failed"
            )
            if result.outcome.group == "shed":
                assert result.detail

    def test_fleet_drains_and_accounting_balances(
            self, storms, seed, servers):
        service, _ = storms[(seed, servers)]
        assert service.fleet.occupancy() == 0
        assert service.fleet.active == ()
        assert service.metrics.fleet_placements == service.fleet.releases
        assert service.metrics.fleet_certified \
            + service.metrics.fleet_rejections \
            <= service.metrics.fleet_placements
        assert 0.0 <= service.metrics.fleet_utilization <= 1.0

    def test_per_tenant_gpu_work_is_conserved(self, storms, seed, servers):
        """Every plan a tenant was served executed exactly its logical
        GPU work: the certified bound graph's task multiset (kind, FLOPs,
        layer range) equals the logical plan's -- binds relocate tasks,
        they never create or destroy work."""
        service, results = storms[(seed, servers)]
        checked = 0
        for result in results:
            reservation = service.fleet_placed.get(result.request.rid)
            if reservation is None or not result.outcome.carries_plan:
                continue
            bound = service.fleet_bounds[
                (result.plan_key, reservation.binding().fingerprint())]
            assert bound is not None, (
                f"req{result.request.rid} served off an uncertified bind"
            )
            logical = Counter(
                (t.kind, t.total_flops, t.first_layer, t.last_layer)
                for t in bound.plan.graph.tasks
            )
            physical = Counter(
                (t.kind, t.total_flops, t.first_layer, t.last_layer)
                for t in bound.graph.tasks
            )
            assert physical == logical, (
                f"req{result.request.rid} ({reservation.tenant}): "
                f"bind changed the GPU work"
            )
            checked += 1
        assert checked > 0

    def test_rerun_is_bit_identical(self, storms, seed, servers):
        service, results = storms[(seed, servers)]
        again, results2 = _storm(seed, servers)
        assert json.dumps(service.metrics.snapshot(), sort_keys=True) \
            == json.dumps(again.metrics.snapshot(), sort_keys=True)
        assert [r.outcome for r in results] == \
            [r.outcome for r in results2]
        assert [r.resolved_at for r in results] == \
            [r.resolved_at for r in results2]


class TestAcrossTheMatrix:
    def test_sharing_rungs_are_genuinely_exercised(self, storms):
        """Across the whole matrix the storm must reach identity,
        partition AND time-slice placements, plus at least one capacity
        shed -- a storm that only ever sees free servers proves nothing
        about co-placement."""
        identity = partitioned = timesliced = shed = 0
        for service, _ in storms.values():
            identity += service.metrics.fleet_identity
            partitioned += service.metrics.fleet_partitioned
            timesliced += service.metrics.fleet_timesliced
            shed += service.metrics.of(Outcome.SHED_NO_CAPACITY)
        assert identity > 0 and partitioned > 0 and timesliced > 0
        assert shed > 0

    def test_partition_shares_stay_dyadic_exact(self, storms):
        """The 1/2 shares the storm draws survive as exact Fractions all
        the way into the reservation log (no float drift)."""
        for service, _ in storms.values():
            for reservation in service.fleet_placed.values():
                assert reservation.share in (Fraction(1), Fraction(1, 2))

    def test_bigger_fleet_never_sheds_more(self, storms):
        """For the same seed, doubling the fleet can only reduce (or
        hold) capacity sheds -- a basic sanity on the placer actually
        using the extra servers."""
        for seed in SEEDS:
            small, _ = storms[(seed, 2)]
            big, _ = storms[(seed, 4)]
            assert big.metrics.of(Outcome.SHED_NO_CAPACITY) \
                <= small.metrics.of(Outcome.SHED_NO_CAPACITY)

    def test_seeds_differ(self, storms):
        snapshots = {
            json.dumps(storms[(seed, 2)][0].metrics.snapshot(),
                       sort_keys=True)
            for seed in SEEDS
        }
        assert len(snapshots) == len(SEEDS)
