"""The service's fleet rung: placement, certification, release hygiene.

Each test scripts exact requests against a small fleet so the outcome is
forced, not sampled: saturation sheds with the typed
``SHED_NO_CAPACITY`` reason, carved partitions are certified (or
rejected) at finish time, and every terminal path --
served, shed, chaos-crashed -- releases its reservation, so the fleet
always drains back to zero occupancy.
"""

import json
from dataclasses import replace

import pytest

from repro.fleet import FleetPlacer, fleet_of
from repro.fleet.placer import FleetReservation
from repro.service import (
    Outcome,
    PlannerService,
    PlanRequest,
    ServiceChaosSpec,
    ServiceConfig,
    ServiceFaultPlan,
    scripted_workload,
)
from repro.trace import TraceRecorder
from repro.trace.events import LANES
from repro.virt.devices import DeviceBinding, VirtualTopology


def _request(rid=0, *, tenant="t0", model="toy-transformer", minibatch=8,
             mode="pp", gpus=2, arrival=0.0, deadline=None,
             memory_share=1.0):
    return PlanRequest(rid=rid, tenant=tenant, model=model,
                       minibatch=minibatch, mode=mode, gpus=gpus,
                       arrival=arrival, deadline=deadline,
                       memory_share=memory_share)


def _serve(requests, *, servers=1, gpus=4, config=None, chaos=None,
           trace=None, **fleet_kwargs):
    service = PlannerService(
        config if config is not None else ServiceConfig(workers=4),
        chaos=chaos, trace=trace,
        fleet=FleetPlacer(fleet_of(servers, gpus), **fleet_kwargs),
    )
    results = service.run(requests)
    return service, {r.request.rid: r for r in results}


class TestPlacementOutcomes:
    def test_saturated_fleet_sheds_with_typed_reason(self):
        """Two concurrent full-memory full-width jobs cannot share one
        server: the second is shed at the placement rung."""
        service, by_rid = _serve([
            _request(0, tenant="a", gpus=4, arrival=0.0),
            _request(1, tenant="b", gpus=4, arrival=0.1),
        ], allow_timeslice=False)
        assert by_rid[0].outcome is Outcome.SERVED_FRESH
        assert by_rid[1].outcome is Outcome.SHED_NO_CAPACITY
        assert by_rid[1].outcome.group == "shed"
        assert "no server can host" in by_rid[1].detail
        assert service.metrics.of(Outcome.SHED_NO_CAPACITY) == 1

    def test_half_share_tenants_co_reside_as_partitions(self):
        service, by_rid = _serve([
            _request(0, tenant="a", gpus=4, arrival=0.0, memory_share=0.5),
            _request(1, tenant="b", gpus=4, arrival=0.1, memory_share=0.5),
        ])
        assert by_rid[0].outcome is Outcome.SERVED_FRESH
        assert by_rid[1].outcome.group in ("served", "degraded")
        placed = {rid: by_rid[rid].reservation for rid in (0, 1)}
        assert placed[0].kind == placed[1].kind == "partition"
        assert placed[0].devices == placed[1].devices
        assert service.metrics.fleet_partitioned == 2
        assert service.metrics.fleet_certified == 2

    def test_narrowed_job_time_slices(self):
        """A 4-device job arriving while 2 GPUs are held lands on the
        free pair as a time-slice placement."""
        service, by_rid = _serve([
            _request(0, tenant="a", gpus=2, arrival=0.0),
            _request(1, tenant="b", gpus=4, arrival=0.1),
        ])
        assert by_rid[1].outcome.group in ("served", "degraded")
        res = by_rid[1].reservation
        assert res.kind == "timeslice"
        assert res.n_logical == 4 and res.n_devices == 2
        assert service.metrics.fleet_timesliced == 1

    def test_sequential_jobs_reuse_the_fleet(self):
        """Non-overlapping arrivals never contend: the first release
        frees the whole server for the second identity placement."""
        service, by_rid = _serve([
            _request(0, tenant="a", gpus=4, arrival=0.0),
            _request(1, tenant="b", gpus=4, arrival=50.0),
        ], allow_timeslice=False, allow_sharing=False)
        assert by_rid[0].outcome is Outcome.SERVED_FRESH
        assert by_rid[1].outcome is Outcome.SERVED_CACHED
        assert service.metrics.fleet_identity == 2
        assert service.metrics.of(Outcome.SHED_NO_CAPACITY) == 0


class TestCertificationGate:
    def test_tiny_partition_is_rejected_by_the_analyzer(self):
        """A declared share too small for the plan passes placement but
        fails certification -- typed shed, rejection counted, capacity
        returned."""
        service, by_rid = _serve([
            _request(0, gpus=4, memory_share=1e-7),
        ])
        assert by_rid[0].outcome is Outcome.SHED_NO_CAPACITY
        assert "analyzer rejected" in by_rid[0].detail
        assert service.metrics.fleet_rejections == 1
        assert service.metrics.fleet_certified == 0
        assert service.fleet.occupancy() == 0

    def test_certification_is_memoized_per_shape(self):
        """Identical (plan, width, share) shapes are certified once;
        the plan's record stores the identity binding's accepting
        verdict."""
        service, by_rid = _serve([
            _request(rid, tenant=f"t{rid}", gpus=4, arrival=40.0 * rid)
            for rid in range(3)
        ])
        assert all(by_rid[r].outcome.group == "served" for r in range(3))
        assert service.metrics.fleet_certified == 3
        verdicts = service.cache.get(by_rid[0].plan_key).verdicts
        assert verdicts == {DeviceBinding.identity(4).fingerprint: True}

    def test_same_shape_different_topology_is_certified_separately(
            self, monkeypatch):
        """The memo is keyed on the bound topology's content, not on the
        reservation's (width, share, n_logical) summary: two placements
        of one shape whose bindings differ are each analysed."""
        realize = FleetReservation.binding
        scales = {}

        def binding(self):
            bound = realize(self)
            if self.token % 2 == 1:
                slower = VirtualTopology(tuple(
                    replace(device, flops_scale=0.5)
                    for device in bound.topology.devices
                ))
                bound = DeviceBinding(slower, bound.assignment)
            scales[bound.fingerprint] = bound.topology.devices[0].flops_scale
            return bound

        monkeypatch.setattr(FleetReservation, "binding", binding)
        service, by_rid = _serve([
            _request(rid, tenant=f"t{rid}", gpus=4, arrival=40.0 * rid)
            for rid in range(3)
        ])
        assert all(by_rid[r].outcome.group == "served" for r in range(3))
        shapes = {
            (res.n_devices, res.share, res.n_logical)
            for res in (by_rid[r].reservation for r in range(3))
        }
        assert len(shapes) == 1, "the three placements share one shape"
        assert service.metrics.fleet_certified == 3
        verdicts = service.cache.get(by_rid[0].plan_key).verdicts
        assert len(verdicts) == 2
        assert sorted(scales[digest] for digest in verdicts) == [0.5, 1.0]


class TestReleaseHygiene:
    def test_fleet_drains_to_zero_after_a_clean_run(self):
        service, _ = _serve(
            scripted_workload(30, seed=3, gpus=(2, 4), shares=(1.0, 0.5))
        )
        assert service.fleet.occupancy() == 0
        assert service.fleet.active == ()
        assert service.metrics.fleet_placements == service.fleet.releases

    def test_no_reservation_leaks_under_chaos_and_degradation(self):
        """Crashes, slowdowns and poisons all route through _resolve,
        which is the single release point -- so even a chaos storm ends
        with every carved fraction returned."""
        service, results = _serve(
            scripted_workload(60, seed=1, gpus=(2, 4), shares=(1.0, 0.5)),
            servers=2,
            chaos=ServiceFaultPlan(ServiceChaosSpec.chaos(2.0), seed=1),
        )
        assert service.metrics.chaos_crashes > 0
        assert len(results) == 60
        assert service.fleet.occupancy() == 0
        assert service.fleet.active == ()

    def test_placements_tracked_for_reporting_after_release(self):
        service, by_rid = _serve([_request(0, gpus=4)])
        assert by_rid[0].reservation.kind == "identity"
        assert service.fleet.active == ()


class TestFleetObservability:
    def test_fleet_lane_is_registered(self):
        assert "fleet" in LANES

    def test_trace_carries_place_instants_and_hold_spans(self):
        trace = TraceRecorder()
        service, by_rid = _serve([
            _request(0, tenant="a", gpus=4, arrival=0.0),
            _request(1, tenant="b", gpus=2, arrival=30.0, memory_share=0.5),
        ], trace=trace)
        fleet_events = [e for e in trace.events if e.lane == "fleet"]
        places = [e for e in fleet_events if e.name.startswith("place")]
        holds = [e for e in fleet_events if e.name.startswith("hold")]
        assert {e.name for e in places} == {"place req0", "place req1"}
        assert {e.name for e in holds} == {"hold req0", "hold req1"}
        for hold in holds:
            assert hold.t1 > hold.t0
            meta = hold.meta_dict()
            assert meta["tenant"] in ("a", "b")
            assert meta["kind"] in ("identity", "partition")
            assert meta["server"] == 0

    def test_metrics_snapshot_has_a_fleet_section(self):
        service, _ = _serve([
            _request(0, gpus=4, arrival=0.0),
            _request(1, tenant="t1", gpus=2, arrival=40.0),
        ], servers=2)
        snap = service.metrics.snapshot()
        fleet = snap["fleet"]
        assert fleet["servers"] == 2 and fleet["gpus"] == 8
        assert fleet["placements"] == 2
        assert fleet["certified"] == 2
        assert 0.0 < fleet["utilization"] <= 1.0
        assert 0.0 < fleet["peak_occupancy"] <= 1.0
        assert fleet["utilization"] == pytest.approx(
            service.metrics.fleet_utilization
        )

    def test_fleetless_service_reports_zeroed_fleet_section(self):
        service = PlannerService(ServiceConfig())
        service.run([_request(0)])
        fleet = service.metrics.snapshot()["fleet"]
        assert fleet["servers"] == 0 and fleet["placements"] == 0
        assert service.metrics.fleet_utilization == 0.0

    def test_describe_mentions_the_fleet(self):
        service, _ = _serve([_request(0, gpus=4)])
        assert "fleet" in service.metrics.describe()


class TestDeterminism:
    def test_fleet_backed_runs_are_bit_identical(self):
        def run():
            service, results = _serve(
                scripted_workload(40, seed=0, gpus=(2, 4),
                                  shares=(1.0, 0.5)),
                servers=2,
                chaos=ServiceFaultPlan(ServiceChaosSpec.chaos(1.0), seed=0),
            )
            return (json.dumps(service.metrics.snapshot(), sort_keys=True),
                    [r.outcome for r in results.values()])

        assert run() == run()
