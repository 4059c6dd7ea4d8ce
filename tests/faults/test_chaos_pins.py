"""Pins every seeded chaos decision of the three fault-plan families.

The storm suites compare two reruns of the same code, so a renamed draw
label, a reordered label tuple or a flipped rate comparison passes them
all.  This test evaluates every decision method of ``FaultPlan``,
``ClusterFaultPlan`` and ``ServiceFaultPlan`` (and of their scripted
subclasses) on a fixed grid -- seeds 0-7 x chaos intensities 0.5 / 1.0 /
2.0 x fixed labels, devices, epochs, request ids and times -- serializes
every answer (floats via ``float.hex``) and pins the sha256 of the
result.  Any change to what a seed decides moves the digest.
"""

import hashlib

from repro.cluster import (
    ClusterFaultPlan,
    ClusterFaultSpec,
    PartitionWindow,
    ScriptedClusterFaultPlan,
)
from repro.faults import Crash, FaultPlan, FaultSpec, ScriptedFaultPlan
from repro.service import (
    ScriptedServiceFaultPlan,
    ServiceChaosSpec,
    ServiceFaultPlan,
)

SEEDS = range(8)
INTENSITIES = (0.5, 1.0, 2.0)
CONTEXTS = ((), (0, 0), (1, 2))
ENTITIES = ("gpu0:swap", "gpu1:p2p")
LABELS = ("W3", "A0-1", "G2")
ATTEMPTS = range(3)
TIDS = range(4)
MB_INDEXES = range(2)
DEVICES = range(4)
ITERATIONS = range(5)
EPOCHS = range(6)
LINKS = ("pcie-root", "gpu0-up", "gpu3-down")
SERVERS = range(4)
DIRECTIONS = ("up", "down")
TIMES = (0.0, 0.01, 0.049, 0.05, 0.12, 0.333, 1.0)
RIDS = range(24)

#: sha256 of the serialized decision grid.
DIGEST = "9bdaef9ad2c71d58eef280547db7c846aa027ebac618ad328e78d1b20fb5d376"


def _canon(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "T" if value else "F"
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Crash):
        return "crash:" + value.fraction.hex()
    if isinstance(value, FaultPlan):
        return f"plan:{value.seed}:{value.describe()}"
    if isinstance(value, tuple):
        return "(" + ",".join(_canon(v) for v in value) + ")"
    raise TypeError(f"unpinned decision type {type(value).__name__}")


def _fault_plan_lines(plan: FaultPlan) -> list[str]:
    out = [f"enabled {_canon(plan.enabled)}"]
    for ctx in CONTEXTS:
        for entity in ENTITIES:
            for label in LABELS:
                for attempt in ATTEMPTS:
                    out.append(_canon(
                        plan.transfer_fault(entity, label, attempt, ctx)
                    ))
        for tid in TIDS:
            for mb in MB_INDEXES:
                for attempt in ATTEMPTS:
                    out.append(_canon(plan.task_crash(tid, mb, attempt, ctx)))
        for epoch in EPOCHS:
            out.append(_canon(plan.host_pressure(epoch, ctx)))
            for link in LINKS:
                out.append(_canon(plan.link_degradation(link, epoch, ctx)))
    for device in DEVICES:
        out.append(_canon(plan.gpu_slowdown(device)))
        out.append(_canon(plan.gpu_loss(device)))
        for iteration in ITERATIONS:
            out.append(_canon(plan.gpu_slowdown_at(device, iteration)))
    return out


def _cluster_plan_lines(plan: ClusterFaultPlan) -> list[str]:
    out = [f"enabled {_canon(plan.enabled)}"]
    for server in SERVERS:
        out.append(_canon(plan.server_plan(server)))
        out.append(_canon(plan.server_crash(server)))
    for now in TIMES:
        out.append(_canon(plan.partition_sides(now)))
        out.append(_canon(plan.next_partition_change(now)))
        out.append(_canon(plan.partition_blocked([(0, 1), (2, 3)], now)))
        for a in SERVERS:
            for b in SERVERS:
                out.append(_canon(plan.partitioned(a, b, now)))
    for ctx in CONTEXTS:
        for epoch in EPOCHS:
            out.append(_canon(plan.switch_degradation(epoch, ctx)))
            for server in SERVERS:
                for direction in DIRECTIONS:
                    out.append(_canon(plan.nic_degradation(
                        server, direction, epoch, ctx,
                    )))
    return out


def _service_plan_lines(plan: ServiceFaultPlan) -> list[str]:
    out = [f"enabled {_canon(plan.enabled)}"]
    for rid in RIDS:
        out.append(_canon(plan.poisoned(rid)))
        for attempt in ATTEMPTS:
            out.append(_canon(plan.slowdown(rid, attempt)))
            out.append(_canon(plan.crash(rid, attempt)))
    return out


def _scripted_fault_plan(spec: FaultSpec, seed: int) -> ScriptedFaultPlan:
    return ScriptedFaultPlan(
        transfer_faults={("W3", 1): 0.25, ("G2", 0): 0.75},
        crashes={(2, 1, 0): 0.5, (0, 0, 2): 0.125},
        slowdowns={1: (3.0, True)},
        slowdowns_at={2: (2, 1.5, False)},
        losses={3: 2},
        spec=spec, seed=seed,
    )


def _scripted_cluster_plan(spec: ClusterFaultSpec,
                           seed: int) -> ScriptedClusterFaultPlan:
    return ScriptedClusterFaultPlan(
        crashes={1: 2},
        partitions=[PartitionWindow(0.01, 0.12, frozenset({0})),
                    (0.3, 0.5, [2, 3])],
        server_plans={2: FaultPlan(FaultSpec.chaos(2.0), seed=11)},
        spec=spec, seed=seed,
    )


def _scripted_service_plan(spec: ServiceChaosSpec,
                           seed: int) -> ScriptedServiceFaultPlan:
    return ScriptedServiceFaultPlan(
        poisoned_rids={3, 7}, crashes={1: 2, 2: -1}, slowdowns={0: 7.0},
        spec=spec, seed=seed,
    )


def decision_grid() -> str:
    """Every decision of every family on the pinned grid, one per line."""
    lines = []
    for seed in SEEDS:
        for intensity in INTENSITIES:
            fault = FaultSpec.chaos(intensity)
            cluster = ClusterFaultSpec.cluster_chaos(intensity)
            service = ServiceChaosSpec.chaos(intensity)
            head = f"seed {seed} intensity {intensity.hex()}"
            for name, plan_lines in (
                ("fault", _fault_plan_lines(FaultPlan(fault, seed))),
                ("scripted-fault", _fault_plan_lines(
                    _scripted_fault_plan(fault, seed))),
                ("cluster", _cluster_plan_lines(
                    ClusterFaultPlan(cluster, seed))),
                ("scripted-cluster", _cluster_plan_lines(
                    _scripted_cluster_plan(cluster, seed))),
                ("service", _service_plan_lines(
                    ServiceFaultPlan(service, seed=seed))),
                ("scripted-service", _service_plan_lines(
                    _scripted_service_plan(service, seed))),
            ):
                lines.append(f"{head} {name}")
                lines.extend(plan_lines)
        # Scripts over an all-off spec: only the scripted answers fire.
        for name, plan_lines in (
            ("scripted-fault-off", _fault_plan_lines(
                _scripted_fault_plan(FaultSpec.none(), seed))),
            ("scripted-cluster-off", _cluster_plan_lines(
                _scripted_cluster_plan(ClusterFaultSpec.none(), seed))),
            ("scripted-service-off", _service_plan_lines(
                _scripted_service_plan(ServiceChaosSpec.none(), seed))),
        ):
            lines.append(f"seed {seed} {name}")
            lines.extend(plan_lines)
    return "\n".join(lines) + "\n"


def test_decision_grid_digest():
    digest = hashlib.sha256(decision_grid().encode()).hexdigest()
    assert digest == DIGEST


def test_spec_describe_strings():
    assert [FaultSpec.chaos(i).describe() for i in INTENSITIES] == [
        "FaultSpec(transfer_fault_rate=0.01, link_degrade_rate=0.05, "
        "gpu_slowdown_rate=0.1, gpu_slowdown_factor=1.5, "
        "task_crash_rate=0.005, host_pressure_rate=0.05)",
        "FaultSpec(transfer_fault_rate=0.02, link_degrade_rate=0.1, "
        "gpu_slowdown_rate=0.2, task_crash_rate=0.01, "
        "host_pressure_rate=0.1)",
        "FaultSpec(transfer_fault_rate=0.04, link_degrade_rate=0.2, "
        "gpu_slowdown_rate=0.4, gpu_slowdown_factor=3, "
        "task_crash_rate=0.02, host_pressure_rate=0.2)",
    ]
    assert [ClusterFaultSpec.cluster_chaos(i).describe()
            for i in INTENSITIES] == [
        "ClusterFaultSpec(server_crash_rate=0.125, partition_rate=0.075, "
        "nic_degrade_rate=0.05, switch_flap_rate=0.05, "
        "inner=FaultSpec(transfer_fault_rate=0.005, "
        "link_degrade_rate=0.025, gpu_slowdown_rate=0.05, "
        "gpu_slowdown_factor=1.25, task_crash_rate=0.0025, "
        "host_pressure_rate=0.025))",
        "ClusterFaultSpec(server_crash_rate=0.25, partition_rate=0.15, "
        "nic_degrade_rate=0.1, switch_flap_rate=0.1, "
        "inner=FaultSpec(transfer_fault_rate=0.01, link_degrade_rate=0.05, "
        "gpu_slowdown_rate=0.1, gpu_slowdown_factor=1.5, "
        "task_crash_rate=0.005, host_pressure_rate=0.05))",
        "ClusterFaultSpec(server_crash_rate=0.5, partition_rate=0.3, "
        "nic_degrade_rate=0.2, switch_flap_rate=0.2, "
        "inner=FaultSpec(transfer_fault_rate=0.02, link_degrade_rate=0.1, "
        "gpu_slowdown_rate=0.2, task_crash_rate=0.01, "
        "host_pressure_rate=0.1))",
    ]
    assert [ServiceChaosSpec.chaos(i).describe() for i in INTENSITIES] == [
        "ServiceChaosSpec(slow=0.075x2.5, crash=0.05, poison=0.01)",
        "ServiceChaosSpec(slow=0.15x4, crash=0.1, poison=0.02)",
        "ServiceChaosSpec(slow=0.3x7, crash=0.2, poison=0.04)",
    ]
    assert FaultSpec.none().describe() == "FaultSpec(off)"
    assert ClusterFaultSpec.none().describe() == "ClusterFaultSpec(off)"
    assert ServiceChaosSpec.none().describe() == "ServiceChaosSpec(off)"
    # Non-rate fields show when they differ from their default; a nested
    # spec shows only when it enables something.
    assert FaultSpec(link_degrade_factor=0.5,
                     link_flap_interval=0.2).describe() == (
        "FaultSpec(link_degrade_factor=0.5, link_flap_interval=0.2)"
    )
    assert ClusterFaultSpec(
        partition_interval=0.1, inner=FaultSpec(host_pressure_factor=0.25),
    ).describe() == "ClusterFaultSpec(partition_interval=0.1)"
    assert ClusterFaultSpec(
        inner=FaultSpec(gpu_loss_rate=0.5),
    ).describe() == "ClusterFaultSpec(inner=FaultSpec(gpu_loss_rate=0.5))"
    assert ServiceChaosSpec(slow_factor=2.0).describe() == (
        "ServiceChaosSpec(off)"
    )


def test_plan_describe_strings():
    assert FaultPlan(FaultSpec.chaos(1.0), seed=3).describe() == (
        "FaultPlan(seed=3, FaultSpec(transfer_fault_rate=0.02, "
        "link_degrade_rate=0.1, gpu_slowdown_rate=0.2, "
        "task_crash_rate=0.01, host_pressure_rate=0.1))"
    )
    assert _scripted_fault_plan(FaultSpec.none(), 4).describe() == (
        "FaultPlan(seed=4, FaultSpec(off))"
    )
    assert ClusterFaultPlan(ClusterFaultSpec.cluster_chaos(0.5),
                            seed=5).describe() == (
        "ClusterFaultPlan(seed=5, ClusterFaultSpec(server_crash_rate=0.125, "
        "partition_rate=0.075, nic_degrade_rate=0.05, "
        "switch_flap_rate=0.05, inner=FaultSpec(transfer_fault_rate=0.005, "
        "link_degrade_rate=0.025, gpu_slowdown_rate=0.05, "
        "gpu_slowdown_factor=1.25, task_crash_rate=0.0025, "
        "host_pressure_rate=0.025)))"
    )
    assert _scripted_cluster_plan(ClusterFaultSpec.none(), 6).describe() == (
        "ClusterFaultPlan(seed=6, ClusterFaultSpec(off))"
    )
    assert ServiceFaultPlan(ServiceChaosSpec.chaos(2.0),
                            seed=7).describe() == (
        "ServiceFaultPlan(seed=7, ServiceChaosSpec(slow=0.3x7, crash=0.2, "
        "poison=0.04))"
    )
    assert ServiceFaultPlan().describe() == (
        "ServiceFaultPlan(seed=0, ServiceChaosSpec(off))"
    )
    assert _scripted_service_plan(ServiceChaosSpec.none(), 1).describe() == (
        "ServiceFaultPlan(seed=1, ServiceChaosSpec(off))"
    )
