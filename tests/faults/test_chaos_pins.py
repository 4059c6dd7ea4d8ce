"""Pins every seeded chaos decision of the three fault-plan families.

The storm suites compare two reruns of the same code, so a renamed draw
label, a reordered label tuple or a flipped rate comparison passes them
all.  The golden ``tests/golden/chaos/seed-<N>.txt`` holds every answer
of every decision method of ``FaultPlan``, ``ClusterFaultPlan`` and
``ServiceFaultPlan`` (and of their scripted subclasses) for seed ``N``,
on a fixed grid of chaos intensities 0.5 / 1.0 / 2.0 x fixed labels,
devices, epochs, request ids and times (floats via ``float.hex``).  Any
change to what a seed decides shows as a diff.
"""

from repro.cluster import ClusterFaultPlan, ClusterFaultSpec
from repro.faults import FaultPlan, FaultSpec
from repro.service import ServiceChaosSpec, ServiceFaultPlan
from tests.goldens import (
    CHAOS,
    INTENSITIES,
    check,
    scripted_cluster_plan,
    scripted_fault_plan,
    scripted_service_plan,
)


def test_decision_grid_digest():
    for seed in CHAOS.cases:
        check(CHAOS, seed)


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
    assert scripted_fault_plan(FaultSpec.none(), 4).describe() == (
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
    assert scripted_cluster_plan(ClusterFaultSpec.none(), 6).describe() == (
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
    assert scripted_service_plan(ServiceChaosSpec.none(), 1).describe() == (
        "ServiceFaultPlan(seed=1, ServiceChaosSpec(off))"
    )
