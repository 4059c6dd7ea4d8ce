"""Multi-server clusters: failure domains above the single machine.

The paper's Harmony trains massive models on ONE commodity server; this
package composes those per-server plans across a simulated cluster --
stage-per-server pipelines or data-parallel replicas over NIC + switch
network links -- and extends the fault/recovery ladder one failure
domain up: whole-server crashes, network partitions, NIC degradation,
and switch flapping, recovered by replica restore, cross-server
re-planning, and pipeline stage shrinking (DESIGN.md section 14).
"""

from repro.cluster.fabric import ClusterFabric
from repro.cluster.faults import (
    ClusterFaultPlan,
    ClusterFaultSpec,
    ClusterInjector,
    PartitionWindow,
    ScriptedClusterFaultPlan,
)
from repro.cluster.placement import (
    ClusterPlan,
    ClusterPlanner,
    StagePlan,
    partition_stages,
    stage_model,
)
from repro.cluster.runner import ClusterRunner
from repro.cluster.spec import (
    ETH_25G,
    ETH_100G,
    ClusterSpec,
    NetworkSpec,
    homogeneous_cluster,
)

__all__ = [
    "ETH_25G",
    "ETH_100G",
    "ClusterFabric",
    "ClusterFaultPlan",
    "ClusterFaultSpec",
    "ClusterInjector",
    "ClusterPlan",
    "ClusterPlanner",
    "ClusterRunner",
    "ClusterSpec",
    "NetworkSpec",
    "PartitionWindow",
    "ScriptedClusterFaultPlan",
    "StagePlan",
    "homogeneous_cluster",
    "partition_stages",
    "stage_model",
]
