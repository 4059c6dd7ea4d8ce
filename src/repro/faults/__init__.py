"""Chaos engineering for the simulated runtime (DESIGN.md section 8).

Seeded, reproducible fault injection -- transfer faults, link
degradation/flapping, straggler GPUs, task crashes, host memory pressure
-- plus the recovery machinery that fights back: retry with backoff,
p2p->host-staged fallback, iteration-boundary checkpoint/restart, and
late-binding re-bind of persistently degraded GPUs.

Typical use::

    from repro.faults import FaultPlan, FaultSpec

    plan = FaultPlan(FaultSpec.chaos(), seed=7)
    report = harmony.run(fault_plan=plan, iterations=2)
    print(report.metrics.recovery.describe())

or from the command line: ``python -m repro.cli chaos gpt2 --seeds 10``.
"""

from repro.faults.injector import CrashFault, FaultInjector
from repro.faults.monitor import (
    DeviceHealthMonitor,
    HealthMonitor,
    ServerHealthMonitor,
)
from repro.faults.plan import (
    Crash,
    FaultKind,
    FaultPlan,
    FaultSpec,
    ScriptedFaultPlan,
)
from repro.faults.policy import RecoveryPolicy
from repro.faults.runner import FaultTolerantRunner, check_byte_invariants

__all__ = [
    "Crash",
    "CrashFault",
    "DeviceHealthMonitor",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "FaultTolerantRunner",
    "HealthMonitor",
    "RecoveryPolicy",
    "ScriptedFaultPlan",
    "ServerHealthMonitor",
    "check_byte_invariants",
]
