"""Recovery policy knobs: how hard the runtime fights injected faults.

Kept free of runtime imports so the executor can import it without
creating a cycle through the :mod:`repro.faults` package.
"""

from __future__ import annotations

from dataclasses import dataclass

#: persistent slow-down multiplier at or above which re-bind triggers
REBIND_THRESHOLD = 1.5


@dataclass(frozen=True)
class RecoveryPolicy:
    """Tunables for every recovery mechanism, in escalation order.

    Transient transfer faults retry with exponential backoff (the fixed
    :mod:`repro.common.backoff` schedule); a p2p path that keeps failing
    degrades to a host-staged swap route; a crashed compute attempt
    retries from its still-resident inputs; an iteration that dies
    anyway restarts at once from the iteration-boundary checkpoint; and
    a GPU persistently slowed by :data:`REBIND_THRESHOLD` or more gets
    its tasks re-bound to a healthy device at the next iteration
    boundary (late binding makes the same schedule valid under the new
    assignment).
    """

    #: degrade an exhausted p2p transfer to a host-staged swap route
    p2p_fallback: bool = True
    #: compute retries per task attempt before the fault is fatal
    max_task_retries: int = 2
    #: iteration-boundary checkpoint/restart attempts per iteration
    max_iteration_restarts: int = 2
    #: re-bind a persistently degraded GPU's tasks at iteration boundaries
    rebind: bool = True
    #: when re-bind finds no spare, escalate to a full elastic re-plan on
    #: the surviving device subset (requires a replanner on the runner)
    elastic: bool = True
    #: consecutive degraded iteration boundaries before a *degraded*
    #: (still alive) device triggers a re-plan -- hysteresis so one
    #: straggle never pays a migration; a *lost* device re-plans at
    #: once.  0 disables the hysteresis (the first strike condemns)
    replan_patience: int = 2
    #: elastic re-plans allowed per run (each loses a device, so this is
    #: naturally bounded by the GPU count as well)
    max_replans: int = 4

    def __post_init__(self) -> None:
        if self.max_task_retries < 0:
            raise ValueError("max_task_retries must be >= 0")
        if self.max_iteration_restarts < 0:
            raise ValueError("max_iteration_restarts must be >= 0")
        if self.replan_patience < 0:
            raise ValueError("replan_patience must be >= 0")
        if self.max_replans < 0:
            raise ValueError("max_replans must be >= 0")
