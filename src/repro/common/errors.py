"""Exception hierarchy for the reproduction package.

Every error raised by the package derives from :class:`ReproError` so
applications can catch package failures with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class GpuOutOfMemoryError(ReproError):
    """A (simulated) GPU allocation exceeded the device's memory capacity."""


class HostOutOfMemoryError(ReproError):
    """A run's host working set exceeds the server's CPU memory.

    Raised by the Executor's host check, e.g. for ZeRO-Infinity at 40 B
    parameters (Figure 15 of the paper).
    """


class InfeasibleConfigError(ReproError):
    """A training configuration cannot fit the machine under any packing."""


class GraphError(ReproError):
    """Malformed layer graph (cycles, dangling branches, bad indices)."""


class SchedulingError(ReproError):
    """The scheduler produced or was given an inconsistent task graph."""


class ScheduleAnalysisError(SchedulingError):
    """The static schedule analyzer rejected a task graph.

    Raised by :func:`repro.analysis.check` (and by
    :meth:`~repro.core.types.TaskGraph.validate`, which delegates to the
    analyzer's error-severity subset).  Subclasses
    :class:`SchedulingError` so callers that guarded against malformed
    graphs before the analyzer existed keep working.
    """


class SimulationError(ReproError):
    """Internal discrete-event simulation invariant violated.

    Also raised by the simulator watchdog (step budget / virtual-time
    horizon exceeded) -- a leaked process surfaces as a typed error
    naming the pending work, never as an infinite loop.
    """


class FaultError(ReproError):
    """Base class for injected faults surfaced to the runtime.

    ``entity`` names the faulted schedule entity with the same
    ``t<tid>`` / ``gpu<d>.<stream>`` identifier scheme the static
    analyzer and the runtime's deadlock reports use, so chaos-run
    failures line up with every other diagnostic in the system.
    """

    def __init__(self, message: str, entity: str = ""):
        super().__init__(message)
        self.entity = entity


class TransferFaultError(FaultError):
    """A swap/p2p transfer attempt failed in flight (transient by default;
    the runtime's retry/fallback policy decides whether it stays that way)."""


class TaskCrashError(FaultError):
    """A task's compute attempt crashed (spurious kernel/process failure)."""


class GpuLostError(FaultError):
    """A GPU permanently died (hardware loss, not a slowdown).

    Never retryable within an iteration attempt: the device is gone for
    the rest of the run, so recovery means re-binding its tasks to a
    spare or, when no spare exists, re-planning the whole schedule on
    the surviving device subset (:mod:`repro.elastic`)."""


class UnrecoveredFaultError(FaultError):
    """An injected fault exhausted every recovery policy (retries,
    fallback, restarts) and the run cannot make progress."""


class NetworkPartitionError(FaultError):
    """A cross-server transfer was attempted while its endpoints sit in
    disconnected partition components.  Transient: the cluster runner
    stalls until the partition window heals (or escalates to
    :class:`ClusterFaultError` when the wait budget runs out)."""


class ClusterFaultError(FaultError):
    """A cluster-level fault exhausted every recovery rung (replan
    budget, partition wait budget, replica loss) and the cluster run
    cannot make progress -- the cluster analog of
    :class:`UnrecoveredFaultError`."""
