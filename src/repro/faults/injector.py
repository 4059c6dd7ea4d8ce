"""Binds a :class:`~repro.faults.plan.FaultPlan` to a live simulated server.

The injector is the only object the executor talks to: it answers fault
queries (transfer/crash/slow-down), installs time-varying link degradation
on the server's PCIe tree, and counts every fault it hands out so runs can
report injected vs. recovered vs. fatal.

Link degradation and host memory pressure are delivered *lazily*: each
:class:`~repro.sim.links.Link` gets a ``degradation`` function of virtual
time, sampled when a transfer locks the path.  No free-running flapper
processes exist, so a fault-armed simulator still drains exactly when the
schedule completes -- the event heap is never polluted, and an
all-faults-disabled plan injects nothing at all.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.diagnostics import stream_ref, task_ref
from repro.common.errors import GpuLostError, TaskCrashError, TransferFaultError
from repro.faults.plan import FaultKind, FaultPlan
from repro.hardware.server import SimulatedServer
from repro.sim.links import Link, TransferFault


class CrashFault:
    """A decided compute crash: waste ``fraction`` of the attempt, then
    raise ``error`` (unless the recovery policy retries)."""

    __slots__ = ("error", "fraction")

    def __init__(self, error: TaskCrashError, fraction: float):
        self.error = error
        self.fraction = fraction


class FaultInjector:
    """Per-run-attempt fault delivery and accounting.

    ``context`` is the ``(iteration, restart_attempt)`` salt: the runner
    builds a fresh injector per attempt so a restarted iteration rolls
    fresh dice while staying fully reproducible from the plan seed.
    """

    def __init__(self, plan: FaultPlan, context: tuple = ()):
        self.plan = plan
        self.context = tuple(context)
        self.injected: dict[FaultKind, int] = {kind: 0 for kind in FaultKind}
        self._counted_slow: set[int] = set()
        self._counted_lost: set[int] = set()
        #: live simulator, bound by :meth:`arm`; lets every counted fault
        #: also land on the execution trace when one is on
        self._sim = None

    def _record(self, kind: FaultKind, device: int = -1, tid: int = -1,
                **meta) -> None:
        """Mirror a counter increment as a ``fault`` trace instant.

        Called exactly once per ``self.injected[...] += 1`` site, which is
        what makes the trace's fault events and the recovery counters
        equal by construction (the invariant the test harness asserts).
        """
        sim = self._sim
        if sim is None:
            return
        trace = sim.trace
        if trace is not None:
            trace.instant("fault", kind.value, sim.now,
                          device=device, tid=tid, **meta)

    @property
    def iteration(self) -> int:
        """Iteration this injector serves (from the restart context salt)."""
        return int(self.context[0]) if self.context else 0

    @property
    def enabled(self) -> bool:
        return self.plan.enabled

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    # -- arming ------------------------------------------------------------------

    def arm(self, server: SimulatedServer) -> None:
        """Install link degradation / host pressure on the live server.

        Leaf links see only flapping; the oversubscribed switch uplinks
        and the host staging engine additionally see host-memory-pressure
        epochs (they are the hops that touch host DRAM).
        """
        self._sim = server.sim
        if not self.enabled:
            return
        tree = server.tree
        for link in tree.leaf_up + tree.leaf_down + list(tree.nvlink.values()):
            link.degradation = self._flap_only(link)
        for link in tree.uplink_up + tree.uplink_down:
            link.degradation = self._flap_and_pressure(link)
        server.pageable_staging.degradation = self._pressure_only()

    def _flap_factor(self, link: Link, now: float) -> float:
        epoch = int(now / self.plan.spec.link_flap_interval)
        factor = self.plan.link_degradation(link.name, epoch, self.context)
        if factor < 1.0:
            self.injected[FaultKind.LINK_DEGRADE] += 1
            self._record(FaultKind.LINK_DEGRADE, link=link.name,
                         factor=factor)
        return factor

    def _pressure_factor(self, now: float) -> float:
        epoch = int(now / self.plan.spec.host_pressure_interval)
        factor = self.plan.host_pressure(epoch, self.context)
        if factor < 1.0:
            self.injected[FaultKind.HOST_PRESSURE] += 1
            self._record(FaultKind.HOST_PRESSURE, factor=factor)
        return factor

    def _flap_only(self, link: Link):
        return lambda now: self._flap_factor(link, now)

    def _pressure_only(self):
        return lambda now: self._pressure_factor(now)

    def _flap_and_pressure(self, link: Link):
        return lambda now: self._flap_factor(link, now) * self._pressure_factor(now)

    # -- queries the executor asks ----------------------------------------------

    def transfer_fault(
        self, device: int, stream: str, label: str, attempt: int
    ) -> Optional[TransferFault]:
        """Fault for this transfer attempt, or None to let it through."""
        entity = stream_ref(device, stream)
        fraction = self.plan.transfer_fault(entity, label, attempt, self.context)
        if fraction is None:
            return None
        self.injected[FaultKind.TRANSFER] += 1
        self._record(FaultKind.TRANSFER, device=device, label=label,
                     stream=stream, attempt=attempt)
        return TransferFault(
            error=TransferFaultError(
                f"injected transfer fault on {entity} "
                f"(move {label!r}, attempt {attempt})",
                entity=entity,
            ),
            fraction=fraction,
        )

    def crash_fault(self, tid: int, device: int, mb_index: int,
                    attempt: int) -> Optional[CrashFault]:
        """Crash for this compute attempt, or None to let it run."""
        crash = self.plan.task_crash(tid, mb_index, attempt, self.context)
        if crash is None:
            return None
        self.injected[FaultKind.TASK_CRASH] += 1
        self._record(FaultKind.TASK_CRASH, device=device, tid=tid,
                     mb=mb_index, attempt=attempt)
        entity = task_ref(tid)
        return CrashFault(
            error=TaskCrashError(
                f"injected crash of {entity} microbatch {mb_index} on "
                f"{stream_ref(device, 'compute')} (attempt {attempt})",
                entity=entity,
            ),
            fraction=crash.fraction,
        )

    def compute_multiplier(self, device: int) -> float:
        """Straggler kernel-time multiplier for ``device`` (1.0 = healthy)."""
        multiplier, _persistent = self.plan.gpu_slowdown_at(device, self.iteration)
        if multiplier > 1.0 and device not in self._counted_slow:
            self._counted_slow.add(device)
            self.injected[FaultKind.GPU_SLOWDOWN] += 1
            self._record(FaultKind.GPU_SLOWDOWN, device=device,
                         multiplier=multiplier)
        return multiplier

    def degraded_gpus(self, n_devices: int) -> list[tuple[int, float, bool]]:
        """(device, multiplier, persistent) for every straggler GPU."""
        out = []
        for device in range(n_devices):
            multiplier, persistent = self.plan.gpu_slowdown_at(
                device, self.iteration)
            if multiplier > 1.0:
                out.append((device, multiplier, persistent))
        return out

    def gpu_lost(self, device: int) -> bool:
        """Is ``device`` dead as of this injector's iteration?"""
        death = self.plan.gpu_loss(device)
        return death is not None and death <= self.iteration

    def lost_fault(self, device: int) -> Optional[GpuLostError]:
        """Loss fault for a compute attempt on ``device``, or None.

        Counted once per device per injector: the first kernel scheduled
        on dead hardware surfaces the loss; subsequent queries on the
        same corpse return the error without inflating the tally.
        """
        if not self.gpu_lost(device):
            return None
        if device not in self._counted_lost:
            self._counted_lost.add(device)
            self.injected[FaultKind.GPU_LOSS] += 1
            self._record(FaultKind.GPU_LOSS, device=device)
        entity = f"gpu{device}"
        return GpuLostError(
            f"injected permanent loss of {entity} "
            f"(died at iteration {self.plan.gpu_loss(device)})",
            entity=entity,
        )

    def lost_gpus(self, n_devices: int) -> list[tuple[int, int]]:
        """(device, death iteration) for every planned permanent loss."""
        out = []
        for device in range(n_devices):
            death = self.plan.gpu_loss(device)
            if death is not None:
                out.append((device, death))
        return out
