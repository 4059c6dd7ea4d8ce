"""Fault models: what can go wrong, and the seeded plan that decides when.

A :class:`FaultSpec` sets *rates* for each fault class; a
:class:`FaultPlan` binds a spec to a seed and answers every "does this
attempt fault?" question the runtime asks.  All decisions are *stateless*
hash draws through :mod:`repro.common.chaos`: a decision depends only on
``(seed, fault kind, entity labels, attempt number, restart context)``,
never on the order questions get asked in -- which is what makes a chaos
run byte-for-byte reproducible from its seed alone.

The fault taxonomy (DESIGN.md section 8):

- **transfer faults** -- a swap or p2p transfer attempt dies in flight
  (dropped DMA, ECC hiccup); transient, retryable;
- **link degradation / flapping** -- a PCIe hop's usable bandwidth drops
  for an epoch and recovers (congestion, ASPM misbehavior);
- **GPU slow-down** -- a straggler device whose kernels run a constant
  factor slower (thermal throttling, a noisy neighbor); optionally
  *persistent*, making the device a re-bind candidate;
- **task crashes** -- a compute attempt dies partway (spurious kernel
  fault); retryable from the task's inputs, which are still resident;
- **host memory pressure** -- epochs in which host-side copy engines and
  the oversubscribed uplinks slow down (page-cache churn, NUMA pressure);
- **GPU loss** -- a device permanently dies partway through the run
  (XID error, falls off the bus); never recovers, so the runtime must
  re-bind to a spare or elastically re-plan on the survivors
  (:mod:`repro.elastic`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.common.chaos import (
    ChaosPlan,
    ChaosSpec,
    Scripted,
    factor,
    interval,
    multiplier,
    probability,
    rate,
)


class FaultKind(enum.Enum):
    """Fault classes the injector can deliver."""

    TRANSFER = "transfer"
    LINK_DEGRADE = "link_degrade"
    GPU_SLOWDOWN = "gpu_slowdown"
    TASK_CRASH = "task_crash"
    HOST_PRESSURE = "host_pressure"
    GPU_LOSS = "gpu_loss"


@dataclass(frozen=True)
class FaultSpec(ChaosSpec):
    """Rates and magnitudes for each fault class.  All rates in [0, 1]."""

    #: probability one transfer attempt fails in flight
    transfer_fault_rate: float = rate()
    #: probability a link spends a given epoch degraded
    link_degrade_rate: float = rate()
    #: bandwidth multiplier while a link is degraded
    link_degrade_factor: float = factor(0.25)
    #: virtual seconds per link degradation epoch (flap granularity)
    link_flap_interval: float = interval(0.05)
    #: probability a GPU is a straggler for the whole run
    gpu_slowdown_rate: float = rate()
    #: kernel-time multiplier of a straggler GPU
    gpu_slowdown_factor: float = multiplier(2.0)
    #: probability a straggler is persistent (re-bind candidate)
    gpu_persistent_rate: float = probability(0.5)
    #: probability one compute attempt crashes
    task_crash_rate: float = rate()
    #: probability the host spends a given epoch under memory pressure
    host_pressure_rate: float = rate()
    #: host-side bandwidth multiplier during a pressure epoch
    host_pressure_factor: float = factor(0.5)
    #: virtual seconds per host pressure epoch
    host_pressure_interval: float = interval(0.1)
    #: probability a GPU permanently dies during the run (hardware loss)
    gpu_loss_rate: float = rate()

    @classmethod
    def chaos(cls, intensity: float = 1.0) -> "FaultSpec":
        """The standard chaos mix, scaled by ``intensity`` (1.0 = moderate).

        At intensity 1.0 a typical run sees a handful of transfer faults
        and flapping episodes per iteration, a straggler GPU about every
        fifth seed, and occasional task crashes -- enough to exercise
        every recovery path without making completion unlikely.
        """
        clamp = cls.scaled(intensity)
        return cls(
            transfer_fault_rate=clamp(0.02),
            link_degrade_rate=clamp(0.10),
            link_degrade_factor=0.25,
            gpu_slowdown_rate=clamp(0.20),
            gpu_slowdown_factor=1.0 + 1.0 * max(intensity, 0.1),
            gpu_persistent_rate=0.5,
            task_crash_rate=clamp(0.01),
            host_pressure_rate=clamp(0.10),
            host_pressure_factor=0.5,
        )


@dataclass(frozen=True)
class Crash:
    """A decided task-crash fault: die after ``fraction`` of the attempt."""

    fraction: float


class FaultPlan(ChaosPlan[FaultSpec]):
    """A seeded, reproducible oracle for every fault decision.

    ``context`` distinguishes restart attempts of the same iteration: the
    :class:`~repro.faults.runner.FaultTolerantRunner` re-seeds decisions
    per ``(iteration, attempt)``, so a restarted iteration faces fresh
    (but still deterministic) dice instead of deterministically re-hitting
    the same fault forever.
    """

    # -- decisions ---------------------------------------------------------------

    def transfer_fault(
        self, entity: str, label: str, attempt: int, context: tuple = ()
    ) -> Optional[float]:
        """Does this transfer attempt fault?  Returns the abort fraction
        (how far through the transfer the fault strikes) or None."""
        if not self.hit(self.spec.transfer_fault_rate,
                        "xfer", context, entity, label, attempt):
            return None
        return 0.05 + 0.9 * self.draw("xfer-frac", context, entity, label,
                                      attempt)

    def task_crash(
        self, tid: int, mb_index: int, attempt: int, context: tuple = ()
    ) -> Optional[Crash]:
        """Does this compute attempt crash?  Returns the crash point or None."""
        if not self.hit(self.spec.task_crash_rate,
                        "crash", context, tid, mb_index, attempt):
            return None
        return Crash(
            fraction=0.05
            + 0.9 * self.draw("crash-frac", context, tid, mb_index, attempt)
        )

    def gpu_slowdown(self, device: int) -> tuple[float, bool]:
        """(kernel-time multiplier, persistent?) for ``device``.

        Run-scoped (no context): a straggler stays a straggler across
        iterations and restarts, which is what makes persistent
        degradation detectable and re-bind worthwhile.
        """
        if not self.hit(self.spec.gpu_slowdown_rate, "slow", device):
            return 1.0, False
        persistent = self.hit(self.spec.gpu_persistent_rate,
                              "slow-persist", device)
        return self.spec.gpu_slowdown_factor, persistent

    def gpu_slowdown_at(self, device: int, iteration: int) -> tuple[float, bool]:
        """(multiplier, persistent?) for ``device`` as of ``iteration``.

        The base plan's stragglers are run-scoped, so this simply
        delegates to :meth:`gpu_slowdown`; subclasses may override it to
        script degradations that begin partway through a run (a device
        that starts healthy and sickens later).  Overriding only
        :meth:`gpu_slowdown` keeps working: the runtime always queries
        through this hook.
        """
        return self.gpu_slowdown(device)

    def gpu_loss(self, device: int) -> Optional[int]:
        """Iteration at which ``device`` permanently dies, or None.

        Run-scoped like :meth:`gpu_slowdown`: a loss is a property of the
        run, not of a restart attempt -- restarting an iteration does not
        resurrect dead hardware.  The death iteration is drawn from
        ``[1, 4]`` so a loss always strikes after at least one healthy
        iteration (iteration 0 establishes the checkpoint baseline).
        """
        if not self.hit(self.spec.gpu_loss_rate, "loss", device):
            return None
        return 1 + int(self.draw("loss-iter", device) * 4.0)

    def link_degradation(
        self, link_name: str, epoch: int, context: tuple = ()
    ) -> float:
        """Bandwidth multiplier for ``link_name`` during flap epoch ``epoch``."""
        return self.scale(self.spec.link_degrade_rate,
                          self.spec.link_degrade_factor,
                          "flap", context, link_name, epoch)

    def host_pressure(self, epoch: int, context: tuple = ()) -> float:
        """Host-side bandwidth multiplier during pressure epoch ``epoch``."""
        return self.scale(self.spec.host_pressure_rate,
                          self.spec.host_pressure_factor,
                          "pressure", context, epoch)


class ScriptedFaultPlan(Scripted, FaultPlan):
    """A plan whose decisions are spelled out explicitly (for tests).

    ``transfer_faults`` maps ``(label, attempt) -> abort fraction`` (the
    entity is ignored so a script does not need to know device/stream
    placement); ``crashes`` maps ``(tid, mb_index, attempt) -> fraction``;
    ``slowdowns`` maps ``device -> (multiplier, persistent)``;
    ``slowdowns_at`` maps ``device -> (onset iteration, multiplier,
    persistent)`` for degradations that begin partway through a run;
    ``losses`` maps ``device -> death iteration`` for permanent GPU loss.
    Context is ignored: scripted faults fire on every restart attempt
    unless the script keys on ``attempt``.
    """

    def __init__(
        self,
        transfer_faults: Optional[dict[tuple[str, int], float]] = None,
        crashes: Optional[dict[tuple[int, int, int], float]] = None,
        slowdowns: Optional[dict[int, tuple[float, bool]]] = None,
        slowdowns_at: Optional[dict[int, tuple[int, float, bool]]] = None,
        losses: Optional[dict[int, int]] = None,
        spec: Optional[FaultSpec] = None,
        seed: int = 0,
    ):
        super().__init__(spec if spec is not None else FaultSpec(), seed=seed)
        self.transfer_faults = dict(transfer_faults or {})
        self.crashes = dict(crashes or {})
        self.slowdowns = dict(slowdowns or {})
        self.slowdowns_at = dict(slowdowns_at or {})
        self.losses = dict(losses or {})

    def transfer_fault(
        self, entity: str, label: str, attempt: int, context: tuple = ()
    ) -> Optional[float]:
        if (label, attempt) in self.transfer_faults:
            return self.transfer_faults[(label, attempt)]
        return super().transfer_fault(entity, label, attempt, context)

    def task_crash(
        self, tid: int, mb_index: int, attempt: int, context: tuple = ()
    ) -> Optional[Crash]:
        if (tid, mb_index, attempt) in self.crashes:
            return Crash(fraction=self.crashes[(tid, mb_index, attempt)])
        return super().task_crash(tid, mb_index, attempt, context)

    def gpu_slowdown(self, device: int) -> tuple[float, bool]:
        if device in self.slowdowns:
            return self.slowdowns[device]
        return super().gpu_slowdown(device)

    def gpu_slowdown_at(self, device: int, iteration: int) -> tuple[float, bool]:
        if device in self.slowdowns_at:
            onset, factor, persistent = self.slowdowns_at[device]
            if iteration >= onset:
                return factor, persistent
            return 1.0, False
        return super().gpu_slowdown_at(device, iteration)

    def gpu_loss(self, device: int) -> Optional[int]:
        if device in self.losses:
            return self.losses[device]
        return super().gpu_loss(device)
