"""Service-level chaos: seeded faults against the planning daemon.

The service-layer family of :mod:`repro.common.chaos`: a frozen spec of
*rates*, bound to a seed, answering every "does this go wrong?"
question with a stateless draw keyed on
``(seed, kind, request id, attempt)`` -- order-independent, so a chaos
storm is bit-reproducible from its seed no matter how the simulator
interleaves workers.

Three service fault classes:

- **slow planner** -- a planning attempt takes ``slow_factor`` times its
  nominal virtual cost (GC pause, noisy neighbor on the planner host);
  drawn per attempt, so retries may escape it;
- **crashed planner** -- a planning attempt dies after its work was
  spent (worker OOM, segfault); retried with backoff until the budget
  or deadline runs out;
- **poisoned request** -- the request itself is malformed in a way only
  planning-time validation catches; resolves FAILED with a typed reason
  and, crucially, does *not* count against the circuit breaker (a bad
  request is the client's fault, not the planner's).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.common.chaos import ChaosPlan, ChaosSpec, Scripted, multiplier, rate


@dataclass(frozen=True)
class ServiceChaosSpec(ChaosSpec):
    """Rates and magnitudes for service-level faults.  Rates in [0, 1]."""

    #: probability one planning attempt runs slow
    slow_rate: float = rate()
    #: virtual-cost multiplier of a slow attempt
    slow_factor: float = multiplier(4.0)
    #: probability one planning attempt crashes after doing its work
    crash_rate: float = rate()
    #: probability a request is poisoned (malformed payload)
    poison_rate: float = rate()

    @classmethod
    def chaos(cls, intensity: float = 1.0) -> "ServiceChaosSpec":
        """The standard service chaos mix, scaled like
        :meth:`repro.faults.plan.FaultSpec.chaos`."""
        clamp = cls.scaled(intensity)
        return cls(
            slow_rate=clamp(0.15),
            slow_factor=1.0 + 3.0 * max(intensity, 0.1),
            crash_rate=clamp(0.10),
            poison_rate=clamp(0.02),
        )

    def describe(self) -> str:
        if not self.any_enabled:
            return "ServiceChaosSpec(off)"
        return (
            f"ServiceChaosSpec(slow={self.slow_rate:g}"
            f"x{self.slow_factor:g}, crash={self.crash_rate:g}, "
            f"poison={self.poison_rate:g})"
        )


class ServiceFaultPlan(ChaosPlan[ServiceChaosSpec]):
    """Seeded oracle for service fault decisions (stateless draws)."""

    def __init__(self, spec: Optional[ServiceChaosSpec] = None,
                 seed: int = 0):
        super().__init__(spec if spec is not None else ServiceChaosSpec(),
                         seed=seed)

    def poisoned(self, rid: int) -> bool:
        """Is request ``rid`` malformed?  A per-request property."""
        return self.hit(self.spec.poison_rate, "svc-poison", rid)

    def slowdown(self, rid: int, attempt: int) -> float:
        """Virtual-cost multiplier for planning attempt ``attempt``."""
        return self.scale(self.spec.slow_rate, self.spec.slow_factor,
                          "svc-slow", rid, attempt)

    def crash(self, rid: int, attempt: int) -> bool:
        """Does planning attempt ``attempt`` of ``rid`` crash?"""
        return self.hit(self.spec.crash_rate, "svc-crash", rid, attempt)


class ScriptedServiceFaultPlan(Scripted, ServiceFaultPlan):
    """Explicitly scripted service faults (for tests).

    ``poisoned_rids`` poisons those requests; ``crashes`` maps
    ``rid -> n`` (the first ``n`` attempts crash; ``-1`` = every
    attempt); ``slowdowns`` maps ``rid -> factor`` applied to every
    attempt.  Anything unscripted falls through to the seeded spec.
    """

    def __init__(self, poisoned_rids: Iterable[int] = (),
                 crashes: Optional[dict[int, int]] = None,
                 slowdowns: Optional[dict[int, float]] = None,
                 spec: Optional[ServiceChaosSpec] = None, seed: int = 0):
        super().__init__(spec, seed=seed)
        self.poisoned_rids = frozenset(poisoned_rids)
        self.crashes = dict(crashes or {})
        self.slowdowns = dict(slowdowns or {})

    def poisoned(self, rid: int) -> bool:
        if rid in self.poisoned_rids:
            return True
        return super().poisoned(rid)

    def slowdown(self, rid: int, attempt: int) -> float:
        if rid in self.slowdowns:
            return self.slowdowns[rid]
        return super().slowdown(rid, attempt)

    def crash(self, rid: int, attempt: int) -> bool:
        if rid in self.crashes:
            budget = self.crashes[rid]
            return budget < 0 or attempt < budget
        return super().crash(rid, attempt)
