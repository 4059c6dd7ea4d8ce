"""Centralized retry/backoff policy: one formula for every retry loop.

Two subsystems retry: the runtime executor's transfer-retry loop and the
planning service (planner attempts, circuit-breaker cooldowns).  This
module is the single source of the formula:

- :func:`exponential` -- the deterministic schedule
  ``base * factor ** attempt``; the executor retries a faulted transfer
  up to :data:`DEFAULT_TRANSFER_RETRIES` times, waiting
  ``exponential(attempt, DEFAULT_BACKOFF_BASE)`` before each retry
  (regression-pinned by the golden traces);
- :class:`BackoffPolicy` -- the frozen, validated policy object: base,
  factor, cap, retry budget, and *seeded jitter*.  Jitter decorrelates
  retry storms (every queued request retrying at the same instant is
  exactly the thundering herd the service must not produce), but it is
  derived from :mod:`repro.common.rng`'s stateless hash draws -- a
  ``(seed, labels, attempt)`` tuple always yields the same delay, so a
  jittered run is still reproducible from its seed alone.  With
  ``jitter=0`` the delay is *exactly* :func:`exponential`'s value.

Kept free of package imports beyond :mod:`repro.common.rng` so the
executor and the service can both use it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.rng import spread

__all__ = [
    "DEFAULT_TRANSFER_RETRIES",
    "DEFAULT_BACKOFF_BASE",
    "DEFAULT_BACKOFF_FACTOR",
    "exponential",
    "BackoffPolicy",
]

#: The executor's transfer-retry budget and backoff schedule.
DEFAULT_TRANSFER_RETRIES = 3
DEFAULT_BACKOFF_BASE = 0.002
DEFAULT_BACKOFF_FACTOR = 2.0


def exponential(attempt: int, base: float,
                factor: float = DEFAULT_BACKOFF_FACTOR) -> float:
    """Deterministic backoff before retry ``attempt + 1`` (0-indexed).

    Exactly ``base * factor ** attempt`` -- the formula the runtime
    executor has used since the fault subsystem landed; the golden-trace
    suite pins its values, so this function must never change shape.
    """
    return base * factor ** attempt


@dataclass(frozen=True)
class BackoffPolicy:
    """A retry budget plus its (optionally jittered) delay schedule.

    ``delay(attempt, *labels)`` is the virtual-time wait before retry
    ``attempt + 1``.  With ``jitter == 0`` it equals
    :func:`exponential` bit-for-bit.  With ``jitter > 0`` the
    deterministic delay is scaled by a seeded factor in
    ``[1 - jitter, 1 + jitter)`` drawn statelessly from
    ``(seed, "backoff", *labels, attempt)`` -- order-independent and
    reproducible, like every other draw in the package.  ``cap``
    bounds the delay (0 = uncapped) so a deep retry chain cannot wait
    past any deadline budget.
    """

    max_retries: int = DEFAULT_TRANSFER_RETRIES
    base: float = DEFAULT_BACKOFF_BASE
    factor: float = DEFAULT_BACKOFF_FACTOR
    jitter: float = 0.0
    cap: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base < 0:
            raise ValueError("base must be >= 0")
        if self.factor < 1.0:
            raise ValueError("factor must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.cap < 0:
            raise ValueError("cap must be >= 0")

    def exhausted(self, attempt: int) -> bool:
        """True when retry ``attempt`` is past the budget (0-indexed)."""
        return attempt >= self.max_retries

    def delay(self, attempt: int, *labels: object) -> float:
        """Virtual seconds to wait before retry ``attempt + 1``.

        ``labels`` scope the jitter draw (request id, device, stream --
        whatever identifies the retrying actor) so concurrent retriers
        decorrelate instead of marching in lockstep.
        """
        value = exponential(attempt, self.base, self.factor)
        if self.jitter > 0.0:
            swing = spread(self.seed, "backoff", *labels, attempt)
            value *= 1.0 + self.jitter * swing
        if self.cap > 0.0:
            value = min(value, self.cap)
        return value
