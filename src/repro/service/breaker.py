"""Circuit breaker around the planner/search path.

Classic three-state machine, driven entirely by the caller's virtual
clock (no wall time anywhere):

- **CLOSED** -- requests flow; ``threshold`` *consecutive* failures trip
  the breaker;
- **OPEN** -- fresh planning is refused (callers fall down the
  degradation ladder) until the cooldown expires;
- **HALF_OPEN** -- exactly one probe attempt is admitted; success closes
  the breaker, failure re-opens it (*a flap*) with a longer cooldown.

Cooldowns come from the shared
:class:`repro.common.backoff.BackoffPolicy`: each consecutive trip
without an intervening close uses the next exponent, so open intervals
are **non-decreasing** while the fault persists -- the breaker flaps at
a monotonically non-increasing rate, which the storm acceptance test
asserts via :attr:`open_intervals`.
"""

from __future__ import annotations

import enum

from repro.common.backoff import BackoffPolicy

#: Cooldown schedule: 4s, 8s, ... capped at 120s virtual.
DEFAULT_COOLDOWN = BackoffPolicy(max_retries=6, base=4.0, factor=2.0,
                                 cap=120.0)


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Failure-counting breaker with exponentially growing cooldowns."""

    def __init__(self, threshold: int = 3, name: str = "planner"):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.name = name
        self.state = BreakerState.CLOSED
        self._failures = 0        # consecutive failures while CLOSED
        self._level = 0           # consecutive trips without a full close
        self._open_until = 0.0
        self._probing = False     # a HALF_OPEN probe is in flight
        #: lifetime counters / histories (tests pin monotonicity on these)
        self.trips = 0
        self.flaps = 0
        self.open_intervals: list[float] = []
        self.transitions: list[tuple[float, str]] = []

    # -- queries -----------------------------------------------------------------

    def allow(self, now: float) -> bool:
        """May a fresh planning attempt start at virtual time ``now``?

        In OPEN state an expired cooldown moves to HALF_OPEN; the first
        ``allow`` in HALF_OPEN admits the single probe and subsequent
        calls refuse until the probe reports back.
        """
        if self.state is BreakerState.OPEN:
            if now < self._open_until:
                return False
            self._move(BreakerState.HALF_OPEN, now)
        if self.state is BreakerState.HALF_OPEN:
            if self._probing:
                return False
            self._probing = True
            return True
        return True

    # -- reports -----------------------------------------------------------------

    def record_success(self, now: float) -> None:
        """A planning attempt finished cleanly."""
        self._failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self._probing = False
            self._level = 0  # a full close resets the cooldown schedule
            self._move(BreakerState.CLOSED, now)

    def record_failure(self, now: float) -> None:
        """A planning attempt failed or timed out terminally."""
        if self.state is BreakerState.HALF_OPEN:
            # The probe failed: re-open with the next (longer) cooldown.
            self._probing = False
            self.flaps += 1
            self._trip(now)
            return
        if self.state is BreakerState.CLOSED:
            self._failures += 1
            if self._failures >= self.threshold:
                self._trip(now)
        # OPEN: callers should not be attempting; ignore defensively.

    # -- internals ---------------------------------------------------------------

    def _trip(self, now: float) -> None:
        self.trips += 1
        exponent = min(self._level, DEFAULT_COOLDOWN.max_retries)
        interval = DEFAULT_COOLDOWN.delay(exponent, "breaker", self.name)
        self._level += 1
        self._failures = 0
        self._open_until = now + interval
        self.open_intervals.append(interval)
        self._move(BreakerState.OPEN, now)

    def _move(self, state: BreakerState, now: float) -> None:
        self.state = state
        self.transitions.append((now, state.value))

    def describe(self) -> str:
        return (
            f"breaker[{self.name}] {self.state.value}: "
            f"{self.trips} trip(s), {self.flaps} flap(s), "
            f"level {self._level}"
        )
