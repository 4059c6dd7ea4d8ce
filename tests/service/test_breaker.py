"""The circuit breaker's state machine and cooldown monotonicity.

The storm acceptance criterion "monotonically non-increasing flap rate"
reduces to: consecutive trips without a full close use non-decreasing
open intervals.  These tests pin that, plus the single-probe HALF_OPEN
discipline and the level reset on a genuine recovery.
"""

import pytest

from repro.service.breaker import (
    DEFAULT_COOLDOWN,
    BreakerState,
    CircuitBreaker,
)


def _tripped(threshold=3, now=0.0):
    breaker = CircuitBreaker(threshold=threshold)
    for _ in range(threshold):
        breaker.record_failure(now)
    return breaker


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(0.0)

    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3)
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(2.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 1

    def test_success_clears_the_failure_streak(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure(0.0)
        breaker.record_success(1.0)
        breaker.record_failure(2.0)
        assert breaker.state is BreakerState.CLOSED

    def test_open_refuses_until_cooldown_expires(self):
        breaker = _tripped()
        interval = breaker.open_intervals[0]
        assert not breaker.allow(0.0)
        assert not breaker.allow(interval / 2)
        assert breaker.allow(interval)  # -> HALF_OPEN probe
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_admits_exactly_one_probe(self):
        breaker = _tripped()
        expiry = breaker.open_intervals[0]
        assert breaker.allow(expiry)
        assert not breaker.allow(expiry)
        assert not breaker.allow(expiry + 1.0)

    def test_probe_success_closes_and_releases(self):
        breaker = _tripped()
        expiry = breaker.open_intervals[0]
        assert breaker.allow(expiry)
        breaker.record_success(expiry + 1.0)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(expiry + 2.0)
        assert breaker.flaps == 0

    def test_probe_failure_is_a_flap_and_reopens(self):
        breaker = _tripped()
        expiry = breaker.open_intervals[0]
        assert breaker.allow(expiry)
        breaker.record_failure(expiry + 1.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.flaps == 1
        assert breaker.trips == 2

    def test_failures_while_open_are_ignored(self):
        breaker = _tripped()
        breaker.record_failure(0.5)
        assert breaker.trips == 1

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)


class TestCooldownMonotonicity:
    def test_open_intervals_non_decreasing_under_sustained_failure(self):
        """The acceptance criterion: while the fault persists, each
        re-open waits at least as long as the previous one."""
        breaker = CircuitBreaker(threshold=1)
        now = 0.0
        for _ in range(10):
            breaker.record_failure(now)        # trip (or probe-fail)
            now += breaker.open_intervals[-1]
            assert breaker.allow(now)          # the HALF_OPEN probe
        intervals = breaker.open_intervals
        assert len(intervals) == 10
        assert all(a <= b for a, b in zip(intervals, intervals[1:]))

    def test_cooldown_schedule_is_the_shared_backoff(self):
        breaker = CircuitBreaker(threshold=1)
        levels = DEFAULT_COOLDOWN.max_retries + 2
        now = 0.0
        for _ in range(levels):
            breaker.record_failure(now)
            now += breaker.open_intervals[-1]
            assert breaker.allow(now)
        assert breaker.open_intervals == [
            DEFAULT_COOLDOWN.delay(min(level, DEFAULT_COOLDOWN.max_retries),
                                   "breaker", "planner")
            for level in range(levels)
        ]
        assert breaker.open_intervals[:2] == [4.0, 8.0]

    def test_cap_bounds_deep_levels(self):
        breaker = CircuitBreaker(threshold=1)  # default cap 120s
        now = 0.0
        for _ in range(12):
            breaker.record_failure(now)
            now += breaker.open_intervals[-1]
            breaker.allow(now)
        assert max(breaker.open_intervals) == 120.0

    def test_full_close_resets_the_level(self):
        breaker = CircuitBreaker(threshold=1)
        breaker.record_failure(0.0)
        first = breaker.open_intervals[0]
        now = first
        assert breaker.allow(now)
        breaker.record_success(now)            # genuine recovery
        breaker.record_failure(now + 1.0)      # a fresh, unrelated trip
        assert breaker.open_intervals[-1] == first

    def test_transitions_recorded_in_order(self):
        breaker = _tripped()
        expiry = breaker.open_intervals[0]
        breaker.allow(expiry)
        breaker.record_success(expiry)
        states = [s for _, s in breaker.transitions]
        assert states == ["open", "half_open", "closed"]
