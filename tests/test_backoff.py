"""The centralized retry/backoff policy (``repro.common.backoff``).

The extraction's contract is *bit-identity*: with the default
``jitter=0``, the executor's transfer retries must wait exactly the
historical ``base * factor ** attempt``.  Jitter, when enabled, must be
seeded, bounded and label-scoped -- a reproducible decorrelator, not a
randomness leak.
"""

import pytest

from repro.common.backoff import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_BACKOFF_FACTOR,
    DEFAULT_TRANSFER_RETRIES,
    BackoffPolicy,
    exponential,
)


class TestExponential:
    def test_exact_formula(self):
        for attempt in range(6):
            assert exponential(attempt, 0.002, 2.0) == 0.002 * 2.0 ** attempt

    def test_default_factor(self):
        assert exponential(3, 0.5) == 0.5 * DEFAULT_BACKOFF_FACTOR ** 3


class TestBitIdentityPins:
    """The historical executor schedule, pinned value by value."""

    def test_defaults_match_historical_constants(self):
        assert DEFAULT_TRANSFER_RETRIES == 3
        assert DEFAULT_BACKOFF_BASE == 0.002
        assert DEFAULT_BACKOFF_FACTOR == 2.0

    def test_default_policy_delay_is_exact_exponential(self):
        policy = BackoffPolicy()
        for attempt in range(8):
            assert policy.delay(attempt) == 0.002 * 2.0 ** attempt

    def test_labels_do_not_change_unjittered_delay(self):
        policy = BackoffPolicy()
        assert policy.delay(2, "dev0", "swap_in") == policy.delay(2)

    def test_recovery_policy_backoff_is_bit_identical(self):
        """The executor's transfer-retry waits == the pre-extraction
        inline formula."""
        for attempt in range(DEFAULT_TRANSFER_RETRIES + 1):
            assert exponential(attempt, DEFAULT_BACKOFF_BASE) \
                == 0.002 * 2.0 ** attempt


class TestExhausted:
    def test_budget_boundary(self):
        policy = BackoffPolicy(max_retries=3)
        assert not policy.exhausted(2)
        assert policy.exhausted(3)
        assert policy.exhausted(4)

    def test_zero_budget_always_exhausted(self):
        assert BackoffPolicy(max_retries=0).exhausted(0)


class TestJitter:
    def test_jitter_bounded(self):
        policy = BackoffPolicy(jitter=0.5, seed=7)
        for attempt in range(5):
            base = exponential(attempt, policy.base, policy.factor)
            delay = policy.delay(attempt, "req", attempt)
            assert 0.5 * base <= delay <= 1.5 * base
            assert delay != base or attempt < 0  # swing is never exactly 0

    def test_jitter_deterministic(self):
        a = BackoffPolicy(jitter=0.3, seed=42)
        b = BackoffPolicy(jitter=0.3, seed=42)
        assert [a.delay(i, "x") for i in range(4)] == \
               [b.delay(i, "x") for i in range(4)]

    def test_jitter_label_scoped(self):
        policy = BackoffPolicy(jitter=0.3, seed=42)
        assert policy.delay(1, "req0") != policy.delay(1, "req1")

    def test_jitter_seed_scoped(self):
        assert BackoffPolicy(jitter=0.3, seed=1).delay(1, "r") != \
               BackoffPolicy(jitter=0.3, seed=2).delay(1, "r")


class TestCap:
    def test_cap_bounds_deep_attempts(self):
        policy = BackoffPolicy(base=1.0, factor=2.0, cap=5.0)
        assert policy.delay(0) == 1.0
        assert policy.delay(2) == 4.0
        assert policy.delay(3) == 5.0
        assert policy.delay(10) == 5.0

    def test_zero_cap_means_uncapped(self):
        assert BackoffPolicy(base=1.0, factor=2.0).delay(10) == 1024.0


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"base": -0.1},
        {"factor": 0.9},
        {"jitter": -0.1},
        {"jitter": 1.0},
        {"cap": -1.0},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            BackoffPolicy(**kwargs)
