"""Tests for the LRU swap manager (the LMS stand-in)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import GpuOutOfMemoryError
from repro.memory.swap_manager import LruSwapManager


class TestBasics:
    def test_first_touch_is_miss(self):
        manager = LruSwapManager(capacity=100)
        decision = manager.touch("a", 40)
        assert not decision.hit
        assert decision.swap_in_bytes == 40

    def test_second_touch_is_hit(self):
        manager = LruSwapManager(capacity=100)
        manager.touch("a", 40)
        decision = manager.touch("a", 40)
        assert decision.hit
        assert decision.swap_in_bytes == 0

    def test_oversized_tensor_rejected(self):
        manager = LruSwapManager(capacity=100)
        with pytest.raises(GpuOutOfMemoryError):
            manager.touch("huge", 101)

    def test_capacity_positive(self):
        with pytest.raises(GpuOutOfMemoryError):
            LruSwapManager(capacity=0)


class TestEviction:
    def test_lru_victim_chosen(self):
        manager = LruSwapManager(capacity=100)
        manager.touch("a", 50)
        manager.touch("b", 50)
        manager.touch("a", 50)       # refresh a
        decision = manager.touch("c", 50)
        assert decision.evicted == ("b",)

    def test_dirty_eviction_writes_back(self):
        manager = LruSwapManager(capacity=100)
        manager.touch("a", 60, write=True)
        decision = manager.touch("b", 60)
        assert decision.swap_out_bytes == 60

    def test_lms_mode_writes_back_clean(self):
        manager = LruSwapManager(capacity=100)
        manager.touch("a", 60)
        decision = manager.touch("b", 60)
        assert decision.swap_out_bytes == 60


class TestProduceDropFlush:
    def test_produce_costs_no_swap_in(self):
        manager = LruSwapManager(capacity=100)
        decision = manager.produce("act", 80)
        assert decision.swap_in_bytes == 0
        assert manager.resident("act")

    def test_drop_is_free(self):
        manager = LruSwapManager(capacity=100)
        manager.produce("act", 80)
        manager.discard("act")
        assert not manager.resident("act")
        assert manager.used == 0

    def test_flush_writes_dirty_once(self):
        manager = LruSwapManager(capacity=100)
        manager.produce("grad", 30)
        assert manager.flush("grad") == 30
        assert manager.flush("grad") == 0

    def test_repaper_dp_swap_weight_volume(self):
        """The paper's (4m+2)|W| per GPU: weights thrash when the stash
        displaces them each microbatch."""
        n_layers, w = 10, 10
        capacity = n_layers * w + 5  # weights barely fit; stash evicts them
        manager = LruSwapManager(capacity)
        m = 4
        for mb in range(m):  # forward
            for layer in range(n_layers):
                manager.touch(f"W{layer}", w)
                manager.produce(f"stash{layer}:{mb}", w)
        for mb in reversed(range(m)):  # backward
            for layer in reversed(range(n_layers)):
                manager.touch(f"W{layer}", w)
                manager.touch(f"stash{layer}:{mb}", w)
                manager.discard(f"stash{layer}:{mb}")
        for layer in range(n_layers):  # update
            manager.touch(f"W{layer}", w, write=True)
            manager.flush(f"W{layer}")
        weights = n_layers * w
        # Within 25% of the analytic (4m+2)|W| swap-in volume (stash
        # traffic makes it slightly larger).
        expected = (2 * m + 1) * weights  # swap-ins: 2m passes + update
        assert manager.total_swap_in >= expected * 0.75


class TestInvariants:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 9), st.booleans()),
                    min_size=1, max_size=60))
    def test_used_never_exceeds_capacity(self, touches):
        manager = LruSwapManager(capacity=50)
        for key, write in touches:
            manager.touch(f"t{key}", 10, write=write)
            assert 0 <= manager.used <= 50

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=40))
    def test_hits_plus_misses_equals_touches(self, keys):
        manager = LruSwapManager(capacity=30)
        for key in keys:
            manager.touch(f"t{key}", 10)
        assert manager.hits + manager.misses == len(keys)
