"""Tests for the host model."""

import pytest

from repro.common.errors import HostOutOfMemoryError
from repro.common.units import GiB
from repro.hardware.host import COMMODITY_XEON_18C, COMMODITY_XEON_36C, HostMemoryPool


class TestHostSpec:
    def test_paper_testbeds(self):
        assert COMMODITY_XEON_18C.cores == 18
        assert COMMODITY_XEON_18C.memory_bytes == 374 * GiB
        assert COMMODITY_XEON_36C.cores == 36
        assert COMMODITY_XEON_36C.memory_bytes == 750 * GiB

    def test_optimizer_time_scales_with_cores(self):
        full = COMMODITY_XEON_18C.optimizer_time(1e10)
        quarter = COMMODITY_XEON_18C.optimizer_time(1e10, cores_used=4)
        assert quarter > full

    def test_cores_used_capped_at_socket(self):
        capped = COMMODITY_XEON_18C.optimizer_time(1e10, cores_used=100)
        assert capped == COMMODITY_XEON_18C.optimizer_time(1e10)

    def test_zero_cores_rejected(self):
        with pytest.raises(ValueError):
            COMMODITY_XEON_18C.optimizer_time(1e10, cores_used=0)


class TestHostMemoryPool:
    def test_alloc_and_free(self):
        pool = HostMemoryPool(capacity=1000)
        pool.alloc(700)
        pool.free(200)
        assert pool.used == 500
        assert pool.available == 500

    def test_exhaustion_raises(self):
        pool = HostMemoryPool(capacity=1000)
        with pytest.raises(HostOutOfMemoryError):
            pool.alloc(1001)

    def test_high_water(self):
        pool = HostMemoryPool(capacity=1000)
        pool.alloc(900)
        pool.free(900)
        assert pool.high_water == 900

    def test_bad_free_raises(self):
        pool = HostMemoryPool(capacity=1000)
        with pytest.raises(HostOutOfMemoryError):
            pool.free(1)
