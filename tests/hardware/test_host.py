"""Tests for the host model."""

import pytest

from repro.common.units import GiB
from repro.hardware.host import COMMODITY_XEON_18C, COMMODITY_XEON_36C


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

