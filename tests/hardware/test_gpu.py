"""Tests for the GPU device model."""

import pytest

from repro.common.units import GiB
from repro.hardware.gpu import GTX_1080TI, GpuSpec


class TestGpuSpec:
    def test_1080ti_matches_paper(self):
        assert GTX_1080TI.memory_bytes == 11 * GiB
        assert GTX_1080TI.peak_flops == pytest.approx(11.34e12)

    def test_sustained_below_peak(self):
        assert GTX_1080TI.sustained_flops < GTX_1080TI.peak_flops

    def test_compute_time_scales_linearly(self):
        one = GTX_1080TI.compute_time(1e12)
        two = GTX_1080TI.compute_time(2e12)
        assert two == pytest.approx(2 * one)

    def test_negative_flops_rejected(self):
        with pytest.raises(ValueError):
            GTX_1080TI.compute_time(-1.0)

    def test_custom_efficiency(self):
        gpu = GpuSpec(name="x", memory_bytes=GiB, peak_flops=1e12, efficiency=0.5)
        assert gpu.sustained_flops == pytest.approx(5e11)

