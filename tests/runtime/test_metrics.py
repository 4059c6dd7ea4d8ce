"""RunMetrics / GpuMetrics / RecoveryMetrics unit behavior.

Covers the degenerate-run edge cases (zero-duration iterations must
yield finite ratios, not ZeroDivisionError) and the recovery-counter
arithmetic the fault-tolerant runner relies on.
"""

from dataclasses import fields

import pytest

from repro.runtime.metrics import (
    ClusterMetrics,
    ElasticMetrics,
    GpuMetrics,
    RecoveryMetrics,
    RunMetrics,
)


def _run(iteration_time, minibatch=8, gpus=1, **gpu_kwargs):
    return RunMetrics(
        mode="test", minibatch=minibatch, iteration_time=iteration_time,
        gpus=[GpuMetrics(**gpu_kwargs) for _ in range(gpus)],
    )


class TestZeroDurationEdgeCases:
    def test_throughput_zero_not_error(self):
        assert _run(0.0).throughput == 0.0
        assert _run(-1.0).throughput == 0.0

    def test_idle_fraction_zero_not_error(self):
        assert _run(0.0, compute_busy=1.0).idle_fraction(0) == 0.0

    def test_describe_survives_degenerate_run(self):
        text = _run(0.0).describe()
        assert "0.00 samples/s" in text
        assert "idle 0%" in text

    def test_positive_duration_unaffected(self):
        metrics = _run(2.0, minibatch=8, compute_busy=1.0)
        assert metrics.throughput == pytest.approx(4.0)
        assert metrics.idle_fraction(0) == pytest.approx(0.5)

    def test_idle_fraction_clamped_at_zero(self):
        # Busy time can exceed wall time when retried attempts re-run
        # kernels; idle must clamp at 0, never go negative.
        assert _run(1.0, compute_busy=1.5).idle_fraction(0) == 0.0


class TestGpuMetricsAccumulate:
    def test_counters_sum_peaks_max(self):
        a = GpuMetrics(swap_in_bytes=10, swap_out_bytes=1, p2p_in_bytes=5,
                       compute_busy=1.0, cpu_busy=0.5,
                       peak_resident_bytes=100)
        b = GpuMetrics(swap_in_bytes=20, swap_out_bytes=2, p2p_in_bytes=7,
                       compute_busy=2.0, cpu_busy=0.25,
                       peak_resident_bytes=50)
        a.accumulate(b)
        assert a.swap_in_bytes == 30
        assert a.swap_out_bytes == 3
        assert a.p2p_in_bytes == 12
        assert a.compute_busy == pytest.approx(3.0)
        assert a.cpu_busy == pytest.approx(0.75)
        assert a.peak_resident_bytes == 100  # max, not sum

    def test_swap_bytes_property(self):
        assert GpuMetrics(swap_in_bytes=3, swap_out_bytes=4).swap_bytes == 7


@pytest.mark.parametrize(
    "cls", [GpuMetrics, RecoveryMetrics, ElasticMetrics, ClusterMetrics],
)
def test_accumulate_folds_every_field(cls):
    """Every field sums (the peak maxes): a field added later cannot be
    silently dropped from the fold."""
    names = [f.name for f in fields(cls)]

    def distinct(base):
        return cls(**{
            f.name: type(f.default)(base + i)
            for i, f in enumerate(fields(cls))
        })

    for a_base, b_base in ((1, 1000), (1000, 1)):
        a, b = distinct(a_base), distinct(b_base)
        before = {name: getattr(a, name) for name in names}
        a.accumulate(b)
        for name in names:
            expected = (max if name == "peak_resident_bytes" else sum)(
                (before[name], getattr(b, name))
            )
            assert getattr(a, name) == expected, name
            assert type(getattr(a, name)) is type(before[name]), name


class TestRecoveryMetrics:
    def test_fresh_counters_report_nothing(self):
        recovery = RecoveryMetrics()
        assert not recovery.any
        assert recovery.total_actions == 0

    def test_any_tracks_injections_without_actions(self):
        assert RecoveryMetrics(faults_injected=3).any
        assert RecoveryMetrics(transfer_retries=1).any

    def test_accumulate_sums_everything(self):
        a = RecoveryMetrics(transfer_retries=1, compute_retries=2,
                            p2p_fallbacks=1, fallback_bytes=100, rebinds=1,
                            restarts=1, faults_injected=9, faults_fatal=1)
        a.accumulate(RecoveryMetrics(transfer_retries=2, fallback_bytes=50,
                                     faults_injected=3))
        assert a.transfer_retries == 3
        assert a.fallback_bytes == 150
        assert a.faults_injected == 12
        assert a.total_actions == 3 + 2 + 1 + 1 + 1

    def test_describe_mentions_all_mechanisms(self):
        text = RecoveryMetrics(transfer_retries=4, p2p_fallbacks=2,
                               fallback_bytes=2**20, rebinds=1,
                               restarts=3, faults_injected=10,
                               faults_fatal=3).describe()
        for fragment in ("4 transfer retries", "2 p2p->swap fallbacks",
                         "1.00 MiB", "1 rebinds", "3 restarts",
                         "10 injected", "3 fatal"):
            assert fragment in text

    def test_run_describe_gates_recovery_line(self):
        quiet = _run(1.0)
        assert "recovery" not in quiet.describe()
        loud = _run(1.0)
        loud.recovery.transfer_retries = 1
        assert "recovery" in loud.describe()
