"""Link-layer fault surfaces: aborted transfers and lazy degradation."""

import pytest

from repro.common.errors import SimulationError, TransferFaultError
from repro.sim.links import Link, Route, TransferFault, transfer


def _run(sim, gen):
    result = []

    def proc():
        try:
            yield from gen
        except TransferFaultError as exc:
            result.append(exc)

    sim.process(proc())
    sim.run()
    return result


class TestTransferFault:
    def test_abort_counts_busy_time_not_bytes(self, sim):
        link = Link(sim, "hop", bandwidth=100.0)
        fault = TransferFault(error=TransferFaultError("abort"), fraction=0.5)
        caught = _run(sim, transfer(sim, Route([link]), 100, fault=fault))
        assert len(caught) == 1
        assert link.bytes_moved == 0          # goodput: nothing arrived
        assert link.busy_time == pytest.approx(0.5)  # contention was real
        assert sim.now == pytest.approx(0.5)

    def test_clean_transfer_unchanged(self, sim):
        link = Link(sim, "hop", bandwidth=100.0)
        assert not _run(sim, transfer(sim, Route([link]), 100))
        assert link.bytes_moved == 100
        assert link.busy_time == pytest.approx(1.0)

    def test_fault_releases_the_links(self, sim):
        link = Link(sim, "hop", bandwidth=100.0)
        fault = TransferFault(error=TransferFaultError("abort"), fraction=0.5)
        caught = _run(sim, transfer(sim, Route([link]), 100, fault=fault))
        assert caught
        # A second transfer reuses the link without waiting forever.
        assert not _run(sim, transfer(sim, Route([link]), 100))
        assert link.bytes_moved == 100

    def test_zero_byte_faulted_transfer_still_raises(self, sim):
        fault = TransferFault(error=TransferFaultError("abort"))
        assert _run(sim, transfer(sim, Route([]), 0, fault=fault))

    def test_fraction_validation(self):
        with pytest.raises(SimulationError):
            TransferFault(error=TransferFaultError("x"), fraction=1.5)


class TestDegradation:
    def test_degraded_bandwidth_slows_transfer(self, sim):
        link = Link(sim, "hop", bandwidth=100.0)
        link.degradation = lambda now: 0.5
        assert not _run(sim, transfer(sim, Route([link]), 100))
        assert sim.now == pytest.approx(2.0)  # half bandwidth, double time

    def test_degradation_sampled_at_acquire_time(self, sim):
        link = Link(sim, "hop", bandwidth=100.0)
        # Degraded only from t=1: a transfer starting at t=0 is clean.
        link.degradation = lambda now: 0.25 if now >= 1.0 else 1.0

        def proc():
            yield from transfer(sim, Route([link]), 100)       # t in [0, 1)
            yield from transfer(sim, Route([link]), 100)       # starts at t=1, 4x
        sim.process(proc())
        sim.run()
        assert sim.now == pytest.approx(1.0 + 4.0)

    def test_path_rate_is_min_effective_bandwidth(self, sim):
        fast = Link(sim, "fast", bandwidth=400.0)
        slow = Link(sim, "slow", bandwidth=200.0)
        fast.degradation = lambda now: 0.25  # effective 100 -> new bottleneck
        assert not _run(sim, transfer(sim, Route([fast, slow]), 100))
        assert sim.now == pytest.approx(1.0)

    @pytest.mark.parametrize("factor", [0.0, -0.5, 1.5])
    def test_invalid_factor_rejected(self, sim, factor):
        link = Link(sim, "hop", bandwidth=100.0)
        link.degradation = lambda now: factor
        with pytest.raises(SimulationError, match="degradation factor"):
            link.effective_bandwidth(0.0)

    def test_no_degradation_no_overhead(self, sim):
        link = Link(sim, "hop", bandwidth=100.0)
        assert link.effective_bandwidth(123.0) == 100.0
