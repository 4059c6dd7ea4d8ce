"""Tests for bandwidth-arbitrated links and path transfers."""

import math

import pytest

from repro.common.errors import SimulationError
from repro.sim.links import Link, Route, transfer


def run_transfer(sim, path, nbytes):
    return sim.process(transfer(sim, Route(path), nbytes))


class TestSingleLink:
    def test_duration_is_bytes_over_bandwidth(self, sim):
        link = Link(sim, "l", bandwidth=100.0)
        run_transfer(sim, [link], 250)
        sim.run()
        assert sim.now == pytest.approx(2.5)

    def test_serializes_fifo(self, sim):
        link = Link(sim, "l", bandwidth=100.0)
        first = run_transfer(sim, [link], 100)
        second = run_transfer(sim, [link], 100)
        sim.run()
        assert sim.now == pytest.approx(2.0)
        assert first.fired and second.fired

    def test_accounting(self, sim):
        link = Link(sim, "l", bandwidth=100.0)
        run_transfer(sim, [link], 300)
        sim.run()
        assert link.bytes_moved == 300
        assert link.busy_time == pytest.approx(3.0)

    def test_zero_bytes_is_free(self, sim):
        link = Link(sim, "l", bandwidth=100.0)
        run_transfer(sim, [link], 0)
        sim.run()
        assert sim.now == 0.0
        assert link.bytes_moved == 0

    def test_negative_bytes_rejected(self, sim):
        link = Link(sim, "l", bandwidth=100.0)
        run_transfer(sim, [link], -5)
        with pytest.raises(SimulationError):
            sim.run()

    def test_bad_bandwidth_rejected(self, sim):
        with pytest.raises(SimulationError):
            Link(sim, "l", bandwidth=0.0)

    def test_nan_bandwidth_or_latency_rejected(self, sim):
        with pytest.raises(SimulationError, match="bandwidth"):
            Link(sim, "l", bandwidth=math.nan)
        with pytest.raises(SimulationError, match="latency"):
            Link(sim, "l", bandwidth=100.0, latency=math.nan)


class TestPaths:
    def test_min_bandwidth_governs(self, sim):
        fast = Link(sim, "fast", bandwidth=1000.0)
        slow = Link(sim, "slow", bandwidth=100.0)
        run_transfer(sim, [fast, slow], 100)
        sim.run()
        assert sim.now == pytest.approx(1.0)

    def test_shared_hop_serializes_distinct_paths(self, sim):
        shared = Link(sim, "up", bandwidth=100.0)
        leaf_a = Link(sim, "a", bandwidth=100.0)
        leaf_b = Link(sim, "b", bandwidth=100.0)
        run_transfer(sim, [leaf_a, shared], 100)
        run_transfer(sim, [leaf_b, shared], 100)
        sim.run()
        # Both need the shared uplink: total 2 s, not 1 s.
        assert sim.now == pytest.approx(2.0)

    def test_disjoint_paths_overlap(self, sim):
        a1, a2 = Link(sim, "a1", 100.0), Link(sim, "a2", 100.0)
        b1, b2 = Link(sim, "b1", 100.0), Link(sim, "b2", 100.0)
        run_transfer(sim, [a1, a2], 100)
        run_transfer(sim, [b1, b2], 100)
        sim.run()
        assert sim.now == pytest.approx(1.0)

    def test_opposed_acquisition_order_no_deadlock(self, sim):
        # Canonical id ordering prevents the classic AB/BA deadlock.
        x = Link(sim, "x", bandwidth=100.0)
        y = Link(sim, "y", bandwidth=100.0)
        first = run_transfer(sim, [x, y], 100)
        second = run_transfer(sim, [y, x], 100)
        sim.run()
        assert first.fired and second.fired
        assert sim.now == pytest.approx(2.0)

    def test_empty_path_is_noop(self, sim):
        proc = run_transfer(sim, [], 100)
        sim.run()
        assert proc.fired
        assert sim.now == 0.0


class TestPathTime:
    def test_uncontended_estimate(self, sim):
        fast = Link(sim, "fast", bandwidth=1000.0)
        slow = Link(sim, "slow", bandwidth=100.0)
        assert Route([fast, slow]).time(100) == pytest.approx(1.0)

    def test_empty_or_zero(self, sim):
        link = Link(sim, "l", bandwidth=100.0)
        assert Route([]).time(100) == 0.0
        assert Route([link]).time(0) == 0.0
