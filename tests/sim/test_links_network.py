"""Network-hop link semantics and the hardened transfer edge cases.

Regressions this file pins:

- per-hop ``latency`` adds to every hold (and sums over a path), while a
  zero latency is bit-identical to the pre-latency arithmetic;
- a zero-byte transfer never acquires the path (no serialization, no
  busy time) -- an empty tensor must not contend;
- a zero-hop route with real bytes records a trace span so byte totals
  still reconcile, while costing zero virtual time;
- ``Route.time`` is deterministically zero-cost for zero-hop routes and
  non-positive byte counts (never a min()/division error).
"""

import pytest

from repro.common.errors import SimulationError
from repro.sim.links import Link, NetworkLink, Route, transfer
from repro.trace import TraceRecorder


class TestLatency:
    def test_single_hop_latency_adds_to_hold(self, sim):
        link = Link(sim, "l", bandwidth=100.0, latency=0.5)
        sim.process(transfer(sim, Route([link]), 100))
        sim.run()
        assert sim.now == pytest.approx(1.5)

    def test_path_latency_sums_over_hops(self, sim):
        a = Link(sim, "a", bandwidth=100.0, latency=0.25)
        b = Link(sim, "b", bandwidth=100.0, latency=0.25)
        sim.process(transfer(sim, Route([a, b]), 100))
        sim.run()
        assert sim.now == pytest.approx(1.5)

    def test_zero_latency_matches_pre_latency_arithmetic(self, sim):
        link = Link(sim, "l", bandwidth=100.0)
        sim.process(transfer(sim, Route([link]), 250))
        sim.run()
        assert sim.now == 250 / 100.0  # exact, not approx

    def test_negative_latency_rejected(self, sim):
        with pytest.raises(SimulationError):
            Link(sim, "l", bandwidth=100.0, latency=-1e-6)

    def test_network_link_is_a_link(self, sim):
        nic = NetworkLink(sim, "s0.nic.up", bandwidth=100.0, latency=0.5)
        assert isinstance(nic, Link)
        sim.process(transfer(sim, Route([nic]), 100))
        sim.run()
        assert sim.now == pytest.approx(1.5)
        assert nic.bytes_moved == 100


class TestZeroByteTransfers:
    def test_zero_bytes_does_not_acquire_the_path(self, sim):
        link = Link(sim, "l", bandwidth=100.0)
        blocker = sim.process(transfer(sim, Route([link]), 100))
        free = sim.process(transfer(sim, Route([link]), 0))
        sim.run()
        assert blocker.fired and free.fired
        # The zero-byte move never held the link: one hold's busy time.
        assert link.busy_time == pytest.approx(1.0)
        assert link.bytes_moved == 100

    def test_zero_bytes_records_no_trace_span(self, sim):
        recorder = TraceRecorder()
        sim.trace = recorder
        link = Link(sim, "l", bandwidth=100.0)
        sim.process(transfer(sim, Route([link]), 0))
        sim.run()
        assert not [e for e in recorder.events if e.cat == "xfer"]


class TestZeroHopRoutes:
    def test_zero_hop_with_bytes_is_instant(self, sim):
        proc = sim.process(transfer(sim, Route([]), 100))
        sim.run()
        assert proc.fired
        assert sim.now == 0.0

    def test_zero_hop_with_bytes_traces_for_reconciliation(self, sim):
        recorder = TraceRecorder()
        sim.trace = recorder
        sim.process(transfer(sim, Route([]), 4096, label="colocated",
                             lane="swap"))
        sim.run()
        spans = [e for e in recorder.events if e.cat == "xfer"]
        assert len(spans) == 1
        assert spans[0].nbytes == 4096
        assert spans[0].meta_dict()["links"] == ""

    def test_zero_hop_zero_bytes_traces_nothing(self, sim):
        recorder = TraceRecorder()
        sim.trace = recorder
        sim.process(transfer(sim, Route([]), 0))
        sim.run()
        assert not recorder.events


class TestPathTimeEdges:
    def test_empty_path_any_bytes(self):
        assert Route([]).time(0) == 0.0
        assert Route([]).time(10**12) == 0.0

    def test_zero_and_negative_bytes(self, sim):
        link = Link(sim, "l", bandwidth=100.0, latency=0.5)
        assert Route([link]).time(0) == 0.0
        assert Route([link]).time(-1) == 0.0

    def test_latency_included(self, sim):
        a = Link(sim, "a", bandwidth=100.0, latency=0.25)
        b = Link(sim, "b", bandwidth=50.0, latency=0.25)
        assert Route([a, b]).time(100) == pytest.approx(0.5 + 2.0)

    def test_uses_nominal_bandwidth_not_degraded(self, sim):
        link = Link(sim, "l", bandwidth=100.0)
        link.degradation = lambda now: 0.5
        assert Route([link]).time(100) == pytest.approx(1.0)
