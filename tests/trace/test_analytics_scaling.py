"""A metamorphic relation of the trace analytics: twice the rates, half
the times.

Double every rate of a server: GPU peak FLOPs, the PCIe leaf, uplink and
NVLink bandwidths, the host's optimizer FLOPs and its pageable copy
bandwidth.  Planning picks the same configuration, and every duration of
a fault-free run halves.  A power-of-two scale commutes with rounding, so
every :class:`~repro.trace.TraceAnalytics` time -- busy, hold, overlap,
bubble and link contention -- must halve exactly (``==``), and every
count must stay the same.  No reference implementation is needed.
"""

from dataclasses import replace

import pytest

from repro.core.harmony import Harmony, HarmonyOptions
from repro.experiments.common import server_for
from repro.hardware.interconnect import TopologySpec
from repro.hardware.server import ServerSpec
from repro.trace import TraceRecorder

CASES = (
    ("toy-transformer", "pp", 2, 8),
    ("toy-transformer", "dp", 2, 8),
    ("gpt2", "pp", 4, 16),
)


def doubled(server: ServerSpec) -> ServerSpec:
    """``server`` with every rate doubled."""
    topology = server.topology
    return ServerSpec(
        n_gpus=server.n_gpus,
        gpu=replace(server.gpu, peak_flops=2 * server.gpu.peak_flops),
        host=replace(
            server.host,
            optimizer_flops_per_core=2 * server.host.optimizer_flops_per_core,
            pageable_copy_bandwidth=2 * server.host.pageable_copy_bandwidth,
        ),
        topology=TopologySpec(
            n_gpus=topology.n_gpus,
            gpus_per_switch=topology.gpus_per_switch,
            leaf_bandwidth=2 * topology.leaf_bandwidth,
            uplink_bandwidth=2 * topology.uplink_bandwidth,
            nvlink_bandwidth=2 * topology.nvlink_bandwidth,
        ),
    )


def _analytics(server, model, mode, minibatch):
    harmony = Harmony(model, server, minibatch,
                      options=HarmonyOptions(mode=mode))
    plan = harmony.plan()
    report = harmony.run(plan=plan, iterations=1, trace=TraceRecorder())
    return plan.search.best, report.metrics.trace


def _figures(analytics) -> tuple:
    """(times, counts) of every analytics field, in a fixed order."""
    times = [analytics.total_time]
    for name in ("compute_busy", "cpu_busy", "swap_hold", "p2p_hold",
                 "overlap_time", "bubble_time"):
        times += getattr(analytics, name)
    counts = [analytics.n_devices, analytics.n_events, analytics.dropped]
    for lanes in analytics.stream_busy:
        counts.append(tuple(lanes))
        times += lanes.values()
    for link, c in analytics.link_contention.items():
        counts += (link, c.intervals)
        times += (c.busy, c.contended)
    return times, counts


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_doubling_every_rate_halves_every_figure(case):
    model, mode, gpus, minibatch = case
    server = server_for(gpus)
    config, stock = _analytics(server, model, mode, minibatch)
    fast_config, fast = _analytics(doubled(server), model, mode, minibatch)
    assert fast_config == config
    times, counts = _figures(stock)
    fast_times, fast_counts = _figures(fast)
    assert fast_counts == counts
    assert fast_times == [t / 2 for t in times]
    assert any(c.contended > 0 for c in stock.link_contention.values())
