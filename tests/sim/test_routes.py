"""Route oracle: every prebuilt route equals the per-call computation.

A live server builds each route once per run and every transfer reuses
its acquisition order, latency and nominal bandwidth.  The reference is
what a transfer used to work out on every call from the hop list: hops
sorted by link id, ``ordered_sum`` of their latencies in path order and
the minimum nominal bandwidth.  For 4- and 8-GPU commodity servers, an
NVLink server and a cluster's network paths, every route must agree with
it by ``float.hex``, and so must ``Route.time`` with the old
``path_time``.  A degradation function installed after a route was built
must still be sampled, hop by hop in path order.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterFabric, homogeneous_cluster
from repro.common.floats import ordered_sum
from repro.experiments.common import server_for
from repro.hardware.interconnect import TopologySpec
from repro.hardware.server import (
    ServerSpec,
    SimulatedServer,
    eight_gpu_commodity_server,
    four_gpu_commodity_server,
)
from repro.sim.engine import Simulator
from repro.sim.links import Route, transfer

SIZES = (0, 1, 4096, 10**6 + 3, 3 * 2**30)


def _nvlink_server() -> ServerSpec:
    return ServerSpec(n_gpus=4, topology=TopologySpec(
        n_gpus=4, gpus_per_switch=2, nvlink_bandwidth=25e9))


SERVERS = {
    "4-gpu": four_gpu_commodity_server,
    "8-gpu": eight_gpu_commodity_server,
    "nvlink": _nvlink_server,
}


def _per_call(live: SimulatedServer, src, dst, staged: bool) -> list:
    """The hop list the executor used to build on every transfer."""
    tree = live.tree
    if src is None:
        path = tree.host_to_gpu(dst)
    elif dst is None:
        path = tree.gpu_to_host(src)
    else:
        path = tree.gpu_to_gpu(src, dst)
    return path + [live.pageable_staging] if staged else path


def _check(route: Route, path: list) -> None:
    assert route.hops == tuple(path)
    assert route.ordered == tuple(sorted(path, key=lambda l: l.link_id))
    assert route.names == "+".join(l.name for l in route.ordered)
    latency = ordered_sum(link.latency for link in path)
    assert route.latency.hex() == latency.hex()
    if not path:
        assert all(route.time(n) == 0.0 for n in SIZES)
        return
    bandwidth = min(link.bandwidth for link in path)
    assert route.bandwidth.hex() == bandwidth.hex()
    for nbytes in SIZES:
        # The deleted ``path_time``, zero-cost cases included.
        expected = 0.0 if nbytes <= 0 else latency + nbytes / bandwidth
        assert route.time(nbytes).hex() == expected.hex()


def _endpoints(n_gpus: int):
    for g in range(n_gpus):
        for staged in (False, True):
            yield None, g, staged
            yield g, None, staged
    for s in range(n_gpus):
        for d in range(n_gpus):
            yield s, d, False


@pytest.mark.parametrize("name", sorted(SERVERS))
def test_every_server_route_matches_the_per_call_fold(name):
    spec = SERVERS[name]()
    live = SimulatedServer(Simulator(), spec)
    checked = 0
    for src, dst, staged in _endpoints(spec.n_gpus):
        route = live.route(src, dst, staged)
        _check(route, _per_call(live, src, dst, staged))
        assert live.route(src, dst, staged) is route, "built once per run"
        checked += 1
    assert checked == 4 * spec.n_gpus + spec.n_gpus**2


def test_nvlink_routes_take_the_mesh():
    live = SimulatedServer(Simulator(), _nvlink_server())
    assert [l.name for l in live.route(0, 3).hops] == ["nv0->3"]
    assert live.route(2, 2).hops == ()


def test_routes_belong_to_their_server():
    spec = four_gpu_commodity_server()
    first = SimulatedServer(Simulator(), spec)
    second = SimulatedServer(Simulator(), spec)
    assert first.route(None, 0) is not second.route(None, 0)
    assert not set(first.route(None, 0).hops) & set(second.route(None, 0).hops)


def test_every_network_route_matches_the_per_call_fold():
    cluster = homogeneous_cluster(3, server_for(2))
    sim = Simulator()
    fabric = ClusterFabric(sim, cluster)
    for src in range(3):
        for dst in range(3):
            path = ([] if src == dst else
                    [fabric.nic_up[src], fabric.switch, fabric.nic_down[dst]])
            route = fabric.route(src, dst)
            _check(route, path)
            assert fabric.route(src, dst) is route


def test_network_transfer_holds_the_per_call_duration():
    sim = Simulator()
    fabric = ClusterFabric(sim, homogeneous_cluster(2, server_for(2)))
    route = fabric.route(0, 1)
    nbytes = 10**6 + 7
    sim.process(transfer(sim, route, nbytes))
    sim.run()
    hops = route.hops
    expected = ordered_sum(l.latency for l in hops) + nbytes / min(
        l.bandwidth for l in hops)
    assert sim.now.hex() == expected.hex()


def test_degradation_installed_after_the_route_is_sampled():
    sim = Simulator()
    live = SimulatedServer(sim, four_gpu_commodity_server())
    route = live.route(1, None, staged=True)
    nbytes = 2**28
    sampled = []

    def halve(link):
        def factor(now):
            sampled.append((link.name, now))
            return 0.5
        return factor

    for link in route.hops:
        link.degradation = halve(link)

    def op():
        yield sim.timeout(1.0)
        yield from transfer(sim, route, nbytes)

    sim.process(op())
    sim.run()
    # Every hop sampled once, in path order, at acquisition.
    assert sampled == [(link.name, 1.0) for link in route.hops]
    bandwidth = min(link.bandwidth * 0.5 for link in route.hops)
    assert sim.now.hex() == (1.0 + (0.0 + nbytes / bandwidth)).hex()
