"""Oracle for the per-link contention analytics.

A transfer acquires its route's links one at a time, in link-id order.
Its wait for a link runs from its grant of the previous link (from its
request, for the first) to its grant of this one, and
:func:`repro.trace.analyze_trace` reports per link the sum of those waits
(``contended``) and how many were positive (``intervals``).

:class:`GrantLog` measures the same thing without the transfer's help.
It wraps :meth:`Resource.request` and :meth:`Resource.release` of every
capacity-1 resource (every link), notes when each request was made and
when it was granted, and when the holder releases the link charges
``grant - request`` to it.  A transfer releases its links back to back
and records its ``xfer`` span right after, so per link the charges come
in the recorder's record order, and the sums must agree bit for bit
(``float.hex``).  ``busy`` keeps its definition: the fold of the link's
``xfer`` hold durations in record order, read here off the events.

The seeded random runs below hit the edge cases: multi-hop routes that
queue on several hops or on only some, touching holds, zero-length
(faulted at once) holds, equal start times and grants at the instant
they were requested.  Every run also conserves the wait: summed over
links, ``contended`` is the summed ``wait`` of the ``xfer`` spans.
"""

import math
import random

import pytest

from repro.common.errors import TransferFaultError
from repro.core.harmony import Harmony, HarmonyOptions
from repro.experiments.common import server_for
from repro.faults import FaultPlan, FaultSpec
from repro.sim.engine import Resource, Simulator
from repro.sim.links import Link, Route, TransferFault, transfer
from repro.trace import TraceRecorder, analyze_trace
from repro.trace.analytics import LinkContention

LINKS = ("a", "b", "c", "d")


class GrantLog:
    """Per-link waits captured around ``Resource.request``/``release``."""

    def __init__(self, monkeypatch):
        self.charges: dict = {}     # link name -> [waits in release order]
        self.queued_at_once = 0     # queued grants given at request time
        self._holding: dict = {}
        self._queued: dict = {}
        request, release = Resource.request, Resource.release

        def logged_request(resource):
            grant = request(resource)
            if resource.capacity == 1:
                now = resource.sim.now
                if grant.fired:
                    self._holding[resource] = (now, now)
                else:
                    self._queued[grant] = now
            return grant

        def logged_release(resource):
            if resource.capacity == 1:
                requested, granted = self._holding.pop(resource)
                self.charges.setdefault(resource.name, []).append(
                    granted - requested)
                if resource._queue:
                    nxt = resource._queue[0]
                    at = self._queued.pop(nxt)
                    self.queued_at_once += at == resource.sim.now
                    self._holding[resource] = (at, resource.sim.now)
            release(resource)

        monkeypatch.setattr(Resource, "request", logged_request)
        monkeypatch.setattr(Resource, "release", logged_release)

    def contention(self, events) -> dict:
        """The reference ``link_contention`` of one recorded run."""
        out: dict = {}
        for e in events:
            if e.kind == "span" and e.cat == "xfer":
                for link in e.meta_dict()["links"].split("+"):
                    if link:
                        out.setdefault(link, LinkContention()).busy += \
                            e.t1 - e.t0
        for link, waits in self.charges.items():
            for wait in waits:
                if wait > 0:
                    out[link].contended += wait
                    out[link].intervals += 1
        return out


def _facts(contention: dict) -> list:
    return [(link, c.busy.hex(), c.contended.hex(), c.intervals)
            for link, c in contention.items()]


def _conserved(analytics, events) -> bool:
    contended = math.fsum(c.contended
                          for c in analytics.link_contention.values())
    waited = math.fsum(e.meta_dict()["wait"] for e in events
                       if e.kind == "span" and e.cat == "xfer")
    return math.isclose(contended, waited, rel_tol=1e-12, abs_tol=0.0)


def _random_run(seed: int) -> TraceRecorder:
    """Seeded transfers over random routes of four links.  Even seeds use
    a coarse grid of start times, sizes and bandwidths, so equal starts,
    touching holds and same-instant grants are common; odd seeds draw
    arbitrary floats."""
    rng = random.Random(seed)
    grid = seed % 2 == 0
    sim = Simulator()
    recorder = TraceRecorder()
    sim.trace = recorder
    links = [Link(sim, name, bandwidth=rng.choice((1.0, 2.0, 4.0)) if grid
                  else rng.uniform(0.5, 4.0)) for name in LINKS]

    def job(start, route, nbytes, fault):
        yield sim.timeout(start)
        try:
            yield from transfer(sim, route, nbytes, fault=fault, label="x",
                                device=0, lane="swap_in")
        except TransferFaultError:
            pass

    for _ in range(rng.randint(1, 40)):
        start = rng.randrange(41) * 0.25 if grid else rng.uniform(0.0, 10.0)
        route = Route(rng.sample(links, rng.randint(1, 3)))
        nbytes = rng.randint(1, 12)
        fault = None
        if rng.random() < 0.15:
            fault = TransferFault(TransferFaultError("injected"),
                                  fraction=rng.choice((0.0, 0.5)))
        sim.process(job(start, route, nbytes, fault))
    sim.run()
    return recorder


@pytest.mark.parametrize("seed", range(200))
def test_matches_naive_on_random_holds(seed, monkeypatch):
    log = GrantLog(monkeypatch)
    recorder = _random_run(seed)
    analytics = analyze_trace(recorder, 1)
    events = recorder.events
    assert _facts(analytics.link_contention) == \
        _facts(log.contention(events))
    assert _conserved(analytics, events)


def test_random_holds_reach_the_edge_cases(monkeypatch):
    """The generator really produces the cases the oracle is for."""
    log = GrantLog(monkeypatch)
    touching = zero = equal_start = multi_hop = partial = split = 0
    for seed in range(200):
        log.charges.clear()
        xfers = [e for e in _random_run(seed).events if e.cat == "xfer"]
        starts = {e.t0 for e in xfers}
        ends = {e.t1 for e in xfers if e.t1 > e.t0}
        touching += len(starts & ends)
        zero += sum(e.t1 == e.t0 for e in xfers)
        equal_start += len(xfers) - len(starts)
        waiting = [e for e in xfers if e.meta_dict()["wait"] > 0]
        hops = [len(e.meta_dict()["links"].split("+")) for e in waiting]
        multi_hop += sum(n > 1 for n in hops)
        charged = sum(w > 0 for ws in log.charges.values() for w in ws)
        # Each positive charge belongs to a waiting transfer: more charges
        # than waiting transfers means one queued on several hops, fewer
        # than their hops means one queued on only some of its hops.
        split += charged > len(waiting)
        partial += charged < sum(hops)
    assert min(touching, zero, equal_start, multi_hop, partial, split,
               log.queued_at_once) > 0


def _real_run(monkeypatch, model, gpus, minibatch, **run):
    log = GrantLog(monkeypatch)
    recorder = TraceRecorder()
    report = Harmony(model, server_for(gpus), minibatch,
                     options=HarmonyOptions(mode="pp")).run(
        trace=recorder, **run)
    analytics = report.metrics.trace
    events = recorder.events
    assert analytics.contended_links
    assert _facts(analytics.link_contention) == \
        _facts(log.contention(events))
    assert _conserved(analytics, events)


def test_matches_naive_on_a_real_run(monkeypatch):
    """gpt2 pp x4: swaps contend for the shared PCIe uplinks."""
    _real_run(monkeypatch, "gpt2", 4, 16, iterations=1)


def test_matches_naive_on_a_chaos_run(monkeypatch):
    """Faulted holds, retries and restarts on fresh simulators."""
    _real_run(monkeypatch, "toy-transformer", 2, 8, iterations=2,
              fault_plan=FaultPlan(FaultSpec.chaos(1.0), seed=2))
