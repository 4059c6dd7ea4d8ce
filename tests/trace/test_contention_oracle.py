"""Differential oracle for the per-link contention analytics.

:func:`repro.trace.analytics._contention` unions each link's holds once
and bisects every wait window into that union.  ``naive_contention``
below is the direct definition it replaced: for each waiting transfer
and each link on its path, re-union every *other* transfer's holds of
that link and intersect the wait window with them.  The two must agree
bit for bit (``float.hex``) on busy and contended time, on interval
counts and on link order, over seeded random hold sets built to hit the
edge cases: touching holds, zero-length holds, equal start times,
multi-hop paths, and wait windows that end exactly where another hold
starts.  The interval helpers the reference needs are kept here too, so
the oracle also checks the rewritten ``_union``.
"""

import random

import pytest

from repro.trace import TraceRecorder
from repro.trace.analytics import LinkContention, _contention, _union

LINKS = ("a", "b", "c", "d")


def naive_union(intervals) -> list:
    merged: list = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _measure(intervals) -> float:
    return sum(end - start for start, end in intervals)


def _intersect(a, b) -> list:
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            out.append((lo, hi))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _links_of(event) -> list:
    links = event.meta_dict().get("links", "")
    return [name for name in str(links).split("+") if name]


def naive_contention(xfers) -> dict:
    """O(waits x holds log holds): each wait against all other holds."""
    holds: dict = {}
    for e in xfers:
        for link in _links_of(e):
            holds.setdefault(link, []).append((e.t0, e.t1, e.seq))
    out: dict = {}
    for link, spans in holds.items():
        out[link] = LinkContention(
            busy=_measure([(s, t) for s, t, _ in spans]))
    for e in xfers:
        wait = float(e.meta_dict().get("wait", 0.0))
        if wait <= 0:
            continue
        w0, w1 = e.t0 - wait, e.t0
        for link in _links_of(e):
            overlap = _measure(_intersect(
                [(w0, w1)],
                naive_union([(s, t) for s, t, seq in holds[link]
                             if seq != e.seq]),
            ))
            if overlap > 0:
                out[link].contended += overlap
                out[link].intervals += 1
    return out


def _facts(contention: dict) -> list:
    return [(link, c.busy.hex(), c.contended.hex(), c.intervals)
            for link, c in contention.items()]


def _random_xfers(seed: int) -> list:
    """A seeded hold set; even seeds snap times to a coarse grid so that
    touching holds, equal starts and windows ending on a hold's start
    are common, odd seeds draw arbitrary floats."""
    rng = random.Random(seed)
    grid = seed % 2 == 0

    def when(hi: float) -> float:
        return rng.randrange(int(hi * 4) + 1) * 0.25 if grid \
            else rng.uniform(0.0, hi)

    rec = TraceRecorder()
    starts: list = []
    for _ in range(rng.randint(1, 40)):
        if starts and rng.random() < 0.3:
            t0 = rng.choice(starts)          # equal start / touching end
        else:
            t0 = when(10.0)
        length = 0.0 if rng.random() < 0.15 else when(3.0)
        t1 = t0 + length
        starts.extend((t0, t1))
        hops = rng.sample(LINKS, rng.randint(1, 3))
        wait = 0.0 if rng.random() < 0.3 else when(4.0)
        rec.span("xfer", "x", t0, t1, device=rng.randint(-1, 1),
                 lane="swap_in", nbytes=1, links="+".join(hops), wait=wait)
    return rec.events


@pytest.mark.parametrize("seed", range(200))
def test_matches_naive_on_random_holds(seed):
    xfers = _random_xfers(seed)
    assert _facts(_contention(xfers)) == _facts(naive_contention(xfers))
    holds = [(e.t0, e.t1) for e in xfers]
    assert _union(holds) == naive_union(holds)


def test_random_holds_reach_the_edge_cases():
    """The generator really produces the cases the oracle is for."""
    touching = zero = equal_start = multi_hop = window_on_start = 0
    contended = 0
    for seed in range(200):
        xfers = _random_xfers(seed)
        starts = {e.t0 for e in xfers}
        ends = {e.t1 for e in xfers if e.t1 > e.t0}
        zero += sum(e.t1 == e.t0 for e in xfers)
        touching += len(starts & ends)
        equal_start += len(xfers) - len(starts)
        multi_hop += sum("+" in e.meta_dict()["links"] for e in xfers)
        window_on_start += sum(
            e.meta_dict()["wait"] > 0 and any(
                o.seq != e.seq and o.t0 == e.t0 for o in xfers)
            for e in xfers)
        contended += sum(c.intervals for c in _contention(xfers).values())
    assert min(touching, zero, equal_start, multi_hop, window_on_start,
               contended) > 0


def test_matches_naive_on_a_real_run(toy_traced):
    _plan, _metrics, recorder = toy_traced
    xfers = [e for e in recorder.events
             if e.kind == "span" and e.cat == "xfer"]
    assert _facts(_contention(xfers)) == _facts(naive_contention(xfers))
