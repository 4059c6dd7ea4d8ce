"""The recorder's accumulators against the event-scanning reference.

:func:`repro.trace.analyze_trace` folds per-lane interval unions the
:class:`~repro.trace.TraceRecorder` keeps as spans arrive; it never scans
the events.  :func:`tests.naive_analytics.reference_analytics` is the
post-pass it replaced.  The two must agree bit for bit (``float.hex``) on
every figure but link contention (which has its own oracle):

- on every bench warm-up problem, traced for the bench's two iterations;
- on the analytics pins' seeded chaos run, whose faulted holds and
  crashed attempts add spans the fault-free runs lack;
- on seeded span soups fed to the recorder directly, in shuffled arrival
  order, with overlapping, touching and zero-length spans, device -1 and
  lanes the analytics ignore.

A ring recorder's analytics equal an unbounded recorder's for the same
run except for ``n_events`` and ``dropped``: the accumulators cover the
whole run, and only the events are a suffix.  ``clear()`` empties the
accumulators with the events.
"""

import random

import pytest

from repro.core.harmony import Harmony, HarmonyOptions
from repro.experiments.common import server_for
from repro.faults import FaultPlan, FaultSpec
from repro.trace import TraceRecorder, analyze_trace
from tests.naive_analytics import (
    contention_facts,
    plain_facts,
    reference_analytics,
    union,
)

#: (model, mode, gpus, minibatch) of the bench's warm-up problems.
BENCH_WARMUPS = tuple(
    (model, mode, gpus, 8 if mode == "pp" else gpus * 2)
    for model in ("gpt2", "gpt2-medium", "bert96", "bert-large", "vgg416",
                  "resnet1k")
    for mode in ("pp", "dp") for gpus in (4, 8)
)


def _traced(model, mode, gpus, minibatch, *, iterations=1, fault_plan=None,
            recorder=None):
    recorder = recorder if recorder is not None else TraceRecorder()
    report = Harmony(model, server_for(gpus), minibatch,
                     options=HarmonyOptions(mode=mode)).run(
        iterations=iterations, fault_plan=fault_plan, trace=recorder)
    return report.metrics.trace, recorder


def _reference(recorder, n_devices):
    return reference_analytics(recorder.events, n_devices,
                               total_time=recorder.extent,
                               dropped=recorder.dropped)


def _chaos(recorder=None):
    return _traced("toy-transformer", "pp", 2, 8, iterations=2,
                   fault_plan=FaultPlan(FaultSpec.chaos(1.0), seed=2),
                   recorder=recorder)


@pytest.mark.parametrize(
    "problem", BENCH_WARMUPS, ids=lambda p: "-".join(map(str, p)))
def test_fold_matches_the_post_pass_on_bench_runs(problem):
    analytics, recorder = _traced(*problem, iterations=2)
    reference = _reference(recorder, analytics.n_devices)
    assert plain_facts(analytics) == plain_facts(reference)


def test_fold_matches_the_post_pass_on_a_chaos_run():
    analytics, recorder = _chaos()
    events = recorder.events
    assert any(e.cat == "compute" and e.meta_dict().get("crashed")
               for e in events)
    assert any(e.cat == "xfer" and e.nbytes == 0 for e in events)
    reference = _reference(recorder, analytics.n_devices)
    assert plain_facts(analytics) == plain_facts(reference)


# -- span soups fed to the recorder directly -------------------------------------

#: (cat, lane) pairs a soup draws from: every tracked category, lanes the
#: analytics merge (swap, p2p), and lanes they ignore (``cluster``,
#: ``migration``) or never track (``service``).
SOUP_LANES = (
    ("compute", "compute"), ("compute", "cpu"), ("stream", "compute"),
    ("stream", "swap_in"), ("xfer", "swap_in"), ("xfer", "swap_out"),
    ("xfer", "p2p_in"), ("xfer", "p2p_out"), ("xfer", "cluster"),
    ("xfer", "migration"), ("service", "service"),
)


def _soup(seed: int) -> list:
    """Seeded spans in shuffled order.  Even seeds snap times to a coarse
    grid, so touching spans and shared endpoints are common."""
    rng = random.Random(seed)
    grid = seed % 2 == 0

    def when(hi: float) -> float:
        return rng.randrange(int(hi * 4) + 1) * 0.25 if grid \
            else rng.uniform(0.0, hi)

    spans = []
    for _ in range(rng.randint(1, 60)):
        cat, lane = rng.choice(SOUP_LANES)
        t0 = when(10.0)
        t1 = t0 if rng.random() < 0.15 else t0 + when(3.0)
        spans.append((cat, lane, rng.randint(-1, 2), t0, t1))
    rng.shuffle(spans)
    return spans


def _record(spans, recorder=None):
    recorder = recorder if recorder is not None else TraceRecorder()
    for cat, lane, device, t0, t1 in spans:
        recorder.span(cat, "s", t0, t1, device=device, lane=lane)
    return recorder


@pytest.mark.parametrize("seed", range(100))
def test_fold_matches_the_post_pass_on_span_soups(seed):
    spans = _soup(seed)
    recorder = _record(spans)
    for (cat, device, lane), track in recorder.tracks.items():
        expected = union((t0, t1) for c, l, d, t0, t1 in spans
                         if (c, d, l) == (cat, device, lane))
        assert track == [t for interval in expected for t in interval]
    assert plain_facts(analyze_trace(recorder, 2)) == \
        plain_facts(_reference(recorder, 2))


def test_span_soups_reach_the_edge_cases():
    """The soups really produce what they are for."""
    out_of_order = touching = zero = 0
    for seed in range(100):
        spans = _soup(seed)
        last_end: dict = {}
        ends = {(c, l, d, t1) for c, l, d, t0, t1 in spans if t1 > t0}
        for cat, lane, device, t0, t1 in spans:
            key = (cat, lane, device)
            out_of_order += t1 < last_end.get(key, t1)
            last_end[key] = max(t1, last_end.get(key, t1))
            touching += (cat, lane, device, t0) in ends
            zero += t0 == t1
    assert min(out_of_order, touching, zero) > 0


def test_clear_resets_the_accumulators():
    recorder = _record(_soup(3))
    recorder.span("xfer", "x", 0.0, 1.0, device=0, lane="swap_in",
                  holds=("a",), waits=[("a", 0.5)])
    assert recorder.tracks and recorder.links
    recorder.clear()
    assert recorder.tracks == {} and recorder.links == {}
    empty = analyze_trace(recorder, 2)
    assert plain_facts(empty) == plain_facts(_reference(recorder, 2))
    assert empty.link_contention == {}


# -- ring mode ------------------------------------------------------------------


@pytest.mark.parametrize("run", [
    lambda recorder: _traced("toy-transformer", "pp", 2, 8,
                             recorder=recorder),
    lambda recorder: _traced("gpt2", "pp", 4, 16, recorder=recorder),
    _chaos,
], ids=["toy-pp", "gpt2-pp-x4-mb16", "toy-pp-chaos"])
def test_ring_analytics_cover_the_whole_run(run):
    full, _ = run(TraceRecorder())
    ringed, ring = run(TraceRecorder(ring=64))
    assert ring.dropped > 0 and len(ring) == 64
    assert (ringed.n_events, ringed.dropped) == (64, full.n_events - 64)
    assert plain_facts(ringed, counts=False) == \
        plain_facts(full, counts=False)
    assert contention_facts(ringed) == contention_facts(full)
