"""The integer-numbered wait graph equals the tuple-keyed reference.

:func:`repro.analysis.deadlock.build_happens_before` lays each task's
nodes out as ``base + {F: 0, C: 1, O: 2}``;
:func:`tests.analysis.naive_wait_graph.reference_wait_graph` routes every
edge and slot gate through the ``(phase, tid)`` dict.  On every bench
warm-up plan (pp and dp), every seeded defect of
:mod:`repro.analysis.inject`, the seeded soups of
``test_wait_agreement.py`` and structurally broken graphs, the two give
the same ``index`` (in insertion order), ``succ``, ``order`` and
``cycle``.
"""

import pytest

from repro.analysis import INJECTIONS, analyze, check
from repro.analysis.context import AnalysisContext
from repro.analysis.deadlock import build_happens_before
from repro.common.errors import ScheduleAnalysisError
from tests.analysis.naive_wait_graph import reference_wait_graph
from tests.analysis.test_wait_agreement import MULTI, SINGLE, SOUPS, soup
from tests.goldens import BENCH_PLANS, _harmony_graph, _inject_graph


def assert_same_wait_graph(ctx_kwargs, graph):
    ctx = AnalysisContext(graph, **ctx_kwargs)
    fast = build_happens_before(ctx)
    ref = reference_wait_graph(AnalysisContext(graph, **ctx_kwargs))
    assert_same(fast, ref)
    return fast


def assert_same(fast, ref):
    assert list(fast.index.items()) == list(ref.index.items())
    assert fast.succ == ref.succ
    assert fast.order == ref.order
    assert fast.cycle == ref.cycle


@pytest.mark.parametrize("case", BENCH_PLANS,
                         ids=lambda c: "/".join(map(str, c)))
def test_bench_plans(case):
    graph, kwargs = _harmony_graph(*case)
    hb = assert_same_wait_graph(dict(prefetch=kwargs["prefetch"]), graph)
    assert not hb.cyclic


@pytest.mark.parametrize("defect", sorted(INJECTIONS))
def test_inject_corpus(defect):
    graph, kwargs = _inject_graph(defect)
    assert_same_wait_graph(dict(prefetch=kwargs["prefetch"]), graph)


@pytest.mark.parametrize("groups", ("single", "multi"))
@pytest.mark.parametrize("prefetch", (True, False), ids=("prefetch", "serial"))
def test_seeded_soups(groups, prefetch):
    sizes = SINGLE if groups == "single" else MULTI
    cyclic = 0
    for seed in range(SOUPS):
        hb = assert_same_wait_graph(dict(prefetch=prefetch),
                                    soup(seed, sizes))
        cyclic += hb.cyclic
    assert 0 < cyclic < SOUPS  # both outcomes are compared


@pytest.mark.parametrize("prefetch", (True, False), ids=("prefetch", "serial"))
def test_structurally_broken_soups(prefetch):
    """Repeated tids, tids out of order and devices outside the graph:
    the structure pass reports them, and the wait graph built alongside
    must still match the reference."""
    for seed in range(300):
        assert_same_wait_graph(dict(prefetch=prefetch),
                               broken_soup(seed))


def broken_soup(seed):
    graph = soup(seed, MULTI)
    tasks = graph.tasks
    if seed % 3 == 0 and len(tasks) > 2:
        tasks[2].tid = tasks[0].tid
    elif seed % 3 == 1:
        tasks[0].tid, tasks[-1].tid = tasks[-1].tid, tasks[0].tid
    else:
        tasks[-1].device = graph.n_devices
    return graph


def test_stalled_slot_with_a_repeated_tid_is_reported():
    """Two tasks sharing a tid share one ``F`` node, so the stalled walk
    can reach a slot no earlier task holds.  ``analyze`` still returns a
    report: the walk ends there and names the waits it took."""
    graph = broken_soup(15)
    hb = build_happens_before(AnalysisContext(graph, prefetch=False))
    assert hb.cyclic and hb.cycle
    report = analyze(graph, prefetch=False)
    assert {"structure/dense-tids", "deadlock/cycle"} <= {
        d.rule for d in report.errors}
    with pytest.raises(ScheduleAnalysisError):
        check(graph, prefetch=False)
