"""The benchmark's own machinery: statistics, passes, spans, the case draw."""

import itertools

import pytest

import run
from agree import compare
from run import Op, ReferenceClock, nearest_rank, timed_passes
from tracing import SpanRecorder, wrap_function, wrap_generator
from workloads import (
    COMBOS, SIZE_STEPS, Checked, PlanZoo, pass_order, plan_zoo_pass,
    problem_key, warmup_problems,
)


def test_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(values, 0.5) == 3.0
    assert nearest_rank(values, 0.9) == 5.0
    assert nearest_rank(values, 0.2) == 1.0
    assert nearest_rank(values, 0.0) == 1.0
    assert nearest_rank(list(range(1, 101)), 0.9) == 90
    assert nearest_rank(list(range(1, 101)), 0.99) == 99
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _stepping_measure(clock):
    def measure(case, k):
        t0 = clock.now
        clock.now += 1.0
        return Op(k, t0, clock.now, Checked(f"{k}:{case}", {}, True))
    return measure


def test_passes_end_at_the_first_boundary_after_seconds():
    clock = FakeClock()
    passes = timed_passes(lambda k: [0, 1, 2], _stepping_measure(clock),
                          seconds=4.0, deadline=100.0, clock=clock)
    assert [len(done) for done in passes] == [3, 3]
    assert clock.now == 6.0


def test_passes_stop_when_the_catalogue_runs_out():
    clock = FakeClock()
    passes = timed_passes(lambda k: [0, 1] if k < 2 else [],
                          _stepping_measure(clock), seconds=60.0,
                          deadline=100.0, clock=clock)
    assert len(passes) == 2


def test_a_pass_cut_short_by_the_deadline_is_dropped():
    clock = FakeClock()
    passes = timed_passes(lambda k: [0, 1, 2], _stepping_measure(clock),
                          seconds=60.0, deadline=7.5, clock=clock)
    assert [[op.checked.key for op in done] for done in passes] == [
        ["0:0", "0:1", "0:2"], ["1:0", "1:1", "1:2"],
    ]


def test_reference_seconds_use_the_probes_next_to_an_interval():
    clock = FakeClock()
    probe_seconds = iter([run.REF_PROBE_S, 2 * run.REF_PROBE_S,
                          2 * run.REF_PROBE_S, 2 * run.REF_PROBE_S])

    def probe():
        return next(probe_seconds)

    ref = ReferenceClock(clock=clock, probe=probe)
    ref.maybe_probe()                 # t=0: a quiet host
    clock.now = 10.0

    def slow_op():
        clock.now += 1.0
        return "done"

    assert ref.interval(slow_op) == ("done", 10.0, 11.0)
    ref.maybe_probe()                 # too soon after the last: skipped
    assert ref.starts == [0.0, 10.0, 11.0]
    # Probes twice as slow as the reference around the op: half the time.
    assert ref.reference(10.0, 11.0) == pytest.approx(0.5)
    # Far from every probe: the nearest one.
    assert ref.reference(7.0, 7.5) == pytest.approx(0.25)
    assert ref.reference(0.0, 1.0) == pytest.approx(1.0)


def test_self_time_excludes_nested_spans():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)

    def leaf():
        clock.now += 2.0

    def inner():
        clock.now += 1.0
        leaf_w()
        clock.now += 1.0

    def outer():
        clock.now += 3.0
        inner_w()
        inner_w()

    leaf_w = wrap_function(rec, leaf, "leaf")
    inner_w = wrap_function(rec, inner, "inner")
    outer_w = wrap_function(rec, outer, "outer")
    outer_w()  # outside an op: not recorded
    assert not rec.calls
    with rec.in_op(0, "op0"):
        outer_w()
    assert dict(rec.calls) == {"outer": 1, "inner": 2, "leaf": 2}
    assert dict(rec.self_s) == {"outer": 3.0, "inner": 4.0, "leaf": 4.0}
    assert rec.covered == 11.0
    op, outer_span, inner_span, leaf_span = rec.spans[:4]
    assert op[0] == "op0" and op[3] == -1
    assert outer_span[0] == "outer" and outer_span[3] == 0
    assert inner_span[0] == "inner" and inner_span[3] == 1
    assert leaf_span[0] == "leaf" and leaf_span[3] == 2
    events = rec.chrome_trace()["traceEvents"]
    assert len(events) == 6 and all(e["ph"] == "X" for e in events)


def test_wrappers_pass_results_and_exceptions_through():
    rec = SpanRecorder()

    def fails():
        raise KeyError("boom")

    def gen(n):
        got = yield n
        got = yield got + 1
        return got * 10

    with rec.in_op(0, "op"):
        assert wrap_function(rec, lambda x: x * 2, "f")(21) == 42
        with pytest.raises(KeyError):
            wrap_function(rec, fails, "f")()
        wrapped = wrap_generator(rec, gen, "g")(5)
        assert next(wrapped) == 5
        assert wrapped.send(7) == 8
        with pytest.raises(StopIteration) as stop:
            wrapped.send(3)
        assert stop.value.value == 30
    assert rec.calls == {"f": 2, "g": 3}
    assert not rec._stack


def test_spans_beyond_the_cap_are_counted_not_kept():
    rec = SpanRecorder(max_spans=3)
    with rec.in_op(0, "op"):
        for _ in range(5):
            wrap_function(rec, lambda: None, "f")()
    assert rec.calls["f"] == 5
    assert len(rec.spans) == 3 and rec.dropped == 3


def test_case_order_is_seeded():
    assert pass_order(0, 0, 24) == pass_order(0, 0, 24)
    assert sorted(pass_order(3, 1, 24)) == list(range(24))
    assert len({tuple(pass_order(seed, 0, 24)) for seed in range(10)}) == 10
    assert pass_order(0, 0, 24) != pass_order(0, 1, 24)


def test_no_plan_zoo_problem_repeats_within_a_run():
    zoo = PlanZoo(golden={})
    problems = [problem_key(*case) for case in warmup_problems()]
    for k in itertools.count():
        cases = zoo.pass_cases(k)
        if not cases:
            break
        assert [combo for combo, _ in cases] == list(COMBOS)
        problems += [problem_key(*case) for case in cases]
    assert len(problems) == len(set(problems)) == len(COMBOS) * SIZE_STEPS
    for (model, mode, gpus), mb in itertools.chain(
            warmup_problems(), plan_zoo_pass(0)):
        assert mode == "pp" or mb % gpus == 0


def _record(workload, seed, value, digest="d"):
    return {"workload": workload, "seed": seed, "trace": 0,
            "facts_sha256": digest,
            "result": {"metrics": {"ops_per_s": {"value": value}}}}


def test_agree_flags_median_moves_and_fact_changes():
    metrics = [{"name": "ops_per_s", "bound": 0.1}]
    a = {"w": [_record("w", 0, v) for v in (10.0, 10.2, 9.9)]}
    same = {"w": [_record("w", 0, v) for v in (10.1, 9.8, 10.3)]}
    slow = {"w": [_record("w", 0, v) for v in (8.0, 8.1, 7.9)]}
    changed = {"w": [_record("w", 0, 10.0, digest="e")]}
    assert compare(a, same, metrics)[1] == 0
    assert compare(a, slow, metrics)[1] == 1
    assert compare(a, changed, metrics)[1] == 1
    assert compare(a, {}, metrics)[1] == 1
