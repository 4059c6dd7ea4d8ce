"""Differential harness: static findings soundly cover the trace invariants.

The analyzer's claim is one-directional soundness: any schedule it
certifies clean must also execute clean -- the runtime trace invariants
(:func:`repro.trace.check_trace`: stream FIFO/exclusivity, dependency
order, byte and busy-time reconciliation) may never catch a violation
the static passes missed.  This sweep exercises the claim across two zoo
models x {pp, dp} x five planner seeds: every plan is first analyzed
with the full pass set and full machine context, then executed with a
trace recorder attached and the recorded timeline re-checked.

(The other direction is deliberately *not* required: static analysis is
conservative and may reject schedules whose one concrete interleaving
would have survived.  The zero-false-negative side of the deadlock
pass is pinned by the seeded graph soups of test_wait_agreement.py,
which hold its verdict to the Executor's outcome; the injection corpus
in test_inject.py pins every other rule's.)
"""

import pytest

from repro.analysis import analyze
from repro.core.harmony import Harmony, HarmonyOptions
from repro.experiments.common import server_for
from repro.trace import TraceRecorder, check_trace

MODELS = ("toy-transformer", "tiny-cnn")
SEEDS = (0, 1, 2, 3, 4)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", ("pp", "dp"))
@pytest.mark.parametrize("model", MODELS)
def test_statically_clean_schedules_execute_clean(model, mode, seed):
    server = server_for(4)
    options = HarmonyOptions(mode=mode, seed=seed)
    harmony = Harmony(model, server, 16, options=options)
    plan = harmony.plan()

    report = analyze(
        plan.graph,
        server=server,
        options=options.schedule_options(),
        host_state_bytes=harmony.host_state_bytes,
        host_input_bytes=harmony.minibatch * harmony.model.sample_bytes,
        prefetch=options.prefetch,
    )
    assert report.ok and not report.warnings, report.describe()

    recorder = TraceRecorder()
    result = harmony.run(plan, iterations=1, trace=recorder)
    check_trace(recorder.events, graph=plan.graph, metrics=result.metrics,
                iterations=1, dropped=recorder.dropped)
