"""One certification call per Harmony plan: ``HarmonyPlan.analyze``.

Every site that certifies a plan -- an elastic re-plan, a bind and
``repro check`` -- must hand the analyzer the same host state,
input-staging share, schedule options and prefetch for the same plan.
And the report carries the capacity certificates its passes computed:
``AnalysisReport.certificates`` equals what a fresh context derives, and
is empty when the capacity pass did not run.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro import cli
from repro.analysis import analyze, analyzer, capacity_certificates, inject
from repro.analysis.context import AnalysisContext
from repro.baselines import GpipeSwapPlanner
from repro.core.harmony import Harmony, HarmonyOptions
from repro.elastic import ElasticReplanner
from repro.experiments.common import server_for
from repro.virt import DeviceBinding, VirtualTopology
from repro.virt.bind import bind

#: The analyzer inputs a plan states about itself, whatever it is bound to.
PLAN_INPUTS = ("server", "options", "host_state_bytes", "host_input_bytes",
               "prefetch")

TOY = ("toy-transformer", 4, 16)


def _toy() -> Harmony:
    model, gpus, minibatch = TOY
    return Harmony(model, server_for(gpus), minibatch,
                   HarmonyOptions(mode="pp"))


@pytest.fixture
def certifications(monkeypatch) -> list[dict]:
    """The plan inputs of every analyzer run that certifies a schedule
    (the suite's structural checks pass no schedule options)."""
    calls: list[dict] = []
    original = analyzer.AnalysisContext

    def recording(graph, **kwargs):
        if kwargs.get("options") is not None:
            calls.append({name: kwargs.get(name) for name in PLAN_INPUTS})
        return original(graph, **kwargs)

    monkeypatch.setattr(analyzer, "AnalysisContext", recording)
    return calls


def test_every_site_certifies_a_plan_with_the_same_inputs(certifications,
                                                         capsys):
    model, gpus, minibatch = TOY
    replanned = _toy()
    sites = {
        # Re-planning onto every device is plan() itself.
        "elastic replan": lambda: ElasticReplanner(replanned).replan(
            range(gpus)),
        "identity bind": lambda: bind(_toy().plan(),
                                      DeviceBinding.identity(gpus)),
        "repro check": lambda: cli.main([
            "check", model, "--gpus", str(gpus),
            "--minibatch", str(minibatch), "--mode", "pp",
        ]),
    }
    inputs = {}
    for name, certify in sites.items():
        certifications.clear()
        certify()
        assert len(certifications) == 1, f"{name}: one certification"
        inputs[name] = certifications[0]
    capsys.readouterr()
    reference = inputs["repro check"]
    assert reference["host_input_bytes"] > 0
    for name, seen in inputs.items():
        assert seen == reference, (
            f"{name} certifies the plan with other analyzer inputs"
        )


def _plan_inputs(plan) -> dict:
    """The analyzer inputs of ``plan``, stated independently of
    ``HarmonyPlan.analyze``."""
    host_input = plan.minibatch * plan.model.sample_bytes
    return dict(
        server=plan.server,
        options=plan.options.schedule_options(),
        host_state_bytes=plan.model.model_state_bytes + host_input,
        host_input_bytes=host_input,
        prefetch=plan.options.prefetch,
    )


def _harmony_case():
    plan = _toy().plan()
    return plan.graph, _plan_inputs(plan)


def _dp_case():
    harmony = Harmony("tiny-cnn", server_for(2), 8, HarmonyOptions(mode="dp"))
    plan = harmony.plan()
    return plan.graph, dict(
        server=plan.server,
        options=plan.options.schedule_options(),
        host_state_bytes=harmony.host_state_bytes,
        prefetch=plan.options.prefetch,
    )


def _bind_case():
    plan = _toy().plan()
    binding = DeviceBinding.pack(4, VirtualTopology.heterogeneous(
        [1.5, 1.5, 0.75, 0.75], [1.0, 1.0, 1.0, 0.000001]))
    server = plan.server.with_gpus(binding.n_physical)
    kwargs = _plan_inputs(plan)
    kwargs.update(server=server, device_memory=list(
        binding.device_memory(server.gpu.memory_bytes)))
    return binding.apply(plan.graph), kwargs


def _inject_case(defect):
    graph, kwargs = _harmony_case()
    options, _expected = inject(defect, graph, kwargs["options"])
    kwargs.update(options=options)
    return graph, kwargs


def _baseline_case():
    server = server_for(4)
    planner = GpipeSwapPlanner("toy-transformer", server, 32)
    plan = planner.plan()
    return plan.graph, dict(server=server,
                            host_state_bytes=plan.host_state_bytes,
                            prefetch=not planner.reactive)


CASES = {
    "harmony-pp": _harmony_case,
    "harmony-dp": _dp_case,
    "oversubscribed-bind": _bind_case,
    "capacity-growth": partial(_inject_case, "capacity-growth"),
    "over-capacity": partial(_inject_case, "over-capacity"),
    "gp-swap": _baseline_case,
}

#: Pass subsets: every pass, the capacity pass alone, and a subset
#: without it.
SUBSETS = {
    "all": None,
    "capacity": ["capacity"],
    "races": ["hb", "lifetime"],
}


@pytest.mark.parametrize("subset", sorted(SUBSETS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_carries_the_capacity_certificates(case, subset):
    graph, kwargs = CASES[case]()
    passes = SUBSETS[subset]
    report = analyze(graph, passes=passes, **kwargs)
    expected = capacity_certificates(AnalysisContext(graph, **kwargs))
    assert expected
    if passes is None or "capacity" in passes:
        assert report.certificates == expected
        # One error per overflowing scope (every case's other passes
        # are clean).
        assert len(report.errors) == sum(
            c.peak(1) > c.capacity_bytes for c in expected
        )
    else:
        assert report.certificates == []


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_without_a_server_carries_no_certificates(case):
    graph, kwargs = CASES[case]()
    kwargs.pop("server")
    kwargs.pop("device_memory", None)
    report = analyze(graph, **kwargs)
    skipped = {r.name for r in report.results if r.skipped}
    assert "capacity" in skipped
    assert report.certificates == []
