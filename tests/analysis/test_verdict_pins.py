"""Pins the analyzer's verdict on every graph family it certifies.

Each case analyzes one graph with every registered pass and pins the
sha256 of a canonical dump of the report: per pass, its name, skip
reason, suppressed count and the sorted ``(rule, task, device)`` of its
findings; the message text of every finding except ``deadlock/cycle``
(a cycle may be named through any node on it); and every capacity
certificate's ``(scope, fixed, slope, capacity)``.

The cases cover the 24 bench warm-up plans, the five LMS swap baselines
on three models, identity / time-slice / heterogeneous binds of
toy-transformer plus a bind whose memory scale cannot fit, and every
seeded defect of :mod:`repro.analysis.inject`.  Any change to what the
analyzer concludes about one of these graphs moves a digest.
"""

import hashlib
import json
from functools import partial

import pytest

from repro.analysis import INJECTIONS, analyze, capacity_certificates, inject
from repro.analysis.context import AnalysisContext
from repro.baselines import DpSwapPlanner, GpipeSwapPlanner, PipeDream2BWPlanner
from repro.core.harmony import Harmony, HarmonyOptions
from repro.experiments.common import server_for
from repro.virt import DeviceBinding, VirtualTopology
from repro.virt.bind import bind

#: (model, mode, gpus, minibatch) of the bench's warm-up plans.
BENCH_MODELS = ("gpt2", "gpt2-medium", "bert96", "bert-large", "vgg416",
                "resnet1k")
BENCH_PLANS = tuple(
    (model, mode, gpus, 8 if mode == "pp" else gpus * 2)
    for model in BENCH_MODELS for mode in ("pp", "dp") for gpus in (4, 8)
)

LMS_SCHEMES = {
    "dp-swap": DpSwapPlanner,
    "gp-swap": GpipeSwapPlanner,
    "gp-swap-r": partial(GpipeSwapPlanner, recompute=True),
    "2bw-swap": PipeDream2BWPlanner,
    "2bw-swap-r": partial(PipeDream2BWPlanner, recompute=True),
}
LMS_MODELS = ("toy-transformer", "tiny-cnn", "bert-large")

#: bind name -> (FLOPs scales, memory scales) of the physical devices
BINDS = {
    "identity": ([1.0] * 4, [1.0] * 4),
    "time-slice": ([1.0] * 2, [1.0] * 2),
    "hetero": ([1.5, 1.5, 0.75, 0.75], [1.0] * 4),
    "oversubscribed": ([1.0] * 4, [1.0, 1.0, 1.0, 0.000001]),
}


def harmony_case(model, mode, gpus, minibatch):
    harmony = Harmony(model, server_for(gpus), minibatch,
                      HarmonyOptions(mode=mode))
    options = harmony.options.schedule_options()
    return harmony.plan().graph, dict(
        server=harmony.server,
        options=options,
        host_state_bytes=harmony.host_state_bytes,
        host_input_bytes=minibatch * harmony.model.sample_bytes,
        prefetch=options.prefetch,
    )


def baseline_case(scheme, model):
    server = server_for(4)
    planner = LMS_SCHEMES[scheme](model, server, 32)
    plan = planner.plan()
    return plan.graph, dict(
        server=server,
        host_state_bytes=plan.host_state_bytes,
        prefetch=not planner.reactive,
    )


def bind_case(name):
    flops, memory = BINDS[name]
    harmony = Harmony("toy-transformer", server_for(4), 16,
                      HarmonyOptions(mode="pp"))
    plan = harmony.plan()
    binding = DeviceBinding.pack(
        4, VirtualTopology.heterogeneous(flops, memory)
    )
    bound = bind(plan, binding, verify=False)
    host_input = plan.minibatch * plan.model.sample_bytes
    return bound.graph, dict(
        server=bound.server,
        options=plan.options.schedule_options(),
        host_state_bytes=plan.model.model_state_bytes + host_input,
        host_input_bytes=host_input,
        prefetch=plan.options.prefetch,
        device_memory=list(
            binding.device_memory(bound.server.gpu.memory_bytes)
        ),
    )


def inject_case(defect):
    graph, kwargs = harmony_case("toy-transformer", "pp", 4, 16)
    options, _expected = inject(defect, graph, kwargs["options"])
    kwargs.update(options=options, prefetch=options.prefetch)
    return graph, kwargs


CASES = {
    **{f"bench/{m}/{mode}/{g}/{mb}": partial(harmony_case, m, mode, g, mb)
       for m, mode, g, mb in BENCH_PLANS},
    **{f"lms/{s}/{m}": partial(baseline_case, s, m)
       for s in LMS_SCHEMES for m in LMS_MODELS},
    **{f"bind/{name}": partial(bind_case, name) for name in BINDS},
    **{f"inject/{d}": partial(inject_case, d) for d in sorted(INJECTIONS)},
}


def verdict(graph, kwargs) -> dict:
    """The canonical, JSON-ready dump of one analyzer verdict."""
    report = analyze(graph, **kwargs)
    passes = []
    for result in report.results:
        diagnostics = sorted(result.diagnostics, key=lambda d: (
            d.rule,
            -1 if d.task is None else d.task,
            -1 if d.device is None else d.device,
            d.message,
        ))
        passes.append({
            "name": result.name,
            "skipped": result.skipped,
            "suppressed": result.suppressed,
            "findings": [[d.rule, d.task, d.device] for d in diagnostics],
            "messages": [d.message for d in diagnostics
                         if d.rule != "deadlock/cycle"],
        })
    certificates = capacity_certificates(AnalysisContext(graph, **kwargs))
    return {
        "passes": passes,
        "certificates": [
            [c.scope, c.fixed_bytes, c.slope_bytes, c.capacity_bytes]
            for c in certificates
        ],
    }


def digest(case: str) -> str:
    body = json.dumps(verdict(*CASES[case]()), sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


#: case -> sha256 of the canonical verdict dump
DIGESTS = {
    "bench/bert-large/dp/4/8":
        "e034e5b2de4ee5b987ac3037796cc2ca59221509cc2a93009f7075278638f82b",
    "bench/bert-large/dp/8/16":
        "b186e25cb11356d2b5dcee4d6d9a5e506ae125939f6bd577286cab752f4e00e3",
    "bench/bert-large/pp/4/8":
        "a7853c73fa74dd4b07da1964b74254b34433c58ce25b1f7dcb544c05c56d8e29",
    "bench/bert-large/pp/8/8":
        "e3ef7ae37fc9ad302d0e2227aa2f05022037be80f12329ee0cf5cce05ab73a04",
    "bench/bert96/dp/4/8":
        "aa5a3b62f03c1aa04948616a682a2df594fabc2b574294403f53d5699a223f28",
    "bench/bert96/dp/8/16":
        "138cbdbcb7cdf73e3506e752b4314bec7082b9794380bc6782e65831c793efad",
    "bench/bert96/pp/4/8":
        "67f9874c3e2a7848fe2ca2a960e08f343e106e3b706b1ca0f405c8b270a20148",
    "bench/bert96/pp/8/8":
        "9a7033bce139be049e93576d91333843af80a2e0fe29c8450fc874317c4cac00",
    "bench/gpt2-medium/dp/4/8":
        "603acd6a9de72e02668cd32656566f1404ecc53d60199e176c7c0305ffdcbc67",
    "bench/gpt2-medium/dp/8/16":
        "a91e22f3509adc24d020a6ff96f825c8ad0d77612d849ab6535ffc4bcfea63e2",
    "bench/gpt2-medium/pp/4/8":
        "5a6667f073a00903f13fca6ed5c4051924cbcefe54678481fb7d169c842d99ee",
    "bench/gpt2-medium/pp/8/8":
        "2c38e7a0d372f1f3f8b73a02d0adc5feda4b339cd72a73f59d521e0301cda00b",
    "bench/gpt2/dp/4/8":
        "15796dde7b77a12b116273fa26e7c5c5d1f909f102cc76478cd6ce6045b8cc18",
    "bench/gpt2/dp/8/16":
        "e1af9ac34215cc9d80d3ba4f152429d882389b30ba64738ccddf416a9e762bad",
    "bench/gpt2/pp/4/8":
        "933b9916077d6020093dba7440c8df29d2314d5cff4c4baaa4fbe926c7f677d0",
    "bench/gpt2/pp/8/8":
        "0d6267e82593589b9381bd485cd6f65a4bfc83b4910976ef5605bc3d7dd30e2c",
    "bench/resnet1k/dp/4/8":
        "9b3d624f95f22938a059ab954bcfd9142061fc264eb3cb3639d84dedc42c9c0e",
    "bench/resnet1k/dp/8/16":
        "d02e577c7d35c1f58edb45334913a83a8554a94c71afbdb72c7c4926f2a811f4",
    "bench/resnet1k/pp/4/8":
        "04f438dadc29a18373f16e986021fc9285499cdf562957cf74d414ce602d6aa9",
    "bench/resnet1k/pp/8/8":
        "8ae0c70c65962628028ac0fb14d7f101695597c25c7faea139480feb4579fb76",
    "bench/vgg416/dp/4/8":
        "570192fd468c593299b3b1955e585f4274cb62e2bd628a52ea9fb57205359bad",
    "bench/vgg416/dp/8/16":
        "57a6ab7ca6cb6b2cb23443cc77669a25e8a4241be62b303b427e1e781307ab6f",
    "bench/vgg416/pp/4/8":
        "fab5f26b3a23bb746cba5170d48cab09c41434d2a8bb0507b36f9eba988964e1",
    "bench/vgg416/pp/8/8":
        "e1c9606434e6e6a38bbe732c00cfd22269035a8bf5695045fddf0aae6329aebf",
    "bind/hetero":
        "6e87f80423501a38902c218f7081c756ab4d845fbbd6465e467aea25fc674d1e",
    "bind/identity":
        "6e87f80423501a38902c218f7081c756ab4d845fbbd6465e467aea25fc674d1e",
    "bind/oversubscribed":
        "8438836394ae359667d47064050f26f388c54277dcb15de697118dcf3eaab304",
    "bind/time-slice":
        "6f4e502fdcf747757f19ef015462f296c209a035f9b75265cc9276c8f3cd494b",
    "inject/ablation":
        "e109f1af869c3cfeef2ef424af99cc43362f828829c2a555217299292ce863c4",
    "inject/capacity-growth":
        "f4b3277a3432e992f1b378887453e196a1821013516efd3a90c6978be1fc3f6e",
    "inject/cycle":
        "75d7f57b4380defac6642879f98272f1950d94085c1bbaded2a1729ea9aba98a",
    "inject/double-release":
        "b85d912380b2156d63a3187cb693f41b907275aa0a06bc0d4467d87b8d587d23",
    "inject/illegal-p2p":
        "328f8da9d7a88d6a232100809fe6887d2df2c27cf7613d4d86235ead8778c7a3",
    "inject/over-capacity":
        "6c6cad0b580f8571b0b9ac6802c2cecf16ffea324dc4a7a0486e40e5774dd7de",
    "inject/rw-race":
        "76c350e1b0ca9ea23218beef1464e64edcbfed0e4db80367cdecd28b81a9bdc9",
    "inject/use-after-evict":
        "86a5025dbf12c1e488ba6e7fbd04df19dcf395c1d9bbc2977accd7643407d993",
    "inject/use-before-fetch":
        "f44da4ea623d0714ba181b1b230256e3187d32da0d6c5f0b9cfc14f5de5d9a85",
    "inject/use-before-produce":
        "9ffc48dc5472a31e8b5ba00672b72f2e5692dd11373fe45fe6a384d7cae64505",
    "inject/war-race":
        "0bf287aa9755ad105a708eb00dbe17e6411373b2835e6dcab59c80197130ad4b",
    "inject/waw-race":
        "fbccf393e0f28b2f2a13d4a94e4f19a4cb67deb4bf8724881eaaf395e4c9f667",
    "lms/2bw-swap-r/bert-large":
        "494f1fe1131e0bf340f07f8af3209ef2cd02ab038aac00c0fb3e04ab47e22c30",
    "lms/2bw-swap-r/tiny-cnn":
        "b033c430786235ff52246289fdce5fac4510730f5eaf3d062f69b9030a47814c",
    "lms/2bw-swap-r/toy-transformer":
        "72108d47987fb908dc455882f242f67221262e37995236f0dea605ea7b807f3d",
    "lms/2bw-swap/bert-large":
        "494f1fe1131e0bf340f07f8af3209ef2cd02ab038aac00c0fb3e04ab47e22c30",
    "lms/2bw-swap/tiny-cnn":
        "b033c430786235ff52246289fdce5fac4510730f5eaf3d062f69b9030a47814c",
    "lms/2bw-swap/toy-transformer":
        "72108d47987fb908dc455882f242f67221262e37995236f0dea605ea7b807f3d",
    "lms/dp-swap/bert-large":
        "4c9f700c221fdda067e3c37eab3561b647b99e06cba66f6da1138a4815d8bc21",
    "lms/dp-swap/tiny-cnn":
        "e320612928a1ea26e6823ec3fcd70465c4d94ca0ace89165301dd83b5c34edb8",
    "lms/dp-swap/toy-transformer":
        "e32978e467a2f04d65576c72cacfdae318c80c4520e6e0f72dc1ba27b4fbb04f",
    "lms/gp-swap-r/bert-large":
        "79b7c5328e3d0d015b0d98089638aff33cefa51f3081539efaf1cf9d971f0e27",
    "lms/gp-swap-r/tiny-cnn":
        "e5e3347b1a1cc2d85619d1ab7c6b91e778e44a22b620fbb04dbb7a204def4e78",
    "lms/gp-swap-r/toy-transformer":
        "7374e8d2acd835eec28cb94efe02675e502a69c0992de09e53cf002b273b3de7",
    "lms/gp-swap/bert-large":
        "79b7c5328e3d0d015b0d98089638aff33cefa51f3081539efaf1cf9d971f0e27",
    "lms/gp-swap/tiny-cnn":
        "e5e3347b1a1cc2d85619d1ab7c6b91e778e44a22b620fbb04dbb7a204def4e78",
    "lms/gp-swap/toy-transformer":
        "7374e8d2acd835eec28cb94efe02675e502a69c0992de09e53cf002b273b3de7",
}


def test_cases_cover_every_pin():
    assert set(CASES) == set(DIGESTS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_verdict_pinned(case):
    assert digest(case) == DIGESTS[case], json.dumps(
        verdict(*CASES[case]()), indent=1, sort_keys=True
    )
