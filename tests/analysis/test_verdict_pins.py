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
        "30fbabef6a660032de9b977ca0d2066e294dcc44f8b675e63008cea58e65c2af",
    "bench/bert-large/dp/8/16":
        "4f213da373f69b5a78af6c05573b3171f0ad29da9b073bf9962828f869fdcfec",
    "bench/bert-large/pp/4/8":
        "a1e5042f31cd06cc9c60058b099f9c501d9c586d80c25b17cb52cdf69e2448fc",
    "bench/bert-large/pp/8/8":
        "1526bf1e2e154bfbc57352b08d0db9bd5bb0ef5310039296716dd5527a8df028",
    "bench/bert96/dp/4/8":
        "2367fd18f60a0d2126a36c786e124a4cb14ff34ff67d37abcb231ce4ad0bda4f",
    "bench/bert96/dp/8/16":
        "f9bef7cb16682005199bb90578dcbea7c14c4c852d488fd47b18b812b8743805",
    "bench/bert96/pp/4/8":
        "7163c8a681451eca1dfe2540555fd7f84356abec31fdc83cf8367f83acd347f6",
    "bench/bert96/pp/8/8":
        "94f910e8fd534f9fc7146f7f5ba711c6c9233656fe8fcdcd6200d7dd8cf70677",
    "bench/gpt2-medium/dp/4/8":
        "8e7e7d2d5dcd09741d9f877b2cabaebf3e355dd76a56dab9664389a7af81713a",
    "bench/gpt2-medium/dp/8/16":
        "3a3cb77ffde78e82747abc30b887b35348ef6481edd356fc1f320c12e57abec6",
    "bench/gpt2-medium/pp/4/8":
        "d0333f0997646196551e05a0d4423f7d05a3f4551f2869cb6acfa87074f2d7de",
    "bench/gpt2-medium/pp/8/8":
        "daa50574ca2b34a304d1f7e46c344c0043c1b0ff47ffc58bc7bb8eeb040d6332",
    "bench/gpt2/dp/4/8":
        "566aee4940fb79e5127423cd868878e38ec54f11b5dc778929e432e71a03e972",
    "bench/gpt2/dp/8/16":
        "49407efee37b19e37f86afb42501fae9be41cc03987f5fe916818c653d158fa0",
    "bench/gpt2/pp/4/8":
        "7583212f05661e0289eb369f904cc63063ae03cfab477430d89e87c2f596d7b2",
    "bench/gpt2/pp/8/8":
        "3c99097134022e962e1465978e7a46d1cb76e6392f6c4cde983c93887532f56b",
    "bench/resnet1k/dp/4/8":
        "723020d081b11ba03054b3ac765015aba4a4427d7c25c355b69cf9c346d7a6de",
    "bench/resnet1k/dp/8/16":
        "bd3c258883bf2ef2bb507fb0f0ec49b88e0a351e32ea7ef244b5d377c8641b92",
    "bench/resnet1k/pp/4/8":
        "1b9d1a8ddbe4ccf6ef20c9792da4cdb94e25ff1780b6d3bc980b9244a916b82b",
    "bench/resnet1k/pp/8/8":
        "48af172d8c9b11f9fc8d3abde16865ab1f6113ebf99577c64f4f849c51432309",
    "bench/vgg416/dp/4/8":
        "a68e8c40ca2141e6f3be87c546f9b77a680cb5116ee53657a35618609135e341",
    "bench/vgg416/dp/8/16":
        "96adfcde07b93a139b056f9e4a38fadeff1dd1a0e1a77931d331bdcf656e9cda",
    "bench/vgg416/pp/4/8":
        "509574245f687a4cc685b8210e942ea9971d78d5592e62df20b4c650daaa8c80",
    "bench/vgg416/pp/8/8":
        "a3988b95ac335156c78587ee15399279831845152ff7e520ae018d64b9847c26",
    "bind/hetero":
        "10e9a4e69d2bbe36f0fcf3f144758e498476ef043e05f1600f09c5a10bb6c143",
    "bind/identity":
        "10e9a4e69d2bbe36f0fcf3f144758e498476ef043e05f1600f09c5a10bb6c143",
    "bind/oversubscribed":
        "54446bc37acae44c6f6cd4ff60731a95e6e939794b324edd6b0f7206b4d42ff3",
    "bind/time-slice":
        "d7acd7ac7a019d993debb626c2b40b174733fa63b0b59dcce5eecde7cdc488f7",
    "inject/ablation":
        "ae07b773d9dd8e6b97e4eb133a77b677d1680cff90c5aeb13ed3a871983a9cb5",
    "inject/capacity-growth":
        "3fbbd5ae7e1d4d648f0c91417696629b4ed21e56c927f56911231a58885870c9",
    "inject/cycle":
        "c1465ce72544c01082a4842cdef4711f3e51aecc6431becd2cb6ce2f81a94ba7",
    "inject/double-release":
        "06cbb2c2ef4f9b1ea1b1c87e5a63148a738ab6a39510a2db37d2e2821d9ab5d7",
    "inject/illegal-p2p":
        "79a9400766525d192c35e1e4da5032cfc0b85d65415c4a1e30fd2e4725c4254d",
    "inject/over-capacity":
        "5156e800f722e3f6b064f7a83fae8f6e51c3dd1533e3c3dafca47e9363be4df9",
    "inject/rw-race":
        "b7a1eb81fa1a767196b28390375cc200f809846c919f99f054fdac3acfb2254d",
    "inject/use-after-evict":
        "f06b32e0b3c64886cd309f9fb6ad82a45ab136c71a6f4a8fb5837a9ec6188a39",
    "inject/use-before-fetch":
        "cc85144224fdb2d16348ce24f45f55047dbdfb81a51645eb2b5c27f8af8bead8",
    "inject/use-before-produce":
        "09ff88e3f2756ef99023e13bf23a70da05f0185de504d37ed934ae479d8e8de2",
    "inject/war-race":
        "1e700bfabc8104eac2867e7ff820c8e165539217df6549150e7bbb4b9a6e07c5",
    "inject/waw-race":
        "3c15ae8d3b082e0d13617c034995aefb0aed83c498492f20d7cc9820ade19ff6",
    "lms/2bw-swap-r/bert-large":
        "ada9aa8ea5dc29392f80afe7cc2527ff3799fc5b2a3d929f16e8430591da39f4",
    "lms/2bw-swap-r/tiny-cnn":
        "9e2f594a190c27485933f2bb2b67cb66603cc8421c1853f171df1581833dca7b",
    "lms/2bw-swap-r/toy-transformer":
        "b84ca86d480bc24fd8a84fdccefb8d7cd5612230f953c181d1685b1a7677ce4e",
    "lms/2bw-swap/bert-large":
        "ada9aa8ea5dc29392f80afe7cc2527ff3799fc5b2a3d929f16e8430591da39f4",
    "lms/2bw-swap/tiny-cnn":
        "9e2f594a190c27485933f2bb2b67cb66603cc8421c1853f171df1581833dca7b",
    "lms/2bw-swap/toy-transformer":
        "b84ca86d480bc24fd8a84fdccefb8d7cd5612230f953c181d1685b1a7677ce4e",
    "lms/dp-swap/bert-large":
        "0f6b7ac2c73faa0caaea5d26a277018f60e5bcc167bb2505c8f8357b641c4f14",
    "lms/dp-swap/tiny-cnn":
        "0ca1ea9ae84d5a70c220aabb11c6143a25a00a6b002200cd1fa1b362eb7e715a",
    "lms/dp-swap/toy-transformer":
        "a64697a5fe727760a5517d253e1e3740b9d850bf849a9d114dbc9e706e5644e2",
    "lms/gp-swap-r/bert-large":
        "89911fe9d69c232cb2c6cc8a35fd9ca4eb14cda6c04da71429ad1a0915f8e55e",
    "lms/gp-swap-r/tiny-cnn":
        "7bd5bd7e6e23f7aca7cc321582ec4343b82bff7fc9bee6f094238996e4095c1c",
    "lms/gp-swap-r/toy-transformer":
        "f27af696dcdc9867c914018436103343b8deda06a7b768b414b6470d9af7ea1f",
    "lms/gp-swap/bert-large":
        "89911fe9d69c232cb2c6cc8a35fd9ca4eb14cda6c04da71429ad1a0915f8e55e",
    "lms/gp-swap/tiny-cnn":
        "7bd5bd7e6e23f7aca7cc321582ec4343b82bff7fc9bee6f094238996e4095c1c",
    "lms/gp-swap/toy-transformer":
        "f27af696dcdc9867c914018436103343b8deda06a7b768b414b6470d9af7ea1f",
}


def test_cases_cover_every_pin():
    assert set(CASES) == set(DIGESTS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_verdict_pinned(case):
    assert digest(case) == DIGESTS[case], json.dumps(
        verdict(*CASES[case]()), indent=1, sort_keys=True
    )
