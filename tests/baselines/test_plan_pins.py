"""Pins every baseline plan task-for-task and move-for-move.

Each case plans one scheme on a toy model and pins the sha256 of a
canonical dump of the result: the graph's mode, device count and swap
path; every task field and every move, in tid order (floats via
``float.hex``); and the plan's ``microbatch``, ``host_state_bytes`` and
``notes``.  The cases cover all six schemes on both toy models, on 2 and
4 GPUs, once on the stock commodity GPU (cold fetches and end-of-
iteration flushes only) and once on a 2 MiB GPU, where the LMS replay
evicts and refetches.

Any change to what a baseline planner emits moves a digest.
"""

import dataclasses
import hashlib
from functools import partial

import pytest

from repro.baselines import (
    DpSwapPlanner,
    GpipeSwapPlanner,
    PipeDream2BWPlanner,
    ZeroInfinityPlanner,
)
from repro.core.types import Move, Task
from repro.experiments.common import server_for

MINIBATCH = 16

SCHEMES = {
    "dp-swap": DpSwapPlanner,
    "gp-swap": GpipeSwapPlanner,
    "gp-swap-r": partial(GpipeSwapPlanner, recompute=True),
    "2bw-swap": PipeDream2BWPlanner,
    "2bw-swap-r": partial(PipeDream2BWPlanner, recompute=True),
    "zero-infinity": ZeroInfinityPlanner,
}

#: GPU memory per case: ``None`` keeps the commodity GPU's.
GPU_MEMORY = {"stock": None, "2MiB": 2 * 2**20}

#: "scheme/model/gpus/gpu" -> sha256 of the canonical plan dump
DIGESTS = {
    "dp-swap/toy-transformer/2/stock":
        "14de71d9a4e40bdaef0198e539fd22953f67e8d9ab7fcfdfacfea26fc247a5cf",
    "dp-swap/toy-transformer/2/2MiB":
        "7e86354e031f3ca2f405e3b9131989611434c315c37e583408201824f3192f92",
    "dp-swap/toy-transformer/4/stock":
        "4cbb828c8d15c5a1ff3a7e4b2515b2e73b9d835edac07af60e21dd91ebaa0d59",
    "dp-swap/toy-transformer/4/2MiB":
        "5bc023b46a0ecb629f88c0a7309c24285000a924bb7407a1bee4946c6814ab29",
    "dp-swap/tiny-cnn/2/stock":
        "70245f7f6852cef38c8fb38535f6d79e24908ba53e18a2494bf8fa005813ad48",
    "dp-swap/tiny-cnn/2/2MiB":
        "9f361742a82b60994f1beeb921f2c5bed0df2af89ca8a709a6b4b91d4e718c99",
    "dp-swap/tiny-cnn/4/stock":
        "b6ae9d78562db807b88c489e6ddc07e17104d8bf1556eb8d4c9408caddf479db",
    "dp-swap/tiny-cnn/4/2MiB":
        "3c8ac96b57f211ead617fec175b98d727f98a53d01a05bcfdf6dc15dcc24404e",
    "gp-swap/toy-transformer/2/stock":
        "0f1bd1bc1d8d117bedc930cb881f436b51c3c8cc8f39a9c26badee755fb2bcb3",
    "gp-swap/toy-transformer/2/2MiB":
        "99998ec99554dfbacf1a77ac147bb102c3bc211e10d6cc4e6779d8af6352fae9",
    "gp-swap/toy-transformer/4/stock":
        "bf36f605e3befb73bba5d0fe4189de132c46ef62b5ae4c43c52f07898cbb62b2",
    "gp-swap/toy-transformer/4/2MiB":
        "d424d3101f2ff33d299db9cf49ba5ad7afc5a7e918b404d9f8bf3699be100f41",
    "gp-swap/tiny-cnn/2/stock":
        "27ec3a811ac4fa7b9f12c4dfb4d06621c7e2e1024e585f68c7725634dbe5a161",
    "gp-swap/tiny-cnn/2/2MiB":
        "8e69c944bf14907da56a0cdd3efcc1c5f3c5610b4c7bd287da178ee97447b1cb",
    "gp-swap/tiny-cnn/4/stock":
        "c237328266ddfa203f1b184d86d4b42e42400a49103c5ec64e93cc18f05b5779",
    "gp-swap/tiny-cnn/4/2MiB":
        "518dc1ab7874e35e8e2d954454a22d7eefe02d926a7eb3183ff417373f63b724",
    "gp-swap-r/toy-transformer/2/stock":
        "2ba414654eceead87d9d2d288d1ff83b119870153b8c9cd97d501813b56dcc25",
    "gp-swap-r/toy-transformer/2/2MiB":
        "59d83fc9bfa7a4c0185496e60109cc0e3abac33dacd02832f8dae02ce47842c5",
    "gp-swap-r/toy-transformer/4/stock":
        "91e8e08b316c36781abf1511ab7058367878489302a41428e784c1bc44d7560e",
    "gp-swap-r/toy-transformer/4/2MiB":
        "2685cac9f97ed21b2461aae21ba024c58e3e8fb1667a7efcf7a31c3ee3f00806",
    "gp-swap-r/tiny-cnn/2/stock":
        "52b526b994eefb0c28614588bcfe91d2eb64be76c093306399c8ae199bff9f93",
    "gp-swap-r/tiny-cnn/2/2MiB":
        "55d39f9f2afc0e30fee3bcab51b8865e9fde559d26111f57d902d1303b0c49bf",
    "gp-swap-r/tiny-cnn/4/stock":
        "fc59fa152adeb0821cc7c777369af5478ccc0e0a3bbcf25d356191f290f8350a",
    "gp-swap-r/tiny-cnn/4/2MiB":
        "fc59fa152adeb0821cc7c777369af5478ccc0e0a3bbcf25d356191f290f8350a",
    "2bw-swap/toy-transformer/2/stock":
        "0d860c2f415a3b152d035838e896bfc0d07ca503b8b1dd75d5c0b20046767c97",
    "2bw-swap/toy-transformer/2/2MiB":
        "7363cf0d337730b7b374c5e11a5a0050da83e96ef4974fe3c210f856a159e500",
    "2bw-swap/toy-transformer/4/stock":
        "a097dedd28d4a775f62a1f9312bc46f8fd79bee89c7a54cf2879ccd9f5133378",
    "2bw-swap/toy-transformer/4/2MiB":
        "874ca437283adb563b30c430dc08d27b7fd42860439bc3313aaef0d969da5ded",
    "2bw-swap/tiny-cnn/2/stock":
        "31f65c3026653a2fa205120f78ce13413e11bb9b4199338ad8c3a358fd99b331",
    "2bw-swap/tiny-cnn/2/2MiB":
        "3ce3e5d64212aa0f05b3ae6b02245c90861e1b2573d36a4949ccd05ce2bf0975",
    "2bw-swap/tiny-cnn/4/stock":
        "82cf022b88796f0d0b4cdb8d7e03da613ef7845d5c0f5bcf72b057be8d21c6b7",
    "2bw-swap/tiny-cnn/4/2MiB":
        "82cf022b88796f0d0b4cdb8d7e03da613ef7845d5c0f5bcf72b057be8d21c6b7",
    "2bw-swap-r/toy-transformer/2/stock":
        "d954a17332c3f969bcff38a4d67f861a35ef41578538b6bd3d1147c37bb2eb76",
    "2bw-swap-r/toy-transformer/2/2MiB":
        "4bcb7a54222fbd8c898c679824eeee5929101da96c5257a364a8ecf122c63e87",
    "2bw-swap-r/toy-transformer/4/stock":
        "7c36e3a6215075bea26b5f918e27f74a6a4683a537c77707bad9efdabe127fd8",
    "2bw-swap-r/toy-transformer/4/2MiB":
        "c3104fbaa3b6932de578c490303ba762ea5f4d10a9b06b825d9a438e3390475a",
    "2bw-swap-r/tiny-cnn/2/stock":
        "6a81acb6b52fe232b818f1b0dc8b4a017cd093bb1ae83a0f98be3f847735eab1",
    "2bw-swap-r/tiny-cnn/2/2MiB":
        "d40e802c32ea439c9f77cde73a5d240ee73517c4c9f2dbfebd423e2573698b5f",
    "2bw-swap-r/tiny-cnn/4/stock":
        "f7551cde3714d0876eeb4903769ea01046e5658260fb4223625baee888fdb108",
    "2bw-swap-r/tiny-cnn/4/2MiB":
        "f7551cde3714d0876eeb4903769ea01046e5658260fb4223625baee888fdb108",
    "zero-infinity/toy-transformer/2/stock":
        "100a797162682ff5475411f06be5c3fa3a16330732aeeeb111997cc5a923eadf",
    "zero-infinity/toy-transformer/2/2MiB":
        "cec8636aaa972e8f9f1904aa0e33220fc9cb9e4288ab15c79fc06df1b4dc4c50",
    "zero-infinity/toy-transformer/4/stock":
        "87c26311b836d65147edacae6a623475902afb6fdcf66f82c00b588c28bd99df",
    "zero-infinity/toy-transformer/4/2MiB":
        "b6dada8d687d661f929a85225db866e6c1049d93b9c2a481ab98b0eb60a3fd2f",
    "zero-infinity/tiny-cnn/2/stock":
        "71287be1f5c1ad5659ef8860dbb38a627d040c76738f2cd2708b050ae4de47dc",
    "zero-infinity/tiny-cnn/2/2MiB":
        "24db13372adb4f793c9a9a4acda234d17fba83666e882470b144d605c2add725",
    "zero-infinity/tiny-cnn/4/stock":
        "ea595cc5c956c54d1a625b636db1f75417fabc0f80b0506fc6d3f86df2d86ab3",
    "zero-infinity/tiny-cnn/4/2MiB":
        "f566a379d1d9f0650013895631bdb37f2b1d97e305a70c8b046297885021a71d",
}


def _canon(value) -> str:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Move):
        return "Move(" + ",".join(
            f"{f.name}={_canon(getattr(value, f.name))}"
            for f in dataclasses.fields(Move)
        ) + ")"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(item) for item in value) + "]"
    return repr(value)


def dump(plan) -> str:
    graph = plan.graph
    lines = [
        f"graph mode={graph.mode!r} n_devices={graph.n_devices} "
        f"pageable_swaps={graph.pageable_swaps}",
        f"scheme {plan.scheme!r}",
        f"microbatch {plan.microbatch}",
        f"host_state_bytes {plan.host_state_bytes}",
        f"notes {plan.notes!r}",
    ]
    for task in graph.tasks:
        lines.append(" ".join(
            f"{f.name}={_canon(getattr(task, f.name))}"
            for f in dataclasses.fields(Task)
        ))
    return "\n".join(lines)


def _server(n_gpus: int, memory):
    server = server_for(n_gpus)
    if memory is None:
        return server
    return dataclasses.replace(
        server, gpu=dataclasses.replace(server.gpu, memory_bytes=memory)
    )


CASES = [
    f"{scheme}/{model}/{n}/{gpu}"
    for scheme in SCHEMES
    for model in ("toy-transformer", "tiny-cnn")
    for n in (2, 4)
    for gpu in GPU_MEMORY
]


def plan_of(case: str):
    scheme, model, n, gpu = case.split("/")
    planner = SCHEMES[scheme](model, _server(int(n), GPU_MEMORY[gpu]),
                              MINIBATCH)
    return planner.plan()


@pytest.mark.parametrize("case", CASES)
def test_baseline_plan_pinned(case):
    text = dump(plan_of(case))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[case]
