"""The Runtime Estimator is exact on an ideal fabric.

The estimator times tasks by the Runtime's own rule (``TrueTimeModel``)
and differs from a simulated run only in its layer times (fitted, not
kernel) and in ignoring link sharing.  Feed the Runtime the fitted
times, and run it on a fabric where no two transfers share a link --
one GPU per switch, uplinks and the NVLink mesh as fast as the leaves --
and the two must agree to the bit.

Every bench-zoo case at its warm-up size, with prefetch on and off, is
planned on such a server and its winner run for one iteration.  The
cases where the estimator still differs (all low: it grants the Runtime
waits it does not model) are pinned in ``INEXACT``.  The set may only
shrink: a case that becomes exact is removed from it.
"""

from __future__ import annotations

from repro.core.harmony import Harmony, HarmonyOptions
from repro.experiments.common import server_for
from repro.hardware.interconnect import TopologySpec
from repro.hardware.server import ServerSpec
from repro.runtime.executor import run_phase
from repro.runtime.timemodel import TrueTimeModel

#: The bench zoo (``bench/workloads.py``): every model x mode x GPU count.
MODELS = ("gpt2", "gpt2-medium", "bert96", "bert-large", "vgg416", "resnet1k")
COMBOS = tuple(
    (model, mode, gpus)
    for model in MODELS for mode in ("pp", "dp") for gpus in (4, 8)
)

#: (model, mode, gpus, prefetch) whose estimate is not the iteration time,
#: with the relative drift measured when pinned.
INEXACT = {
    ("gpt2", "pp", 4, True),        # -1.24%
    ("gpt2", "pp", 4, False),       # -2.80%
    ("gpt2", "dp", 4, False),       # -1.85%
    ("vgg416", "dp", 4, False),     # -16.6%
    ("vgg416", "dp", 8, False),     # -16.6%
    ("resnet1k", "pp", 4, False),   # -20.7%
}


def ideal_server(gpus: int) -> ServerSpec:
    """``server_for(gpus)`` with no shared link: a switch per GPU, and
    uplinks and NVLink at the leaf bandwidth."""
    base = server_for(gpus)
    bandwidth = base.topology.leaf_bandwidth
    return ServerSpec(
        n_gpus=gpus, gpu=base.gpu, host=base.host,
        topology=TopologySpec(n_gpus=gpus, gpus_per_switch=1,
                              leaf_bandwidth=bandwidth,
                              uplink_bandwidth=bandwidth,
                              nvlink_bandwidth=bandwidth),
    )


def test_estimate_is_the_iteration_time_on_an_ideal_fabric():
    inexact = {}
    for prefetch in (True, False):
        for model, mode, gpus in COMBOS:
            server = ideal_server(gpus)
            minibatch = 8 if mode == "pp" else 2 * gpus
            harmony = Harmony(model, server, minibatch,
                              options=HarmonyOptions(mode=mode,
                                                     prefetch=prefetch))
            plan = harmony.plan()
            metrics = run_phase(
                server, plan.graph,
                TrueTimeModel(plan.profiles, server.host, server.n_gpus),
                prefetch=prefetch,
                host_state_bytes=harmony.host_state_bytes,
            )
            estimate = plan.search.best_estimate
            actual = metrics.iteration_time
            if estimate != actual:
                inexact[(model, mode, gpus, prefetch)] = \
                    (estimate - actual) / actual
    new = {case: f"{drift:+.4%}" for case, drift in inexact.items()
           if case not in INEXACT}
    assert not new, f"estimate no longer the iteration time: {new}"
