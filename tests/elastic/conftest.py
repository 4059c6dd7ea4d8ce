"""Shared fixtures for the elastic re-planning suite.

Session-scoped Harmony drivers (planning is the expensive part) plus a
runner factory that wires the real :class:`ElasticReplanner` -- the
tests exercise the exact escalation path production chaos runs take.
"""

import pytest

from repro.core.harmony import Harmony, HarmonyOptions
from repro.elastic import ElasticReplanner
from repro.experiments.common import server_for
from repro.faults.policy import RecoveryPolicy
from repro.faults.runner import FaultTolerantRunner
from repro.runtime.timemodel import KernelTimes, TrueTimeModel


def _planned(model, gpus, minibatch, mode):
    harmony = Harmony(
        model, server_for(gpus), minibatch,
        options=HarmonyOptions(mode=mode),
    )
    harmony.plan()
    return harmony


@pytest.fixture(scope="session")
def toy_pp():
    """Toy-transformer PP on 2 GPUs: both used, both own state."""
    return _planned("toy-transformer", 2, 8, "pp")


@pytest.fixture(scope="session")
def toy_dp():
    """Toy-transformer DP on 2 GPUs: both used, gpu0 owns all state."""
    return _planned("toy-transformer", 2, 8, "dp")


@pytest.fixture(scope="session")
def toy_pp4():
    """Toy-transformer PP on 4 GPUs (spares exist for rebind tests)."""
    return _planned("toy-transformer", 4, 8, "pp")


@pytest.fixture
def make_elastic_runner():
    """Build a FaultTolerantRunner with the real replanner attached."""

    def build(harmony, plan, policy=None, spec=None, replanner="auto",
              **kwargs):
        spec = spec if spec is not None else harmony.server
        hplan = harmony.plan()
        time_model = TrueTimeModel(
            KernelTimes(hplan.decomposed, spec.gpu), spec.host,
            n_gpus=spec.n_gpus,
        )
        if replanner == "auto":
            replanner = ElasticReplanner(harmony)
        return FaultTolerantRunner(
            spec, time_model, plan,
            policy=policy if policy is not None else RecoveryPolicy(),
            host_state_bytes=harmony.host_state_bytes,
            replanner=replanner,
            **kwargs,
        )

    return build
