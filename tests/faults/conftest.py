"""Shared fixtures for the chaos/fault-injection suite.

The recovery tests run the real toy-transformer schedule (planned once
per mode, session-scoped) under scripted or seeded fault plans, so they
exercise the same executor paths production chaos runs do.
"""

import pytest

from repro.core.harmony import Harmony, HarmonyOptions
from repro.experiments.common import server_for
from repro.faults.policy import RecoveryPolicy
from repro.faults.runner import FaultTolerantRunner
from repro.runtime.timemodel import KernelTimes, TrueTimeModel


@pytest.fixture(scope="session")
def toy_harmony():
    """Planned toy-transformer in PP mode on the 2-GPU shrunk testbed."""
    harmony = Harmony(
        "toy-transformer", server_for(2), minibatch=8,
        options=HarmonyOptions(mode="pp"),
    )
    harmony.plan()
    return harmony


@pytest.fixture(scope="session")
def toy_harmony_dp():
    harmony = Harmony(
        "toy-transformer", server_for(2), minibatch=8,
        options=HarmonyOptions(mode="dp"),
    )
    harmony.plan()
    return harmony


@pytest.fixture
def make_runner(toy_harmony):
    """Build a FaultTolerantRunner around the toy plan.

    ``spec`` defaults to the plan's own 2-GPU server; the re-bind tests
    pass a larger server so a healthy spare device exists.
    """

    def build(plan, policy=None, spec=None, **kwargs):
        spec = spec if spec is not None else toy_harmony.server
        hplan = toy_harmony.plan()
        time_model = TrueTimeModel(
            KernelTimes(hplan.decomposed, spec.gpu), spec.host,
            n_gpus=spec.n_gpus,
        )
        host_state = (
            toy_harmony.model.model_state_bytes
            + toy_harmony.minibatch * toy_harmony.model.sample_bytes
        )
        return FaultTolerantRunner(
            spec, time_model, plan,
            policy=policy if policy is not None else RecoveryPolicy(),
            host_state_bytes=host_state,
            **kwargs,
        )

    return build
