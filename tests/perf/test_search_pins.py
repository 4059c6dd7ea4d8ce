"""Pins every configuration Algorithm 1 explores, with its exact estimate.

``bench/golden.json`` and the work-count gate see only a search's winner
and its candidate count, so a change to packing (Algorithm 2), graph
assembly or the Runtime Estimator could move a losing candidate's score,
or swap one candidate for another, without either noticing.  For each
problem below this suite pins the sha256 of every explored
``(u_f, packs_f, u_b, packs_b, float.hex(estimate))`` in enumeration
order, plus the feasible / infeasible counts.

A speed-up of the planner must leave every digest unchanged; a
deliberate change to the search or the cost model re-measures them.
"""

import hashlib

import pytest

from repro.core.harmony import Harmony, HarmonyOptions
from repro.experiments.common import server_for

#: (model, mode, gpus, minibatch) -> (sha256, n_feasible, n_infeasible)
PINS = {
    ("gpt2", "pp", 4, 32): (
        "324b7c57867978d7685ceee9526f3458663c3ab518ebde306624fdf1edd8279c",
        68, 0),
    ("vgg416", "pp", 4, 16): (
        "9e8d2c424bd7ed1bb050e5f81289cbea4d8cbf09b01c5a68eefa818d00ca4a30",
        91, 0),
    ("resnet1k", "pp", 8, 16): (
        "50621c0d7fa673de76e6aa66c326c14628d2a39be842d019e73f5d074bd6821f",
        96, 0),
    ("bert-large", "dp", 4, 16): (
        "d520536fc4a9cbd936250cba787c5a2de5a2b64bc5af40a8210c3b918ecfec25",
        9, 0),
    ("vgg416", "dp", 4, 16): (
        "bb7df0d66b3423ae7ddf8a36ad39db0a8995be9c11fb05757f918766b557a952",
        9, 0),
}


def _packs(packs) -> str:
    return ",".join(f"{p.first}-{p.last}" for p in packs)


def search_digest(search) -> str:
    """sha256 over the explored configurations and their estimates."""
    lines = []
    for entry in search.explored:
        config = entry.config
        lines.append(
            f"{config.u_f}|{_packs(config.packs_f)}|{config.u_b}|"
            f"{_packs(config.packs_b)}|{entry.estimate.hex()}"
        )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize(
    "problem", list(PINS),
    ids=lambda p: f"{p[0]}-{p[1]}-x{p[2]}-mb{p[3]}",
)
def test_explored_search_is_pinned(problem):
    model, mode, gpus, minibatch = problem
    harmony = Harmony(model, server_for(gpus), minibatch,
                      options=HarmonyOptions(mode=mode))
    search = harmony.plan().search
    digest, n_feasible, n_infeasible = PINS[problem]
    assert (search_digest(search), search.n_feasible,
            search.n_infeasible) == (digest, n_feasible, n_infeasible)
