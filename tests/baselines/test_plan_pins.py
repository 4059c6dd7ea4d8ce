"""Pins every baseline plan task-for-task and move-for-move.

Each case plans one scheme on a toy model; its golden
``tests/golden/baseline/<scheme>/<model>/<gpus>/<gpu>.txt`` holds the
sha256 of a canonical dump of the plan (every task field and every move,
in tid order, floats via ``float.hex``) and a readable summary: the
plan's header and, per device, its task count, layer span and swap bytes.
The cases cover all six schemes on both toy models, on 2 and 4 GPUs, on
the stock commodity GPU and on a 2 MiB GPU, where the LMS replay evicts
and refetches.  Any change to what a baseline planner emits moves a
digest, and the summary shows what moved.
"""

import pytest

from tests.goldens import BASELINE, check


@pytest.mark.parametrize("case", BASELINE.cases)
def test_baseline_plan_pinned(case):
    check(BASELINE, case)
