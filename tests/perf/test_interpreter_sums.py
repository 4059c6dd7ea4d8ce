"""The float pins hold when builtin ``sum`` is Python 3.12's.

The ``float.hex`` pins were recorded on Python 3.11, whose builtin
``sum`` adds floats left to right.  Python 3.12's compensates them, so
any pinned float that some source fold reduces with builtin ``sum``
would move there.  This suite swaps :func:`tests.sum312.sum312` (a port
of 3.12's ``sum``) in for ``builtins.sum`` and rechecks the search,
analytics, phase and baseline-plan goldens, with every process-wide
store emptied so each plan, profile and kernel time is computed under it.

The goldens are never regenerated for this: a failure here means a
source fold must move to :func:`repro.common.ordered_sum`.
"""

from __future__ import annotations

import builtins

import pytest

from tests.goldens import ANALYTICS, BASELINE, PHASE, SEARCH, check
from tests.sum312 import sum312


@pytest.fixture
def sum_is_312(monkeypatch, cold_stores):
    monkeypatch.setattr(builtins, "sum", sum312)


@pytest.mark.parametrize("problem", SEARCH.cases)
def test_search_pins(sum_is_312, problem):
    check(SEARCH, problem)


@pytest.mark.parametrize("name", ANALYTICS.cases)
def test_analytics_pins(sum_is_312, name):
    check(ANALYTICS, name)


@pytest.mark.parametrize("name", PHASE.cases)
def test_phase_pins(sum_is_312, name):
    check(PHASE, name)


@pytest.mark.parametrize("case", BASELINE.cases)
def test_baseline_plan_pins(sum_is_312, case):
    check(BASELINE, case)


def test_the_swap_reaches_the_source(sum_is_312):
    """``sum`` is looked up in builtins at call time, so the port really
    runs inside ``repro``: a float fold written with ``sum`` there would
    get 3.12's bits."""
    assert eval("sum([0.1] * 10)", {}) == 1.0
