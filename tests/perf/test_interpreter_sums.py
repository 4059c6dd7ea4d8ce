"""The float pins hold when builtin ``sum`` is Python 3.12's.

The ``float.hex`` pins were recorded on Python 3.11, whose builtin
``sum`` adds floats left to right.  Python 3.12's compensates them, so
any pinned float that some source fold reduces with builtin ``sum``
would move there.  This suite swaps :func:`tests.sum312.sum312` (a port
of 3.12's ``sum``) in for ``builtins.sum`` and reruns the search,
analytics, phase and baseline-plan pins, with every process-wide store
emptied so each plan, profile and kernel time is computed under it.

The pins are never re-recorded for this: a failure here means a source
fold must move to :func:`repro.common.ordered_sum`.
"""

from __future__ import annotations

import builtins
import importlib.util
from pathlib import Path
from types import ModuleType

import pytest

from tests.sum312 import sum312

TESTS = Path(__file__).resolve().parents[1]


def _pins(relative: str) -> ModuleType:
    """Load a pin module by path (``tests/trace`` is not a package)."""
    path = TESTS / relative
    spec = importlib.util.spec_from_file_location(
        f"sum312_{path.stem}", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


search_pins = _pins("perf/test_search_pins.py")
analytics_pins = _pins("trace/test_analytics_pins.py")
phase_pins = _pins("runtime/test_phase_pins.py")
plan_pins = _pins("baselines/test_plan_pins.py")


@pytest.fixture
def sum_is_312(monkeypatch, cold_stores):
    monkeypatch.setattr(builtins, "sum", sum312)


@pytest.mark.parametrize(
    "problem", list(search_pins.PINS),
    ids=lambda p: f"{p[0]}-{p[1]}-x{p[2]}-mb{p[3]}",
)
def test_search_pins(sum_is_312, problem):
    search_pins.test_explored_search_is_pinned(problem)


@pytest.mark.parametrize("name", sorted(analytics_pins.RUNS))
def test_analytics_pins(sum_is_312, name):
    analytics_pins.test_analytics_pinned(name)


@pytest.mark.parametrize("name", sorted(phase_pins.RUNS))
def test_phase_pins(sum_is_312, name):
    phase_pins.test_phase_pinned(name)


@pytest.mark.parametrize("case", plan_pins.CASES)
def test_baseline_plan_pins(sum_is_312, case):
    plan_pins.test_baseline_plan_pinned(case)


def test_the_swap_reaches_the_source(sum_is_312):
    """``sum`` is looked up in builtins at call time, so the port really
    runs inside ``repro``: a float fold written with ``sum`` there would
    get 3.12's bits."""
    assert eval("sum([0.1] * 10)", {}) == 1.0
