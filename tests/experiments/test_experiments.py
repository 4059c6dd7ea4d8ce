"""Fast-mode smoke tests for every experiment module.

The full settings (and the paper-shape assertions) run under
``benchmarks/``; here we check each module produces well-formed rows
quickly, so a broken experiment fails in the unit suite too.
"""

import importlib

import pytest

from repro.experiments.common import Row, render

MODULES = [
    "fig01_growth",
    "fig02_bottleneck",
    "fig07_packing",
    "fig08_memory",
    "fig09_throughput",
    "fig10_swapload",
    "fig11_zero",
    "fig12_correctness",
    "fig13_ablation",
    "fig15_massive",
    "fig16_scaling",
    "tab01_search",
    "tab04_equifb",
]


@pytest.mark.parametrize("name", MODULES)
def test_fast_mode_produces_rows(name):
    module = importlib.import_module(f"repro.experiments.{name}")
    rows = module.run(fast=True)
    assert rows, name
    assert all(isinstance(row, dict) for row in rows)
    # Rows are renderable and rectangular.
    text = render(rows)
    assert len(text.splitlines()) == len(rows) + 2


def test_render_formats_numbers():
    rows: list[Row] = [{"a": 1234.5678, "b": 0.00123, "c": "x"}]
    text = render(rows)
    assert "1235" in text
    assert "0.00123" in text


def test_render_handles_missing_columns():
    text = render([{"a": 1}, {"b": 2}], columns=["a", "b"])
    assert "a" in text and "b" in text


def test_fig01_headline_mentions_growth():
    from repro.experiments import fig01_growth

    rows = fig01_growth.run()
    assert "grew" in fig01_growth.headline(rows)


def test_fig09_normalized_reference_is_one():
    from repro.experiments import fig09_throughput

    rows = fig09_throughput.run(fast=True)
    for row in fig09_throughput.normalized(rows):
        if row["scheme"] == "harmony-pp":
            assert row["normalized_iteration"] == pytest.approx(1.0)


def test_run_scheme_memoized():
    from repro.experiments.common import run_scheme

    a = run_scheme("harmony-pp", "gpt2", 16)
    b = run_scheme("harmony-pp", "gpt2", 16)
    assert a is b


def test_lms_scheme_table_names_match_planners():
    from repro.experiments.common import LMS_SCHEMES, SCHEMES, server_for

    for scheme, (planner_cls, kwargs) in LMS_SCHEMES.items():
        planner = planner_cls("toy-transformer", server_for(2), 8, **kwargs)
        assert planner.name == scheme
        assert scheme in SCHEMES


def test_run_scheme_rejects_unknown_scheme():
    from repro.experiments.common import run_scheme

    with pytest.raises(ValueError, match="unknown scheme"):
        run_scheme("gp-swap-x", "toy-transformer", 8, 2)
