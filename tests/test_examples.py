"""Runs the baselines example: the one caller of every baseline
constructor outside the package."""

import importlib.util
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

ROWS = (
    "dp-swap", "gp-swap", "gp-swap (R)", "2bw-swap", "2bw-swap (R)",
    "zero-infinity", "harmony-dp", "harmony-pp",
)


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_baselines_prints_every_scheme(capsys):
    load("compare_baselines").main("toy-transformer", 8)
    out = capsys.readouterr().out
    assert "== toy-transformer, minibatch 8," in out
    lines = out.splitlines()
    for scheme in ROWS:
        assert any(line.startswith(f"{scheme}  ") for line in lines), (
            scheme, out)
    assert "faster than DP Swap" in out
