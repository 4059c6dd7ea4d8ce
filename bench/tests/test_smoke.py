"""One pass of each workload through the real entry point."""

import json
from pathlib import Path

import pytest

import run

BENCHMARK = json.loads(
    (Path(run.BENCH).parent / "BENCHMARK.json").read_text()
)


def _run(capsys, tmp_path, monkeypatch, workload, trace):
    monkeypatch.setattr(run, "SETUPS", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    code = run.main(["--workload", workload, "--seed", "0", "--seconds", "0",
                     "--trace", str(trace), "--out", str(tmp_path)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_one_pass_reports_every_end_to_end_metric(workload, capsys, tmp_path,
                                                  monkeypatch):
    result = _run(capsys, tmp_path, monkeypatch, workload, trace=0)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_pass_reports_every_per_layer_metric(capsys, tmp_path,
                                                    monkeypatch):
    result = _run(capsys, tmp_path, monkeypatch, "simulate-traced", trace=1)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["bench.covered_frac"] >= 0.9
    assert values["trace.recorder.self_share"] > 0
    assert values["core.search.calls"] == 0
    trace = json.loads((tmp_path / "simulate-traced-s0.trace.json").read_text())
    assert trace["traceEvents"]
    records = [json.loads(p.read_text()) for p in tmp_path.glob("*-0.json")]
    assert len(records) == 1 and records[0]["trace"] == 1
