"""Unit tests for the perf-regression gate (``scripts/perf_gate.py``).

The gate's whole job is to fail when perf regresses and stay quiet when
the machine is merely slower; synthetic reports pin both directions,
including the calibration-normalization that makes the committed
baseline portable across machines, the noise floor, the schema-version
refusal, and the planner-fact tripwire.  The committed baseline itself
is validated last.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from repro.perf.schema import SCHEMA_VERSION, validate

_REPO = Path(__file__).resolve().parent.parent.parent
_SCRIPT = _REPO / "scripts" / "perf_gate.py"
_spec = importlib.util.spec_from_file_location("perf_gate", _SCRIPT)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _case(**overrides):
    case = {
        "model": "gpt2", "mode": "pp", "gpus": 4, "minibatch": 32,
        "iterations": 1,
        "search_seconds": 0.4, "plan_seconds": 0.5, "run_seconds": 0.1,
        "trace_seconds": 0.15, "trace_overhead_seconds": 0.05,
        "n_feasible": 10, "n_infeasible": 2, "n_tasks": 40,
        "best_estimate": 1.5, "iteration_time_sim": 1.6,
    }
    case.update(overrides)
    return case


def _service(**overrides):
    service = {
        "requests": 200, "seed": 0, "chaos_intensity": 1.0,
        "serve_seconds": 0.2, "requests_per_second": 1000.0,
        "cache_hit_rate": 0.95, "shed_rate": 0.0,
        "p50_latency_virtual": 0.02, "p99_latency_virtual": 4.6,
        "breaker_trips": 0,
    }
    service.update(overrides)
    return service


def _fleet(**overrides):
    fleet = {
        "requests": 120, "seed": 0, "servers": 2, "gpus_per_server": 4,
        "serve_seconds": 0.3, "requests_per_second": 400.0,
        "utilization": 0.36, "placements": 120, "identity": 63,
        "partitioned": 57, "timesliced": 0, "certified": 120,
        "rejections": 0, "shed_no_capacity": 0,
    }
    fleet.update(overrides)
    return fleet


def _report(cases=None, calibration=0.03, **overrides):
    report = {
        "schema_version": SCHEMA_VERSION,
        "suite": "smoke",
        "repeats": 3,
        "calibration_seconds": calibration,
        "perf_disabled": False,
        "host": {"python": "3.12.0", "platform": "test", "cpus": 1},
        "cases": cases if cases is not None else [_case()],
        "service": _service(),
        "fleet": _fleet(),
    }
    report.update(overrides)
    assert validate(report) == [], "test fixture must be schema-valid"
    return report


def _slowed(report, factor):
    slow = copy.deepcopy(report)
    for case in slow["cases"]:
        for metric in gate.GATED_METRICS + ("trace_seconds",):
            case[metric] *= factor
    return slow


def test_identical_reports_pass():
    base = _report()
    assert gate.compare(base, copy.deepcopy(base)) == []


def test_two_x_slowdown_fails():
    base = _report()
    failures = gate.compare(base, _slowed(base, 2.0))
    assert failures, "gate passed an unambiguous 2x regression"
    assert any("search_seconds" in f for f in failures)


def test_small_drift_within_tolerance_passes():
    base = _report()
    assert gate.compare(base, _slowed(base, 1.2)) == []  # < 25%


def test_slower_machine_passes_via_calibration():
    """2x slower machine: calibration and timings both double, the
    normalized ratio cancels, the gate stays quiet."""
    base = _report()
    slower_machine = _slowed(base, 2.0)
    slower_machine["calibration_seconds"] = base["calibration_seconds"] * 2
    assert gate.compare(base, slower_machine) == []


def test_regression_on_fast_machine_still_caught():
    """Faster machine (half calibration) but timings unchanged: that is
    a 2x normalized regression and must fail."""
    base = _report()
    current = copy.deepcopy(base)
    current["calibration_seconds"] = base["calibration_seconds"] / 2
    assert gate.compare(base, current)


def test_noise_floor_skips_tiny_timings():
    base = _report(cases=[_case(search_seconds=0.001, plan_seconds=0.002,
                                run_seconds=0.003)])
    noisy = _slowed(base, 10.0)  # 10x but still well under 50 ms
    assert gate.compare(base, noisy) == []


def test_schema_version_mismatch_refused():
    base = _report()
    current = copy.deepcopy(base)
    current["schema_version"] = SCHEMA_VERSION  # valid to build...
    current = json.loads(json.dumps(current))
    current["schema_version"] = SCHEMA_VERSION + 1  # ...then forged
    failures = gate.compare(base, current)
    assert len(failures) == 1 and "schema version" in failures[0]


def test_planner_fact_change_fails():
    base = _report()
    current = copy.deepcopy(base)
    current["cases"][0]["n_feasible"] = 99
    failures = gate.compare(base, current)
    assert any("n_feasible" in f for f in failures)


def test_unmatched_cases_fail_loudly():
    base = _report()
    current = copy.deepcopy(base)
    current["cases"][0]["model"] = "bert96"
    failures = gate.compare(base, current)
    assert any("no case" in f for f in failures)


def test_main_pass_and_fail_exit_codes(tmp_path, capsys):
    base = _report()
    base_path = tmp_path / "baseline.json"
    base_path.write_text(json.dumps(base))
    cur_path = tmp_path / "current.json"

    cur_path.write_text(json.dumps(_slowed(base, 1.1)))
    assert gate.main(["--baseline", str(base_path),
                      "--current", str(cur_path)]) == 0
    assert "perf gate passed" in capsys.readouterr().out

    cur_path.write_text(json.dumps(_slowed(base, 2.0)))
    assert gate.main(["--baseline", str(base_path),
                      "--current", str(cur_path)]) == 1
    assert "PERF GATE FAILED" in capsys.readouterr().out


def test_main_update_blesses_baseline(tmp_path):
    current = _report()
    cur_path = tmp_path / "current.json"
    cur_path.write_text(json.dumps(current))
    base_path = tmp_path / "baseline.json"
    assert gate.main(["--baseline", str(base_path),
                      "--current", str(cur_path), "--update"]) == 0
    assert json.loads(base_path.read_text()) == current


def test_committed_baseline_is_schema_valid():
    baseline_path = _REPO / "benchmarks" / "BENCH_baseline.json"
    assert baseline_path.is_file(), (
        "benchmarks/BENCH_baseline.json missing; bless one with "
        "make bench-baseline"
    )
    baseline = json.loads(baseline_path.read_text())
    assert validate(baseline) == []
    assert baseline["schema_version"] == SCHEMA_VERSION
    assert not baseline.get("perf_disabled"), (
        "the committed baseline must be measured with perf caches ON"
    )
    assert baseline.get("injected_slowdown", 1.0) == 1.0, (
        "the committed baseline must not carry an injected slowdown"
    )
    from repro.perf.bench import SUITES

    smoke_keys = {c.key for c in SUITES["smoke"]}
    baseline_keys = {
        f"{c['model']}|{c['mode']}|{c['gpus']}|{c['minibatch']}"
        for c in baseline["cases"]
    }
    assert smoke_keys <= baseline_keys, (
        "baseline does not cover the smoke suite; re-bless it"
    )
