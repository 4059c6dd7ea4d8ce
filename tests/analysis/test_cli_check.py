"""The ``repro.cli check`` subcommand: exit codes and per-pass summary."""

import json

import pytest

from repro.analysis import INJECTIONS
from repro.cli import main

ARGS = ["check", "toy-transformer", "--minibatch", "16", "--mode", "pp"]

#: A rule id each defect's CLI output must name (for multi-rule defects
#: one representative suffices; the exact full set is asserted in
#: test_inject.py).
EXPECTED_RULES = {
    "cycle": "deadlock/cycle",
    "use-before-produce": "dataflow/use-before-produce",
    "over-capacity": "capacity/gpu",
    "illegal-p2p": "channel/bad-peer",
    "ablation": "ablation/",
    "war-race": "hb/war-race",
    "rw-race": "hb/rw-race",
    "waw-race": "hb/waw-race",
    "double-release": "lifetime/double-release",
    "use-after-evict": "lifetime/use-after-evict",
    "use-before-fetch": "lifetime/use-before-fetch",
    "capacity-growth": "capacity/host",
}


def test_clean_schedule_exits_zero(capsys):
    assert main(ARGS) == 0
    out = capsys.readouterr().out
    for name in ("structure", "deadlock", "dataflow", "hb", "lifetime",
                 "channel", "ablation"):
        assert f"{name:<10} ok" in out
    assert "capacity   1 note(s)" in out  # the host ceiling is advice
    assert "schedule is safe" in out
    # The parametric certificates are printed alongside the verdict.
    assert "certificate: gpu0" in out
    assert "safe for all N >= 1" in out


def test_every_defect_has_an_injector_and_vice_versa():
    assert set(EXPECTED_RULES) == set(INJECTIONS)


@pytest.mark.parametrize("defect", sorted(INJECTIONS))
def test_injected_defect_exits_nonzero_with_rule_id(defect, capsys):
    assert main(ARGS + ["--inject", defect]) == 1
    out = capsys.readouterr().out
    assert EXPECTED_RULES[defect] in out
    assert "REJECTED" in out


def test_dp_mode_checks_too(capsys):
    assert main(["check", "toy-transformer", "--minibatch", "16",
                 "--mode", "dp"]) == 0
    assert "schedule is safe" in capsys.readouterr().out


def test_pass_subset_flags(capsys):
    assert main(ARGS + ["--races", "--lifetime"]) == 0
    out = capsys.readouterr().out
    assert "hb         ok" in out
    assert "lifetime   ok" in out
    assert "structure" not in out
    assert "certificate:" not in out  # capacity not selected


def test_parametric_flag_prints_certificates(capsys):
    assert main(ARGS + ["--parametric"]) == 0
    out = capsys.readouterr().out
    assert "capacity   1 note(s)" in out
    assert "certificate: gpu0" in out
    assert "certificate: host" in out


def test_json_report(tmp_path, capsys):
    path = tmp_path / "check.json"
    assert main(ARGS + ["--json", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert payload["ok"] is True
    assert {p["name"] for p in payload["passes"]} >= {
        "structure", "hb", "lifetime", "capacity",
    }
    scopes = {c["scope"] for c in payload["certificates"]}
    assert scopes == {"gpu0", "gpu1", "gpu2", "gpu3", "host"}
    assert all(
        c["safe_for_all"] or c["smallest_violating_n"] >= 1
        for c in payload["certificates"]
    )


def test_json_report_on_injected_defect(tmp_path, capsys):
    path = tmp_path / "bad.json"
    assert main(ARGS + ["--inject", "waw-race", "--json", str(path)]) == 1
    payload = json.loads(path.read_text())
    assert payload["ok"] is False
    assert payload["injected"] == "waw-race"
    rules = {d["rule"] for d in payload["diagnostics"]}
    assert {"hb/waw-race", "lifetime/double-release"} <= rules
