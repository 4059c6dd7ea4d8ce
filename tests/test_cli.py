"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import EXPERIMENTS, main


class TestCli:
    def test_plan_prints_config(self, capsys):
        assert main(["plan", "toy-transformer", "--minibatch", "8"]) == 0
        out = capsys.readouterr().out
        assert "U_F=" in out
        assert "P_F:" in out

    def test_run_prints_metrics(self, capsys):
        assert main(["run", "toy-transformer", "--minibatch", "8",
                     "--mode", "dp"]) == 0
        out = capsys.readouterr().out
        assert "samples/s" in out

    def test_experiment_fast(self, capsys):
        assert main(["experiment", "fig01", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "AlexNet" in out

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["plan", "gpt5"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_every_experiment_registered(self):
        # The registry covers all evaluation figures and tables.
        assert {"fig09", "fig13", "fig15", "tab01", "tab04"} <= set(EXPERIMENTS)


class TestClusterChaosCli:
    def test_scripted_server_loss_sweep(self, capsys, tmp_path):
        out = tmp_path / "cluster-chaos.json"
        assert main([
            "chaos", "toy-transformer", "--minibatch", "8", "--gpus", "2",
            "--servers", "3", "--seeds", "2", "--servers-lost", "1",
            "--iterations", "3", "--json", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "cluster chaos summary" in printed
        assert "0 hard failure(s)" in printed

        payload = json.loads(out.read_text())
        assert payload["servers"] == 3
        assert payload["summary"]["hard_failures"] == 0
        assert payload["summary"]["state_restores"] >= 1
        for record in payload["results"]:
            assert "seed" in record
            cluster = record["cluster"]
            assert set(cluster["fault_counts"]) == {
                "server_crash", "partition", "nic_degrade", "switch_flap"
            }
            if record["outcome"] == "completed":
                assert cluster["servers_lost"] == 1
                assert cluster["cluster_replans"] >= 1

    def test_dp_partition_sweep(self, capsys):
        assert main([
            "chaos", "toy-transformer", "--minibatch", "9", "--gpus", "2",
            "--mode", "dp", "--servers", "3", "--seeds", "1",
            "--partition-at", "0.001", "--partition-for", "0.01",
            "--iterations", "2",
        ]) == 0
        printed = capsys.readouterr().out
        assert "cluster-dp plan" in printed
        assert "0 hard failure(s)" in printed

    def test_single_server_path_unchanged(self, capsys):
        # --servers 1 (the default) keeps the original per-server sweep.
        assert main([
            "chaos", "toy-transformer", "--minibatch", "8", "--gpus", "2",
            "--seeds", "1",
        ]) == 0
        assert "chaos summary" in capsys.readouterr().out


class TestChaosJson:
    """The single-server ``repro chaos --json`` report schema."""

    def _sweep(self, tmp_path, *extra):
        out = tmp_path / "chaos.json"
        assert main([
            "chaos", "toy-transformer", "--minibatch", "8", "--gpus", "2",
            "--json", str(out), *extra,
        ]) == 0
        return json.loads(out.read_text())

    def test_completed_and_typed_failure_records(self, capsys, tmp_path):
        # Seed 3 recovers from its crashes; seed 4 exhausts the restart
        # budget on one task and fails typed.
        payload = self._sweep(tmp_path, "--seed-base", "3", "--seeds", "2",
                              "--crash-rate", "0.25")
        assert list(payload) == [
            "model", "mode", "gpus", "minibatch", "iterations", "intensity",
            "devices_lost", "hetero", "seed_base", "seeds", "spec",
            "results", "summary",
        ]
        assert payload["summary"] == {
            "completed": 1, "failed": 1, "hard_failures": 0, "replans": 0,
        }
        completed, failed = payload["results"]
        assert list(completed) == [
            "seed", "outcome", "iteration_time", "throughput", "recovery",
            "elastic",
        ]
        assert (completed["seed"], completed["outcome"]) == (3, "completed")
        assert completed["recovery"]["compute_retries"] > 0
        assert list(failed) == [
            "seed", "outcome", "error_type", "entity", "message",
        ]
        assert failed["seed"] == 4
        assert failed["outcome"] == "failed"
        assert failed["error_type"] == "UnrecoveredFaultError"
        assert failed["entity"] == "t0"
        printed = capsys.readouterr().out
        assert "chaos summary: 1 completed, 1 failed with a typed fault" in (
            printed
        )
        assert f"wrote JSON report to {tmp_path / 'chaos.json'}" in printed

    def test_devices_lost_counts_replans(self, tmp_path):
        payload = self._sweep(tmp_path, "--seeds", "2", "--iterations", "3",
                              "--devices-lost", "1")
        assert payload["devices_lost"] == 1
        assert payload["summary"]["replans"] == 2
        assert [r["elastic"]["replans"] for r in payload["results"]] == [1, 1]
