"""Pins what every kind of simulated phase records and returns.

The golden traces pin only fault-free and heterogeneous runs, so a
change to how a restart attempt, a state migration, a cluster comm phase
or a baseline run is stitched together could move its timeline or its
counters without any test noticing.  Each case below runs one such
scenario on the toy models and pins the sha256 of

- the recorder's canonical event lines (traced cases);
- ``float.hex`` of the iteration time, the global swap / p2p bytes, and
  every per-GPU counter except the ``swap_busy`` / ``p2p_busy`` busy
  times;
- ``asdict`` of the recovery, elastic and cluster counters (floats via
  ``float.hex``);
- the cluster runner's accumulated per-network-link bytes.

Any change to what these phases record or return moves a digest.
"""

import hashlib
from dataclasses import asdict, fields
from functools import partial

import pytest

from repro.baselines import (
    DpSwapPlanner,
    GpipeSwapPlanner,
    PipeDream2BWPlanner,
    ZeroInfinityPlanner,
)
from repro.cluster import (
    ClusterPlanner,
    ClusterRunner,
    PartitionWindow,
    ScriptedClusterFaultPlan,
    homogeneous_cluster,
)
from repro.core.harmony import Harmony, HarmonyOptions
from repro.experiments.common import server_for
from repro.faults import ScriptedFaultPlan
from repro.runtime.metrics import GpuMetrics
from repro.trace import TraceRecorder

#: GpuMetrics fields left out of the pins (their multi-iteration
#: averaging differs between the plain executor and the chaos runner).
UNPINNED_GPU_FIELDS = ("swap_busy", "p2p_busy")

#: run name -> (sha256 of the trace lines, sha256 of the numbers)
DIGESTS = {
    "chaos-p2p": (
        "09a9b1f815c90f0a81dd41503fb4bfa9af54e3395e9caf4f5c3907fe7dbd0bdf",
        "620a0b0e6ddc5624d274adc5bd45764feca1948295fced46b4711606aa3bceee"),
    "chaos-nop2p": (
        "5bb383b42d4c029b2b747e7d03b0a83fe1abaeb45f4613c7502f2ffe7065278d",
        "afc80ef56eb598079a7384ee6f68d77f6c305af4847338deb7f4c21bc564b542"),
    "cluster-pp-loss": (
        "8363c786676349392b4265e3b0c879ae165920c94c162ae67b1c30cee2cf3a8b",
        "0a2b866009863ff5f2b7e1bfbfaac9346c1868367dc73d5466ad8de3d6db4f6f"),
    "cluster-dp-partition": (
        "3ae7ec40a238e2b5101ad066186f33ea2ea2c29b86fa5c843f59f47c59d8b615",
        "c1afad44138bbcaf822be327fc70ccb90f90a297fd2c6247cd13c5f9df247b1c"),
    "baseline-dp-swap": (None,
        "d6a47768e5f0997f5e5040d749af623eeb139248ff596422a39122702c848c25"),
    "baseline-gpipe-swap": (None,
        "a94f3d8c8b80c80f507c43bca3cae1fcf8ff14ccdf74671e6de715a807109878"),
    "baseline-gpipe-swap-r": (None,
        "aea40ae36c17170aab87be7f556c080bf46dc993eec17a1e6f890855e6fec955"),
    "baseline-pipedream-2bw": (None,
        "6a33ef418e17cd9b9bb87f4647cf6016bc0583fc02ef3ab89cf90632b4944ffb"),
    "baseline-pipedream-2bw-r": (None,
        "5444d3bfd9003afb8abce4bcfcf94fdfd44f0f1c44ddaa7c63fa9bb5e795079d"),
    "baseline-zero-infinity": (None,
        "ebd1ae26ecae25739460eb8e05b74d95a87dd7573881085aebdb9b19af7d1683"),
}


def _canon(value) -> str:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return "{" + ",".join(
            f"{k}={_canon(v)}" for k, v in sorted(value.items())
        ) + "}"
    return repr(value)


def _numbers(metrics, link_bytes=None) -> str:
    lines = [
        f"iteration_time {_canon(metrics.iteration_time)}",
        f"swap {metrics.global_swap_bytes}",
        f"p2p {metrics.global_p2p_bytes}",
    ]
    for device, gpu in enumerate(metrics.gpus):
        lines.append(f"gpu{device} " + _canon({
            f.name: getattr(gpu, f.name) for f in fields(GpuMetrics)
            if f.name not in UNPINNED_GPU_FIELDS
        }))
    for section in ("recovery", "elastic", "cluster"):
        counters = getattr(metrics, section)
        if counters is not None:
            lines.append(f"{section} {_canon(asdict(counters))}")
    if link_bytes is not None:
        lines.append(f"links {_canon(link_bytes)}")
    return "\n".join(lines)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _chaos(p2p: bool):
    # Toy pp on 3 GPUs, gpu2 lost at iteration 1: a failed detection
    # attempt, a restart, an elastic re-plan onto gpu0/gpu1 and a state
    # migration with a live gpu->gpu move (p2p, or the host relay).
    harmony = Harmony("toy-transformer", server_for(3), 8,
                      options=HarmonyOptions(mode="pp", p2p=p2p))
    recorder = TraceRecorder()
    report = harmony.run(iterations=3, trace=recorder,
                         fault_plan=ScriptedFaultPlan(losses={2: 1}))
    assert report.metrics.elastic.replans == 1
    assert report.metrics.recovery.restarts == 1
    moved = report.metrics.elastic.migration_p2p_bytes
    assert (moved > 0) == p2p
    return recorder.canonical(), _numbers(report.metrics)


def _cluster(mode: str, minibatch: int, fault_plan):
    planner = ClusterPlanner(
        "toy-transformer", homogeneous_cluster(3, server_for(2)), minibatch,
        mode=mode,
    )
    recorder = TraceRecorder()
    runner = ClusterRunner(planner, fault_plan, trace=recorder)
    metrics = runner.run(3)
    return recorder.canonical(), _numbers(metrics, runner.network_link_bytes)


def _cluster_pp_loss():
    trace, numbers = _cluster("pp", 8, ScriptedClusterFaultPlan(
        crashes={1: 1}))
    assert "cluster_replans=1" in numbers
    return trace, numbers


def _cluster_dp_partition():
    trace, numbers = _cluster("dp", 9, ScriptedClusterFaultPlan(
        partitions=[PartitionWindow(0.0, 0.01, frozenset({0}))]))
    assert "partition_stalls=0," not in numbers
    return trace, numbers


def _baseline(scheme):
    def run():
        planner = scheme("toy-transformer", server_for(2), 8)
        return None, _numbers(planner.run())

    return run


RUNS = {
    "chaos-p2p": lambda: _chaos(p2p=True),
    "chaos-nop2p": lambda: _chaos(p2p=False),
    "cluster-pp-loss": _cluster_pp_loss,
    "cluster-dp-partition": _cluster_dp_partition,
    "baseline-dp-swap": _baseline(DpSwapPlanner),
    "baseline-gpipe-swap": _baseline(GpipeSwapPlanner),
    "baseline-gpipe-swap-r": _baseline(
        partial(GpipeSwapPlanner, recompute=True)),
    "baseline-pipedream-2bw": _baseline(PipeDream2BWPlanner),
    "baseline-pipedream-2bw-r": _baseline(
        partial(PipeDream2BWPlanner, recompute=True)),
    "baseline-zero-infinity": _baseline(ZeroInfinityPlanner),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_phase_pinned(name):
    trace, numbers = RUNS[name]()
    trace_digest = None if trace is None else _sha(trace)
    assert (trace_digest, _sha(numbers)) == DIGESTS[name], numbers
