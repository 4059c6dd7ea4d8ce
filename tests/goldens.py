"""Every golden file of the suite: its cases, its recording and its check.

A :class:`Family` names a directory under ``tests/golden/``, a file
extension, its cases and ``record(case) -> str``; case ``c`` lives at
``tests/golden/<directory>/<c>.<ext>``.  :func:`check` records a case and
compares the text with its file, failing with the path and a unified
diff of the first differing lines.  ``scripts/regen_golden.py`` rewrites
every file through :func:`regenerate`::

    PYTHONPATH=src python scripts/regen_golden.py

Regenerate only when a change legitimately moves a recording, and
explain every golden diff with the change that moved it.  A diff you
cannot explain is a regression, not churn.

Recordings are text a reviewer can read: floats print through
``float.hex`` (so every pin is bit-exact), JSON through :func:`json_text`
(one line per finding or certificate).  Two kinds of dump are too big to
commit and keep only their digest, as a ``sha256 <hex>`` line: the
baseline plans' task-for-task dumps (their files add a per-device
summary) and the trace lines of the phase and analytics cases (the
golden traces cover fault-free timelines in full).
"""

from __future__ import annotations

import contextlib
import dataclasses
import difflib
import hashlib
import io
import itertools
import json
import re
import tempfile
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from repro.analysis import INJECTIONS, analyze, capacity_certificates, inject
from repro.analysis.context import AnalysisContext
from repro.baselines import (
    DpSwapPlanner,
    GpipeSwapPlanner,
    PipeDream2BWPlanner,
    ZeroInfinityPlanner,
)
from repro.cluster import (
    ClusterFaultPlan,
    ClusterFaultSpec,
    ClusterPlanner,
    ClusterRunner,
    PartitionWindow,
    ScriptedClusterFaultPlan,
    homogeneous_cluster,
)
from repro.core.harmony import Harmony, HarmonyOptions
from repro.core.types import Move, Task
from repro.experiments.common import server_for
from repro.faults import Crash, FaultPlan, FaultSpec, ScriptedFaultPlan
from repro.runtime.metrics import GpuMetrics
from repro.service import (
    ScriptedServiceFaultPlan,
    ServiceChaosSpec,
    ServiceFaultPlan,
)
from repro.trace import TraceRecorder
from repro.virt import DeviceBinding, VirtualTopology

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
REGEN = "PYTHONPATH=src python scripts/regen_golden.py"
#: How much of a unified diff a failed check shows.
DIFF_LINES = 40


@dataclass(frozen=True)
class Family:
    """Cases recorded to ``tests/golden/<directory>/<case>.<ext>``."""

    directory: str
    ext: str
    cases: tuple[str, ...]
    record: Callable[[str], str]

    def path(self, case: str) -> Path:
        return GOLDEN / self.directory / f"{case}.{self.ext}"


def compare(path: Path, recording: str) -> None:
    """Fail unless ``path`` holds exactly ``recording``."""
    __tracebackhide__ = True
    name = path.relative_to(ROOT)
    if not path.is_file():
        raise AssertionError(f"{name} is missing; run {REGEN}")
    golden = path.read_text()
    if recording != golden:
        diff = difflib.unified_diff(
            golden.split("\n"), recording.split("\n"),
            f"{name} (committed)", f"{name} (recorded)", lineterm="",
        )
        raise AssertionError(
            f"{name} differs from a fresh recording; if the change is "
            f"deliberate, run {REGEN} and commit the diff\n"
            + "\n".join(itertools.islice(diff, DIFF_LINES))
        )


def check(family: Family, case: str) -> None:
    """Record ``case`` and compare it with its golden file."""
    __tracebackhide__ = True
    compare(family.path(case), family.record(case))


def regenerate() -> None:
    """Rewrite every golden file and delete the files no case owns."""
    owned = set()
    for family in FAMILIES:
        for case in family.cases:
            path = family.path(case)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(family.record(case))
            owned.add(path)
        print(f"recorded {len(family.cases)} {family.directory}/*."
              f"{family.ext}")
    for path in sorted(GOLDEN.rglob("*")):
        if path.is_file() and path not in owned:
            path.unlink()
            print(f"deleted {path.relative_to(ROOT)}")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _canon(value) -> str:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Move):
        return "Move(" + ",".join(
            f"{name}={_canon(getattr(value, name))}"
            for name in Move._fields
        ) + ")"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(item) for item in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(
            f"{k}={_canon(v)}" for k, v in sorted(value.items())
        ) + "}"
    return repr(value)


def json_text(value, indent: str = "") -> str:
    """``value`` as key-sorted JSON, one line per dict entry or list item;
    a list inside a list (a table row) stays on one line."""
    inner = indent + " "
    if isinstance(value, dict) and value:
        body = [f"{inner}{json.dumps(k)}: {json_text(v, inner)}"
                for k, v in sorted(value.items())]
    elif isinstance(value, list) and value:
        body = [inner + (json.dumps(v) if isinstance(v, list)
                         else json_text(v, inner)) for v in value]
    else:
        return json.dumps(value)
    open_, close = "{}" if isinstance(value, dict) else "[]"
    return f"{open_}\n" + ",\n".join(body) + f"\n{indent}{close}"


# -- cli: every subcommand's exit code, stdout and ``--json`` ---------------
#
# Each entry is one ``repro`` invocation on the toy models, run
# in-process.  ``NAME.out`` holds the exit code and stdout and, when the
# invocation writes ``--json``, ``NAME.json`` the JSON text.  The
# temporary directory the JSON goes to reads ``<TMP>`` in both, and the
# planner's wall-clock search time (``configs in 0.0s``) reads ``<WALL>``.

#: Stands for the ``--json`` report path in an argv below.
JSON = "<JSON>"

_TOY = "toy-transformer"
_CHECK = ["check", _TOY, "--minibatch", "16"]
_BIND = ["bind", _TOY, "--minibatch", "16"]
_TRACE = ["trace", _TOY, "--minibatch", "8", "--gpus", "2"]
_CHAOS = ["chaos", _TOY, "--minibatch", "8", "--gpus", "2"]

#: name -> argv.
CORPUS = {
    "plan": ["plan", _TOY, "--minibatch", "8"],
    "run": ["run", _TOY, "--minibatch", "8", "--mode", "dp"],
    "check": _CHECK,
    "check-inject": _CHECK + ["--inject", "waw-race", "--json", JSON],
    "check-races-lifetime": _CHECK + ["--races", "--lifetime"],
    "check-json": _CHECK + ["--json", JSON],
    "bind-physical": _BIND + ["--physical", "2", "--run", "--json", JSON],
    "bind-hetero": _BIND + ["--hetero", "1.5,1.5,0.75,0.75", "--run",
                            "--json", JSON],
    "bind-rejected": _BIND + ["--memory-scales", "1.0,1.0,1.0,0.000001",
                              "--json", JSON],
    "trace-text": _TRACE + ["--text"],
    "trace-chaos": _TRACE + ["--chaos-seed", "1"],
    "chaos-crash": _CHAOS + ["--seed-base", "3", "--seeds", "2",
                             "--crash-rate", "0.25", "--json", JSON],
    "chaos-devices-lost": _CHAOS + ["--seeds", "2", "--iterations", "3",
                                    "--devices-lost", "1", "--json", JSON],
    "chaos-hetero": _CHAOS + ["--seeds", "2", "--iterations", "3",
                              "--hetero", "1.5,0.75", "--devices-lost", "1",
                              "--json", JSON],
    "chaos-servers-lost": _CHAOS + ["--servers", "3", "--seeds", "2",
                                    "--servers-lost", "1", "--iterations",
                                    "3", "--json", JSON],
    "chaos-partition": ["chaos", _TOY, "--minibatch", "9", "--gpus", "2",
                        "--mode", "dp", "--servers", "3", "--seeds", "1",
                        "--partition-at", "0.001", "--partition-for", "0.01",
                        "--iterations", "2", "--json", JSON],
    "serve-chaos": ["serve", "--requests", "40", "--chaos",
                    "--check-determinism", "--json", JSON],
    "serve-fleet": ["serve", "--requests", "30", "--fleet-servers", "2",
                    "--check-determinism", "--json", JSON],
    "experiment-fig07": ["experiment", "fig07", "--fast"],
}

_WALL = re.compile(r"configs in \d+\.\ds\)")


def run_cli(name: str) -> tuple[str, str | None]:
    """Run corpus entry ``name``: its ``.out`` text (exit code line, then
    stdout) and its JSON text, or None when it wrote no JSON."""
    from repro.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / f"{name}.json"
        argv = [str(report) if arg == JSON else arg for arg in CORPUS[name]]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        out = _WALL.sub("configs in <WALL>s)", stdout.getvalue())
        text = report.read_text() if report.exists() else None
    return (
        f"exit {code}\n" + out.replace(tmp, "<TMP>"),
        None if text is None else text.replace(tmp, "<TMP>"),
    )


CLI = Family("cli", "out", tuple(CORPUS), lambda name: run_cli(name)[0])
CLI_JSON = Family("cli", "json",
                  tuple(name for name, argv in CORPUS.items() if JSON in argv),
                  lambda name: run_cli(name)[1])


# -- trace: the exact event lines of seeded fault-free runs -----------------
#
# The small zoo models in both modes on 2 GPUs, plus the toy transformer
# planned for 4 logical GPUs and bound onto 2 fast + 2 slow physical
# devices (``repro.virt``), so a timing-rescale change shows as a diff.

#: case -> (model, mode) of the plain golden traces.
TRACE_CELLS = {f"{model}-{mode}": (model, mode)
               for model in ("toy-transformer", "tiny-cnn")
               for mode in ("pp", "dp")}
HETERO = "toy-transformer-pp-hetero"
HETERO_GPUS = 4


def traced_run(model: str, mode: str, gpus: int = 2, minibatch: int = 8, *,
               iterations: int = 1, fault_plan=None, recorder=None):
    """One traced run: its trace analytics and its recorder."""
    harmony = Harmony(model, server_for(gpus), minibatch,
                      options=HarmonyOptions(mode=mode))
    recorder = recorder if recorder is not None else TraceRecorder()
    report = harmony.run(iterations=iterations, fault_plan=fault_plan,
                         trace=recorder)
    return report.metrics.trace, recorder


def _record_trace(case: str) -> str:
    if case != HETERO:
        return traced_run(*TRACE_CELLS[case])[1].canonical() + "\n"
    harmony = Harmony("toy-transformer", server_for(HETERO_GPUS), 8,
                      options=HarmonyOptions(mode="pp"))
    bound = harmony.bind(DeviceBinding.heterogeneous((1.5, 1.5, 0.75, 0.75)))
    recorder = TraceRecorder()
    harmony.run(plan=bound, iterations=1, trace=recorder)
    return recorder.canonical() + "\n"


TRACE = Family("trace", "trace", (*TRACE_CELLS, HETERO), _record_trace)


# -- verdict: the analyzer's verdict on every graph family it certifies -----
#
# Every registered pass on the 24 bench warm-up plans, the five LMS swap
# baselines on three models, identity / time-slice / heterogeneous binds
# of toy-transformer plus a bind whose memory scale cannot fit, and every
# seeded defect of :mod:`repro.analysis.inject`.

#: (model, mode, gpus, minibatch) of the bench's warm-up plans.
BENCH_PLANS = tuple(
    (model, mode, gpus, 8 if mode == "pp" else gpus * 2)
    for model in ("gpt2", "gpt2-medium", "bert96", "bert-large", "vgg416",
                  "resnet1k")
    for mode in ("pp", "dp") for gpus in (4, 8)
)

#: Every baseline planner, by scheme name.
SCHEMES = {
    "dp-swap": DpSwapPlanner,
    "gp-swap": GpipeSwapPlanner,
    "gp-swap-r": partial(GpipeSwapPlanner, recompute=True),
    "2bw-swap": PipeDream2BWPlanner,
    "2bw-swap-r": partial(PipeDream2BWPlanner, recompute=True),
    "zero-infinity": ZeroInfinityPlanner,
}
LMS_SCHEMES = tuple(scheme for scheme in SCHEMES if scheme != "zero-infinity")
LMS_MODELS = ("toy-transformer", "tiny-cnn", "bert-large")

#: bind name -> (FLOPs scales, memory scales) of the physical devices
BINDS = {
    "identity": ([1.0] * 4, [1.0] * 4),
    "time-slice": ([1.0] * 2, [1.0] * 2),
    "hetero": ([1.5, 1.5, 0.75, 0.75], [1.0] * 4),
    "oversubscribed": ([1.0] * 4, [1.0, 1.0, 1.0, 0.000001]),
}


def _harmony_graph(model, mode, gpus, minibatch):
    harmony = Harmony(model, server_for(gpus), minibatch,
                      HarmonyOptions(mode=mode))
    options = harmony.options.schedule_options()
    return harmony.plan().graph, dict(
        server=harmony.server,
        options=options,
        host_state_bytes=harmony.host_state_bytes,
        host_input_bytes=minibatch * harmony.model.sample_bytes,
        prefetch=options.prefetch,
    )


def _baseline_graph(scheme, model):
    server = server_for(4)
    planner = SCHEMES[scheme](model, server, 32)
    plan = planner.plan()
    return plan.graph, dict(
        server=server,
        host_state_bytes=plan.host_state_bytes,
        prefetch=not planner.reactive,
    )


def _bind_graph(name):
    flops, memory = BINDS[name]
    harmony = Harmony("toy-transformer", server_for(4), 16,
                      HarmonyOptions(mode="pp"))
    plan = harmony.plan()
    binding = DeviceBinding.pack(
        4, VirtualTopology.heterogeneous(flops, memory)
    )
    server = plan.server.with_gpus(binding.n_physical)
    host_input = plan.minibatch * plan.model.sample_bytes
    return binding.apply(plan.graph), dict(
        server=server,
        options=plan.options.schedule_options(),
        host_state_bytes=plan.model.model_state_bytes + host_input,
        host_input_bytes=host_input,
        prefetch=plan.options.prefetch,
        device_memory=list(
            binding.device_memory(server.gpu.memory_bytes)
        ),
    )


def _inject_graph(defect):
    graph, kwargs = _harmony_graph("toy-transformer", "pp", 4, 16)
    options, _expected = inject(defect, graph, kwargs["options"])
    kwargs.update(options=options, prefetch=options.prefetch)
    return graph, kwargs


VERDICT_GRAPHS = {
    **{f"bench/{m}/{mode}/{g}/{mb}": partial(_harmony_graph, m, mode, g, mb)
       for m, mode, g, mb in BENCH_PLANS},
    **{f"lms/{s}/{m}": partial(_baseline_graph, s, m)
       for s in LMS_SCHEMES for m in LMS_MODELS},
    **{f"bind/{name}": partial(_bind_graph, name) for name in BINDS},
    **{f"inject/{d}": partial(_inject_graph, d) for d in sorted(INJECTIONS)},
}


def verdict(graph, kwargs) -> dict:
    """The canonical, JSON-ready dump of one analyzer verdict: per pass,
    its name, skip reason, suppressed count and the sorted ``(rule, task,
    device)`` of its findings; every finding's message except
    ``deadlock/cycle``'s (a cycle may be named through any node on it);
    and every capacity certificate's ``(scope, fixed, slope, capacity)``."""
    report = analyze(graph, **kwargs)
    passes = []
    for result in report.results:
        diagnostics = sorted(result.diagnostics, key=lambda d: (
            d.rule,
            -1 if d.task is None else d.task,
            -1 if d.device is None else d.device,
            d.message,
        ))
        passes.append({
            "name": result.name,
            "skipped": result.skipped,
            "suppressed": result.suppressed,
            "findings": [[d.rule, d.task, d.device] for d in diagnostics],
            "messages": [d.message for d in diagnostics
                         if d.rule != "deadlock/cycle"],
        })
    certificates = capacity_certificates(AnalysisContext(graph, **kwargs))
    return {
        "passes": passes,
        "certificates": [
            [c.scope, c.fixed_bytes, c.slope_bytes, c.capacity_bytes]
            for c in certificates
        ],
    }


VERDICT = Family(
    "verdict", "json", tuple(sorted(VERDICT_GRAPHS)),
    lambda case: json_text(verdict(*VERDICT_GRAPHS[case]())) + "\n",
)


# -- baseline: every baseline plan, task for task and move for move ---------
#
# All six schemes on both toy models, on 2 and 4 GPUs, once on the stock
# commodity GPU (cold fetches and end-of-iteration flushes only) and once
# on a 2 MiB GPU, where the LMS replay evicts and refetches.  The
# ``sha256`` line digests the full dump: the graph's mode, device count
# and swap path; every task field and every move, in tid order; and the
# plan's ``microbatch``, ``host_state_bytes`` and ``notes``.  The lines
# after it are the dump's header and, per device, the task count, layer
# span and bytes swapped in and out over CPU-GPU links.

#: GPU memory per case: ``None`` keeps the commodity GPU's.
GPU_MEMORY = {"stock": None, "2MiB": 2 * 2**20}


def baseline_plan(case: str):
    scheme, model, n, gpu = case.split("/")
    server = server_for(int(n))
    if GPU_MEMORY[gpu] is not None:
        server = dataclasses.replace(server, gpu=dataclasses.replace(
            server.gpu, memory_bytes=GPU_MEMORY[gpu]))
    return SCHEMES[scheme](model, server, 16).plan()


def _record_baseline(case: str) -> str:
    plan = baseline_plan(case)
    graph = plan.graph
    header = [
        f"graph mode={graph.mode!r} n_devices={graph.n_devices} "
        f"pageable_swaps={graph.pageable_swaps}",
        f"scheme {plan.scheme!r}",
        f"microbatch {plan.microbatch}",
        f"host_state_bytes {plan.host_state_bytes}",
        f"notes {plan.notes!r}",
    ]
    tasks = [" ".join(f"{f.name}={_canon(getattr(task, f.name))}"
                      for f in dataclasses.fields(Task))
             for task in graph.tasks]
    devices = []
    for device in range(graph.n_devices):
        own = [task for task in graph.tasks if task.device == device]
        swap_in = sum(m.nbytes for t in own for m in t.ins
                      if m.channel.via_host)
        swap_out = sum(m.nbytes for t in own for m in t.outs
                       if m.channel.via_host)
        devices.append(
            f"gpu{device} tasks {len(own)} layers "
            f"{min(t.first_layer for t in own)}-"
            f"{max(t.last_layer for t in own)} "
            f"swap_in {swap_in} swap_out {swap_out}"
        )
    return "\n".join([f"sha256 {_sha(chr(10).join(header + tasks))}",
                      *header, *devices]) + "\n"


BASELINE = Family("baseline", "txt", tuple(
    f"{scheme}/{model}/{n}/{gpu}"
    for scheme in SCHEMES
    for model in ("toy-transformer", "tiny-cnn")
    for n in (2, 4)
    for gpu in GPU_MEMORY
), _record_baseline)


# -- phase: what every kind of simulated phase records and returns ----------
#
# A restart with an elastic re-plan and state migration (p2p and host
# relay), a cluster server loss and partition, and every baseline run.
# Traced cases start with ``trace sha256 <hex>`` over the canonical event
# lines; then ``float.hex`` of the iteration time, the global swap / p2p
# bytes, every per-GPU counter except the ``swap_busy`` / ``p2p_busy``
# busy times (their multi-iteration averaging differs between the plain
# executor and the chaos runner), ``asdict`` of the recovery, elastic
# and cluster counters, and the cluster runner's per-network-link bytes.

UNPINNED_GPU_FIELDS = ("swap_busy", "p2p_busy")


def _numbers(metrics, link_bytes=None) -> str:
    lines = [
        f"iteration_time {_canon(metrics.iteration_time)}",
        f"swap {metrics.global_swap_bytes}",
        f"p2p {metrics.global_p2p_bytes}",
    ]
    for device, gpu in enumerate(metrics.gpus):
        lines.append(f"gpu{device} " + _canon({
            f.name: getattr(gpu, f.name)
            for f in dataclasses.fields(GpuMetrics)
            if f.name not in UNPINNED_GPU_FIELDS
        }))
    for section in ("recovery", "elastic", "cluster"):
        counters = getattr(metrics, section)
        if counters is not None:
            lines.append(f"{section} {_canon(asdict(counters))}")
    if link_bytes is not None:
        lines.append(f"links {_canon(link_bytes)}")
    return "\n".join(lines)


def _chaos_phase(p2p: bool):
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


def _cluster_phase(mode: str, minibatch: int, fault_plan):
    planner = ClusterPlanner(
        "toy-transformer", homogeneous_cluster(3, server_for(2)), minibatch,
        mode=mode,
    )
    recorder = TraceRecorder()
    runner = ClusterRunner(planner, fault_plan, trace=recorder)
    metrics = runner.run(3)
    return recorder.canonical(), _numbers(metrics, runner.network_link_bytes)


def _cluster_pp_loss():
    trace, numbers = _cluster_phase("pp", 8, ScriptedClusterFaultPlan(
        crashes={1: 1}))
    assert "cluster_replans=1" in numbers
    return trace, numbers


def _cluster_dp_partition():
    trace, numbers = _cluster_phase("dp", 9, ScriptedClusterFaultPlan(
        partitions=[PartitionWindow(0.0, 0.01, frozenset({0}))]))
    assert "partition_stalls=0," not in numbers
    return trace, numbers


def _baseline_phase(scheme):
    def run():
        return None, _numbers(scheme("toy-transformer", server_for(2),
                                     8).run())

    return run


PHASE_RUNS = {
    "chaos-p2p": lambda: _chaos_phase(p2p=True),
    "chaos-nop2p": lambda: _chaos_phase(p2p=False),
    "cluster-pp-loss": _cluster_pp_loss,
    "cluster-dp-partition": _cluster_dp_partition,
    **{f"baseline-{name}": _baseline_phase(planner)
       for name, planner in zip(
           ("dp-swap", "gpipe-swap", "gpipe-swap-r", "pipedream-2bw",
            "pipedream-2bw-r", "zero-infinity"), SCHEMES.values())},
}


def _with_trace_digest(trace: str | None, text: str) -> str:
    head = "" if trace is None else f"trace sha256 {_sha(trace)}\n"
    return head + text + "\n"


PHASE = Family("phase", "txt", tuple(sorted(PHASE_RUNS)),
               lambda case: _with_trace_digest(*PHASE_RUNS[case]()))


# -- analytics: every figure ``repro.trace.analyze_trace`` derives ----------
#
# ``float.hex`` of every :class:`~repro.trace.TraceAnalytics` field, with
# each ``link_contention`` entry (busy, contended, intervals) in the
# dict's own order, for the toy transformer pp and dp on 2 GPUs; gpt2 pp
# on 4 GPUs at minibatch 16, whose swaps contend for the shared PCIe
# uplinks; a seeded chaos run, whose faulted holds move no bytes and
# whose retries hold links again (its event lines are digested too); and
# a ring recorder that dropped events (the analytics still cover the
# whole run; only the event count and ``dropped`` differ from toy-pp).


def _analytics_lines(analytics) -> str:
    lines = [
        f"total_time {_canon(analytics.total_time)}",
        f"n_devices {analytics.n_devices}",
        f"n_events {analytics.n_events}",
        f"dropped {analytics.dropped}",
    ]
    for name in ("compute_busy", "cpu_busy", "swap_hold", "p2p_hold",
                 "overlap_time", "bubble_time"):
        values = getattr(analytics, name)
        lines.append(f"{name} " + ",".join(_canon(v) for v in values))
    for device, lanes in enumerate(analytics.stream_busy):
        lines.append(f"stream{device} " + ",".join(
            f"{lane}={_canon(busy)}" for lane, busy in lanes.items()))
    for link, c in analytics.link_contention.items():
        lines.append(f"link {link} {_canon(c.busy)} {_canon(c.contended)} "
                     f"{c.intervals}")
    return "\n".join(lines)


def _chaos_analytics():
    analytics, recorder = traced_run(
        "toy-transformer", "pp", iterations=2,
        fault_plan=FaultPlan(FaultSpec.chaos(1.0), seed=2))
    events = recorder.events
    assert any(e.cat == "fault" for e in events)
    assert any(e.cat == "retry" for e in events)
    assert any(e.cat == "xfer" and e.nbytes == 0 for e in events)
    return recorder.canonical(), analytics


def _ring_analytics():
    analytics, recorder = traced_run("toy-transformer", "pp",
                                     recorder=TraceRecorder(ring=64))
    assert recorder.dropped > 0
    return None, analytics


ANALYTICS_RUNS = {
    "toy-pp": lambda: (None, traced_run("toy-transformer", "pp")[0]),
    "toy-dp": lambda: (None, traced_run("toy-transformer", "dp")[0]),
    "gpt2-pp-x4-mb16": lambda: (None, traced_run("gpt2", "pp", 4, 16)[0]),
    "toy-pp-chaos": _chaos_analytics,
    "toy-pp-ring": _ring_analytics,
}


def _record_analytics(case: str) -> str:
    trace, analytics = ANALYTICS_RUNS[case]()
    return _with_trace_digest(trace, _analytics_lines(analytics))


ANALYTICS = Family("analytics", "txt", tuple(sorted(ANALYTICS_RUNS)),
                   _record_analytics)


# -- search: every configuration Algorithm 1 explores, with its estimate ----
#
# ``bench/golden.json`` and the work-count gate see only a search's winner
# and its candidate count, so a change to packing (Algorithm 2), graph
# assembly or the Runtime Estimator could move a losing candidate's
# score, or swap one candidate for another, without either noticing.  A
# file holds the feasible / infeasible counts, then every explored
# ``u_f|packs_f|u_b|packs_b|float.hex(estimate)`` in enumeration order.

#: case -> (model, mode, gpus, minibatch)
SEARCH_PROBLEMS = {
    f"{model}-{mode}-x{gpus}-mb{minibatch}": (model, mode, gpus, minibatch)
    for model, mode, gpus, minibatch in (
        ("gpt2", "pp", 4, 32),
        ("vgg416", "pp", 4, 16),
        ("resnet1k", "pp", 8, 16),
        ("bert-large", "dp", 4, 16),
        ("vgg416", "dp", 4, 16),
    )
}


def _packs(packs) -> str:
    return ",".join(f"{p.first}-{p.last}" for p in packs)


def _record_search(case: str) -> str:
    model, mode, gpus, minibatch = SEARCH_PROBLEMS[case]
    harmony = Harmony(model, server_for(gpus), minibatch,
                      options=HarmonyOptions(mode=mode))
    search = harmony.plan().search
    lines = [f"feasible {search.n_feasible} "
             f"infeasible {search.n_infeasible}"]
    for entry in search.explored:
        config = entry.config
        lines.append(
            f"{config.u_f}|{_packs(config.packs_f)}|{config.u_b}|"
            f"{_packs(config.packs_b)}|{entry.estimate.hex()}"
        )
    return "\n".join(lines) + "\n"


SEARCH = Family("search", "txt", tuple(SEARCH_PROBLEMS), _record_search)


# -- chaos: every seeded decision of the three fault-plan families ----------
#
# Every decision method of ``FaultPlan``, ``ClusterFaultPlan`` and
# ``ServiceFaultPlan`` (and of their scripted subclasses) on a fixed grid:
# chaos intensities 0.5 / 1.0 / 2.0 x fixed labels, devices, epochs,
# request ids and times, one file per seed 0-7.  The storm suites compare
# two reruns of the same code, so a renamed draw label, a reordered
# label tuple or a flipped rate comparison shows only here.

SEEDS = range(8)
INTENSITIES = (0.5, 1.0, 2.0)
CONTEXTS = ((), (0, 0), (1, 2))
ENTITIES = ("gpu0:swap", "gpu1:p2p")
LABELS = ("W3", "A0-1", "G2")
ATTEMPTS = range(3)
TIDS = range(4)
MB_INDEXES = range(2)
DEVICES = range(4)
ITERATIONS = range(5)
EPOCHS = range(6)
LINKS = ("pcie-root", "gpu0-up", "gpu3-down")
SERVERS = range(4)
DIRECTIONS = ("up", "down")
TIMES = (0.0, 0.01, 0.049, 0.05, 0.12, 0.333, 1.0)
RIDS = range(24)


def _decision(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "T" if value else "F"
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Crash):
        return "crash:" + value.fraction.hex()
    if isinstance(value, FaultPlan):
        return f"plan:{value.seed}:{value.describe()}"
    if isinstance(value, tuple):
        return "(" + ",".join(_decision(v) for v in value) + ")"
    raise TypeError(f"unpinned decision type {type(value).__name__}")


def _fault_plan_lines(plan: FaultPlan) -> list[str]:
    out = [f"enabled {_decision(plan.enabled)}"]
    for ctx in CONTEXTS:
        for entity in ENTITIES:
            for label in LABELS:
                for attempt in ATTEMPTS:
                    out.append(_decision(
                        plan.transfer_fault(entity, label, attempt, ctx)
                    ))
        for tid in TIDS:
            for mb in MB_INDEXES:
                for attempt in ATTEMPTS:
                    out.append(_decision(
                        plan.task_crash(tid, mb, attempt, ctx)))
        for epoch in EPOCHS:
            out.append(_decision(plan.host_pressure(epoch, ctx)))
            for link in LINKS:
                out.append(_decision(plan.link_degradation(link, epoch, ctx)))
    for device in DEVICES:
        out.append(_decision(plan.gpu_slowdown(device)))
        out.append(_decision(plan.gpu_loss(device)))
        for iteration in ITERATIONS:
            out.append(_decision(plan.gpu_slowdown_at(device, iteration)))
    return out


def _cluster_plan_lines(plan: ClusterFaultPlan) -> list[str]:
    out = [f"enabled {_decision(plan.enabled)}"]
    for server in SERVERS:
        out.append(_decision(plan.server_plan(server)))
        out.append(_decision(plan.server_crash(server)))
    for now in TIMES:
        out.append(_decision(plan.partition_sides(now)))
        out.append(_decision(plan.next_partition_change(now)))
        out.append(_decision(plan.partition_blocked([(0, 1), (2, 3)], now)))
        for a in SERVERS:
            for b in SERVERS:
                out.append(_decision(plan.partitioned(a, b, now)))
    for ctx in CONTEXTS:
        for epoch in EPOCHS:
            out.append(_decision(plan.switch_degradation(epoch, ctx)))
            for server in SERVERS:
                for direction in DIRECTIONS:
                    out.append(_decision(plan.nic_degradation(
                        server, direction, epoch, ctx,
                    )))
    return out


def _service_plan_lines(plan: ServiceFaultPlan) -> list[str]:
    out = [f"enabled {_decision(plan.enabled)}"]
    for rid in RIDS:
        out.append(_decision(plan.poisoned(rid)))
        for attempt in ATTEMPTS:
            out.append(_decision(plan.slowdown(rid, attempt)))
            out.append(_decision(plan.crash(rid, attempt)))
    return out


def scripted_fault_plan(spec: FaultSpec, seed: int) -> ScriptedFaultPlan:
    return ScriptedFaultPlan(
        transfer_faults={("W3", 1): 0.25, ("G2", 0): 0.75},
        crashes={(2, 1, 0): 0.5, (0, 0, 2): 0.125},
        slowdowns={1: (3.0, True)},
        slowdowns_at={2: (2, 1.5, False)},
        losses={3: 2},
        spec=spec, seed=seed,
    )


def scripted_cluster_plan(spec: ClusterFaultSpec,
                          seed: int) -> ScriptedClusterFaultPlan:
    return ScriptedClusterFaultPlan(
        crashes={1: 2},
        partitions=[PartitionWindow(0.01, 0.12, frozenset({0})),
                    (0.3, 0.5, [2, 3])],
        server_plans={2: FaultPlan(FaultSpec.chaos(2.0), seed=11)},
        spec=spec, seed=seed,
    )


def scripted_service_plan(spec: ServiceChaosSpec,
                          seed: int) -> ScriptedServiceFaultPlan:
    return ScriptedServiceFaultPlan(
        poisoned_rids={3, 7}, crashes={1: 2, 2: -1}, slowdowns={0: 7.0},
        spec=spec, seed=seed,
    )


def _record_decisions(case: str) -> str:
    """Every decision of every family for one seed, one per line."""
    seed = int(case.removeprefix("seed-"))
    lines = []
    for intensity in INTENSITIES:
        fault = FaultSpec.chaos(intensity)
        cluster = ClusterFaultSpec.cluster_chaos(intensity)
        service = ServiceChaosSpec.chaos(intensity)
        head = f"seed {seed} intensity {intensity.hex()}"
        for name, plan_lines in (
            ("fault", _fault_plan_lines(FaultPlan(fault, seed))),
            ("scripted-fault", _fault_plan_lines(
                scripted_fault_plan(fault, seed))),
            ("cluster", _cluster_plan_lines(
                ClusterFaultPlan(cluster, seed))),
            ("scripted-cluster", _cluster_plan_lines(
                scripted_cluster_plan(cluster, seed))),
            ("service", _service_plan_lines(
                ServiceFaultPlan(service, seed=seed))),
            ("scripted-service", _service_plan_lines(
                scripted_service_plan(service, seed))),
        ):
            lines.append(f"{head} {name}")
            lines.extend(plan_lines)
    # Scripts over an all-off spec: only the scripted answers fire.
    for name, plan_lines in (
        ("scripted-fault-off", _fault_plan_lines(
            scripted_fault_plan(FaultSpec.none(), seed))),
        ("scripted-cluster-off", _cluster_plan_lines(
            scripted_cluster_plan(ClusterFaultSpec.none(), seed))),
        ("scripted-service-off", _service_plan_lines(
            scripted_service_plan(ServiceChaosSpec.none(), seed))),
    ):
        lines.append(f"seed {seed} {name}")
        lines.extend(plan_lines)
    return "\n".join(lines) + "\n"


CHAOS = Family("chaos", "txt", tuple(f"seed-{seed}" for seed in SEEDS),
               _record_decisions)


FAMILIES = (CLI, CLI_JSON, TRACE, VERDICT, BASELINE, PHASE, ANALYTICS,
            SEARCH, CHAOS)
