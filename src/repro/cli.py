"""Command-line interface.

Subcommands:

- ``plan``  -- run the Scheduler for a model and print the searched
  configuration (the Table 1 view);
- ``run``   -- plan and execute one iteration, printing throughput and
  swap metrics (a Figure 9 cell);
- ``check`` -- plan, then statically verify the schedule (deadlocks,
  dataflow, capacity, topology, ablation consistency) without executing;
  exits nonzero when the analyzer reports errors;
- ``bind``  -- late-bind the logical plan onto a physical topology
  (:mod:`repro.virt`): identity, fewer devices (``--physical``,
  deterministic time-slice multiplexing) or a heterogeneous FLOPs/memory
  mix (``--hetero`` / ``--memory-scales``); the bound schedule is
  re-certified by the strict analyzer against per-physical-device memory
  (nonzero exit when rejected) and ``--run`` also executes it;
- ``experiment`` -- regenerate one of the paper's tables/figures by name;
- ``trace`` -- execute with the trace recorder attached, validate the
  recorded timeline against the runtime invariants, and export it as
  Chrome/Perfetto ``trace_event`` JSON and/or an ASCII timeline;
- ``chaos`` -- run a fault-injection sweep: execute the planned schedule
  under a seeded chaos fault plan for a range of seeds, reporting per-seed
  outcomes (completed + recovery counters, or the typed error) and a
  summary; exits nonzero if any seed hangs the watchdog or breaks byte
  accounting.  ``--devices-lost`` scripts permanent GPU losses on top of
  the chaos mix to exercise elastic re-planning; ``--servers N`` (N > 1)
  switches to the cluster chaos sweep -- whole-server crashes, network
  partitions, NIC/switch flapping over a simulated multi-server fabric
  (``--servers-lost`` / ``--partition-at`` script those deterministically)
  -- recovered by replica restore, cross-server re-planning and pipeline
  stage shrinking; ``--json`` writes the sweep as a machine-readable
  report (cluster sweeps include per-category fault counts and recovery
  outcomes per seed).
- ``serve`` -- drive a seeded scripted request storm through the hardened
  planning service (:mod:`repro.service`): admission control, deadlines,
  retry/backoff, circuit breaker and the graceful-degradation ladder,
  optionally under service-level chaos.  Prints the per-outcome counts
  and latency quantiles; ``--json`` writes the deterministic metrics
  snapshot, ``--check-determinism`` runs the storm twice and fails on
  any metric or per-request mismatch, ``--max-shed-rate`` turns an
  excessive shed rate into a nonzero exit.

Each subparser names its handler (``set_defaults(handler=...)``); a
handler prints its text report and returns ``(exit code, payload)``, and
:func:`main` writes the payload to ``--json PATH`` when one is given.

Examples::

    python -m repro.cli plan gpt2 --minibatch 64 --mode pp
    python -m repro.cli run bert96 --minibatch 32 --mode dp --gpus 4
    python -m repro.cli check gpt2 --minibatch 64 --mode pp
    python -m repro.cli check gpt2 --minibatch 64 --inject cycle
    python -m repro.cli bind toy-transformer --minibatch 16 --gpus 4 \\
        --hetero 1.5,1.5,0.75,0.75 --run --json bind-hetero.json
    python -m repro.cli bind toy-transformer --minibatch 16 --gpus 4 \\
        --physical 2 --run
    python -m repro.cli experiment fig09 --fast
    python -m repro.cli trace toy-transformer --minibatch 8 --gpus 2 \\
        --out trace.json --text
    python -m repro.cli chaos gpt2 --minibatch 32 --seeds 10 --intensity 1.5
    python -m repro.cli chaos gpt2 --minibatch 16 --gpus 4 --seeds 5 \\
        --devices-lost 1 --iterations 3 --json chaos-elastic.json
    python -m repro.cli chaos toy-transformer --minibatch 8 --gpus 2 \\
        --servers 3 --seeds 5 --servers-lost 1 --iterations 3 \\
        --json cluster-chaos.json
    python -m repro.cli serve --requests 500 --chaos --intensity 1.0 \\
        --check-determinism --max-shed-rate 0.35 --json serve.json
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.analysis import INJECTIONS, inject
from repro.core.harmony import Harmony, HarmonyOptions
from repro.experiments.common import render, server_for
from repro.models.zoo import available_models

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.common.chaos import ChaosSpec
    from repro.faults import FaultSpec
    from repro.runtime.metrics import RunMetrics

EXPERIMENTS = {
    "fig01": "fig01_growth",
    "fig02": "fig02_bottleneck",
    "fig07": "fig07_packing",
    "fig08": "fig08_memory",
    "fig09": "fig09_throughput",
    "fig10": "fig10_swapload",
    "fig11": "fig11_zero",
    "fig12": "fig12_correctness",
    "fig13": "fig13_ablation",
    "fig14": "fig14_estimator",
    "fig15": "fig15_massive",
    "fig16": "fig16_scaling",
    "tab01": "tab01_search",
    "tab04": "tab04_equifb",
}


def _positive_int(text: str) -> int:
    """argparse type for a count that must be at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Harmony (VLDB 2022) reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(
        name: str,
        handler: Callable[[argparse.Namespace], tuple[int, Optional[dict]]],
        help: str,
        model: bool = True,
    ) -> argparse.ArgumentParser:
        """Add subcommand ``name`` run by ``handler`` (see the module
        docstring); ``model`` adds the model/minibatch/mode/gpus args."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if model:
            p.add_argument("model", choices=available_models())
            p.add_argument("--minibatch", type=_positive_int, default=32)
            p.add_argument("--mode", choices=("dp", "pp"), default="pp")
            p.add_argument("--gpus", type=int, default=4,
                           choices=(1, 2, 4, 8))
        return p

    command("plan", _plan, "run the Scheduler only")
    command("run", _run, "plan and execute one iteration")

    check = command("check", _check, "statically verify the planned schedule")
    check.add_argument(
        "--inject", choices=sorted(INJECTIONS), default=None,
        help="seed one defect into the plan first, to see the analyzer "
             "catch it (exits nonzero)",
    )
    check.add_argument(
        "--races", action="store_true",
        help="run only the happens-before race passes (plus any other "
             "pass-subset flags given)",
    )
    check.add_argument(
        "--lifetime", action="store_true",
        help="run only the tensor-lifetime passes (plus any other "
             "pass-subset flags given)",
    )
    check.add_argument(
        "--parametric", action="store_true",
        help="run only the parametric capacity certificates (plus any "
             "other pass-subset flags given)",
    )
    check.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the diagnostics, per-pass outcomes and "
             "parametric capacity certificates as JSON",
    )

    bind = command("bind", _bind,
                   "late-bind the logical plan onto a physical topology")
    bind.add_argument("--physical", type=int, default=None,
                      help="physical GPU count (default: the logical "
                           "count); fewer than --gpus time-slices several "
                           "logical devices per physical GPU")
    bind.add_argument("--hetero", metavar="SCALES", default=None,
                      help="comma-separated per-physical-device FLOPs "
                           "scales, e.g. 1.5,1.5,0.75,0.75 (sets the "
                           "physical count; overrides --physical)")
    bind.add_argument("--memory-scales", metavar="SCALES", default=None,
                      help="comma-separated per-physical-device memory "
                           "scales (default: 1.0 each)")
    bind.add_argument("--run", action="store_true",
                      help="also execute the bound schedule")
    bind.add_argument("--iterations", type=_positive_int, default=1,
                      help="iterations for --run (default 1)")
    bind.add_argument("--json", metavar="PATH", default=None,
                      help="write the binding, analyzer verdict and (with "
                           "--run) metrics as JSON")

    experiment = command("experiment", _experiment,
                         "regenerate a paper table/figure", model=False)
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--fast", action="store_true",
                            help="shrunk sweep for a quick look")

    trace = command(
        "trace", _trace,
        "execute with the trace recorder on and export the timeline",
    )
    trace.add_argument("--iterations", type=_positive_int, default=1,
                       help="iterations to record (default 1)")
    trace.add_argument("--out", metavar="PATH", default=None,
                       help="write Chrome/Perfetto trace_event JSON here "
                            "(load in chrome://tracing or ui.perfetto.dev)")
    trace.add_argument("--text", action="store_true",
                       help="also print the per-lane ASCII timeline")
    trace.add_argument("--ring", type=_positive_int, default=None,
                       help="bounded-memory mode: keep only the newest N "
                            "events (accounting checks are skipped once "
                            "events drop)")
    trace.add_argument("--chaos-seed", type=int, default=None,
                       help="additionally inject chaos faults from this "
                            "seed, so the trace shows faults and recovery")
    trace.add_argument("--intensity", type=float, default=1.0,
                       help="chaos intensity when --chaos-seed is given")

    chaos = command("chaos", _chaos,
                    "execute under fault injection across a seed sweep")
    chaos.add_argument("--seeds", type=int, default=5,
                       help="number of fault seeds to sweep (default 5)")
    chaos.add_argument("--seed-base", type=int, default=0,
                       help="first fault seed of the sweep")
    chaos.add_argument("--intensity", type=float, default=1.0,
                       help="chaos intensity multiplier (default 1.0)")
    chaos.add_argument("--iterations", type=_positive_int, default=2,
                       help="iterations per run (default 2, so iteration-"
                            "boundary recovery gets exercised)")
    chaos.add_argument("--transfer-rate", type=float, default=None,
                       help="override the transfer fault rate")
    chaos.add_argument("--crash-rate", type=float, default=None,
                       help="override the task crash rate")
    chaos.add_argument("--devices-lost", type=int, default=0,
                       help="permanently kill this many in-use GPUs per "
                            "seed (victims rotate with the seed; always "
                            "leaves at least one survivor) -- exercises "
                            "elastic re-planning + state migration")
    chaos.add_argument("--lose-at", type=int, default=1,
                       help="iteration at which the losses strike "
                            "(default 1; needs --iterations > this)")
    chaos.add_argument("--servers", type=int, default=1,
                       help="run on a simulated cluster of this many "
                            "servers (>1 switches to the cluster chaos "
                            "sweep: whole-server crashes, partitions, "
                            "NIC/switch flaps; --mode picks dp or a "
                            "stage-per-server pipeline)")
    chaos.add_argument("--servers-lost", type=int, default=0,
                       help="with --servers > 1: permanently crash this "
                            "many servers per seed at --lose-at (victims "
                            "rotate with the seed; always leaves a "
                            "survivor) -- exercises replica restore + "
                            "cross-server re-planning")
    chaos.add_argument("--partition-at", type=float, default=None,
                       help="with --servers > 1: script a network "
                            "partition window opening at this virtual "
                            "time, isolating one seed-rotated server")
    chaos.add_argument("--partition-for", type=float, default=0.02,
                       help="scripted partition window length in virtual "
                            "seconds (default 0.02)")
    chaos.add_argument("--hetero", metavar="SCALES", default=None,
                       help="run the sweep on a heterogeneous bind of the "
                            "plan: comma-separated per-device FLOPs "
                            "scales, one per --gpus (single-server sweeps "
                            "only)")
    chaos.add_argument("--json", metavar="PATH", default=None,
                       help="also write per-seed outcomes, recovery "
                            "counters and elastic re-plan counts as JSON "
                            "(cluster sweeps add per-category cluster "
                            "fault counts and recovery outcomes)")

    serve = command(
        "serve", _serve,
        "drive a seeded request storm through the planning service",
        model=False,
    )
    serve.add_argument("--requests", type=int, default=200,
                       help="storm size (default 200)")
    serve.add_argument("--seed", type=int, default=0,
                       help="workload + chaos + jitter seed (default 0)")
    serve.add_argument("--duration", type=float, default=120.0,
                       help="virtual seconds the arrivals span "
                            "(default 120)")
    serve.add_argument("--tenants", type=int, default=4,
                       help="distinct tenants in the storm (default 4)")
    serve.add_argument("--deadline", type=float, default=45.0,
                       help="per-request deadline budget in virtual "
                            "seconds (default 45)")
    serve.add_argument("--execute-fraction", type=float, default=0.0,
                       help="fraction of requests that also run one "
                            "simulated iteration (default 0)")
    serve.add_argument("--workers", type=int, default=2,
                       help="service worker processes (default 2)")
    serve.add_argument("--queue-limit", type=int, default=16,
                       help="admission queue bound (default 16)")
    serve.add_argument("--quota", type=int, default=8,
                       help="per-tenant in-flight quota, 0 = unlimited "
                            "(default 8)")
    serve.add_argument("--fleet-servers", type=int, default=0,
                       help="co-place requests onto a shared fleet of "
                            "this many simulated servers (0 = no fleet); "
                            "the storm then mixes 2- and 4-GPU jobs at "
                            "full and half memory shares and sheds "
                            "placement misses with a typed reason")
    serve.add_argument("--fleet-gpus", type=int, default=4,
                       help="GPUs per fleet server (default 4)")
    serve.add_argument("--chaos", action="store_true",
                       help="inject service-level chaos (slow planners, "
                            "planner crashes, poisoned requests)")
    serve.add_argument("--intensity", type=float, default=1.0,
                       help="chaos intensity when --chaos is given "
                            "(default 1.0)")
    serve.add_argument("--check-determinism", action="store_true",
                       help="serve the storm twice on fresh services and "
                            "fail unless the metrics snapshots and the "
                            "per-request results are identical")
    serve.add_argument("--max-shed-rate", type=float, default=None,
                       help="exit nonzero if the shed fraction exceeds "
                            "this bound")
    serve.add_argument("--json", metavar="PATH", default=None,
                       help="write the deterministic metrics snapshot "
                            "and per-request outcomes as JSON")
    return parser


def _harmony(args: argparse.Namespace) -> Harmony:
    return Harmony(
        args.model,
        server_for(args.gpus),
        args.minibatch,
        options=HarmonyOptions(mode=args.mode),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload = args.handler(args)
    except argparse.ArgumentError as exc:
        parser.error(str(exc))
    if payload is not None and args.json is not None:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote JSON report to {args.json}")
    return code


def _plan(args: argparse.Namespace) -> tuple[int, None]:
    plan = _harmony(args).plan()
    print(plan.describe())
    print(plan.config.pack_table())
    return 0, None


def _run(args: argparse.Namespace) -> tuple[int, None]:
    print(_harmony(args).run().describe())
    return 0, None


def _experiment(args: argparse.Namespace) -> tuple[int, None]:
    module = importlib.import_module(
        f"repro.experiments.{EXPERIMENTS[args.name]}"
    )
    print(render(module.run(fast=args.fast)))
    return 0, None


def _check(args: argparse.Namespace) -> tuple[int, dict]:
    """The ``check`` subcommand: static verification."""
    harmony = _harmony(args)
    plan = harmony.plan()
    options = plan.options.schedule_options()
    if args.inject:
        options, expected = inject(args.inject, plan.graph, options)
        print(f"injected defect {args.inject!r} "
              f"(should trip {', '.join(expected)})")
    subset = [
        name
        for name, wanted in (
            ("hb", args.races),
            ("lifetime", args.lifetime),
            ("parametric", args.parametric),
        )
        if wanted
    ]
    report = plan.analyze(options=options, passes=subset or None)
    print(report.describe())
    for cert in report.certificates:
        print(f"  certificate: {cert.describe()}")
    payload = (_settings(args, "model", "mode", "gpus", "minibatch")
               | {"injected": args.inject} | report.snapshot())
    return 0 if report.ok else 1, payload


def _serve(args: argparse.Namespace) -> tuple[int, dict]:
    """The ``serve`` subcommand: one seeded storm through the service.

    Everything the storm produces is a deterministic function of the
    seed, so ``--check-determinism`` (serve twice on fresh services,
    compare the full metrics snapshots and every request's outcome,
    detail, run seconds and plan key) is a real bit-identity check, not
    a flakiness lottery.  The second service takes its searches from
    the process-wide search store but simulates and certifies afresh,
    so the check holds plans built from stored searches to fresh ones.
    The exit code is nonzero when determinism fails, when
    ``--max-shed-rate`` is exceeded, or when the service leaves a
    request unresolved (which raises out of ``run``).
    """
    from repro.service import (
        PlannerService,
        ServiceChaosSpec,
        ServiceConfig,
        ServiceFaultPlan,
        scripted_workload,
    )

    fleet_on = args.fleet_servers > 0
    workload_kwargs: dict = {}
    if fleet_on:
        # The fleet storm mixes widths and memory shares so every
        # placement rung (identity / partition / time-slice) is live.
        workload_kwargs = {
            "gpus": (2, args.fleet_gpus),
            "shares": (1.0, 0.5),
        }
    requests = scripted_workload(
        args.requests,
        seed=args.seed,
        duration=args.duration,
        tenants=args.tenants,
        deadline=args.deadline,
        execute_fraction=args.execute_fraction,
        **workload_kwargs,
    )
    spec = (ServiceChaosSpec.chaos(args.intensity) if args.chaos
            else ServiceChaosSpec.none())
    config = ServiceConfig(
        workers=args.workers,
        queue_limit=args.queue_limit,
        tenant_quota=args.quota,
    )

    def storm() -> PlannerService:
        fleet = None
        if fleet_on:
            from repro.fleet import FleetPlacer, fleet_of

            fleet = FleetPlacer(fleet_of(args.fleet_servers,
                                         args.fleet_gpus))
        service = PlannerService(
            config,
            chaos=ServiceFaultPlan(spec, seed=args.seed),
            seed=args.seed,
            fleet=fleet,
        )
        service.run(requests)
        return service

    service = storm()
    metrics = service.metrics
    print(f"served {args.requests} request(s), seed {args.seed}"
          + (f", chaos intensity {args.intensity} ({spec.describe()})"
             if args.chaos else ", no chaos")
          + (f", fleet of {args.fleet_servers} server(s) x "
             f"{args.fleet_gpus} GPUs" if fleet_on else ""))
    print(metrics.describe())
    if fleet_on and service.fleet is not None:
        print(service.fleet.describe())

    def served(run: PlannerService) -> list:
        return [(r.outcome, r.detail, r.run_seconds, r.plan_key)
                for r in run.results]

    failures = []
    if args.check_determinism:
        again = storm()
        if again.metrics.snapshot() == metrics.snapshot() \
                and served(again) == served(service):
            print("determinism check: two runs bit-identical")
        else:
            failures.append("determinism check FAILED: metrics snapshots "
                            "or per-request results differ between two "
                            "identically-seeded runs")
    if args.max_shed_rate is not None:
        if metrics.shed_rate <= args.max_shed_rate:
            print(f"shed rate {metrics.shed_rate:.3f} within bound "
                  f"{args.max_shed_rate}")
        else:
            failures.append(f"shed rate {metrics.shed_rate:.3f} exceeds "
                            f"bound {args.max_shed_rate}")
    for failure in failures:
        print(failure)
    return 1 if failures else 0, {
        "requests": args.requests,
        "seed": args.seed,
        "chaos": spec.describe() if args.chaos else None,
        "intensity": args.intensity if args.chaos else 0.0,
        "fleet": (service.fleet.snapshot()
                  if fleet_on and service.fleet is not None else None),
        "metrics": metrics.snapshot(),
        "breaker": service.breaker.describe(),
        "results": [r.describe() for r in service.results],
        "ok": not failures,
        "failures": failures,
    }


def _parse_scales(text: str) -> list[float]:
    """``"1.5,0.75"`` -> ``[1.5, 0.75]``; rejects empties, <= 0 and
    non-finite scales."""
    try:
        scales = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"malformed scale list {text!r}; expected "
                         f"comma-separated numbers like 1.5,0.75")
    if not scales or not all(s > 0 and math.isfinite(s) for s in scales):
        raise SystemExit(f"scales must be positive finite numbers, "
                         f"got {text!r}")
    return scales


def _bind(args: argparse.Namespace) -> tuple[int, dict]:
    """The ``bind`` subcommand: late-bind a logical plan onto hardware.

    Plans for ``--gpus`` *logical* devices, builds the requested physical
    topology (identity / time-sliced / heterogeneous), re-certifies the
    bound schedule with the strict analyzer against per-physical-device
    memory, and optionally executes it.  Exits 1 when the analyzer
    rejects the bind (e.g. a memory scale the schedule cannot fit).
    """
    from repro.common.errors import ScheduleAnalysisError
    from repro.virt import DeviceBinding, VirtualTopology

    harmony = _harmony(args)
    plan = harmony.plan()
    print(plan.describe())
    flops = _parse_scales(args.hetero) if args.hetero else None
    memory = (_parse_scales(args.memory_scales)
              if args.memory_scales else None)
    if flops is None:
        n_physical = (args.physical if args.physical is not None
                      else args.gpus)
        flops = [1.0] * n_physical
    if memory is None:
        memory = [1.0] * len(flops)
    try:
        topology = VirtualTopology.heterogeneous(flops, memory)
    except ValueError as exc:
        # e.g. --memory-scales length disagreeing with the physical
        # device count: a usage error, not a traceback.
        raise SystemExit(f"bad topology: {exc}")
    binding = DeviceBinding.pack(args.gpus, topology)
    payload: dict = {
        "model": args.model,
        "mode": args.mode,
        "minibatch": args.minibatch,
        "logical_gpus": args.gpus,
        "physical_gpus": topology.n_physical,
        "assignment": list(binding.assignment),
        "flops_scales": flops,
        "memory_scales": memory,
        "fingerprint": binding.fingerprint(),
    }

    try:
        bound = harmony.bind(binding, plan=plan)
    except ScheduleAnalysisError as exc:
        print(f"bind REJECTED by the analyzer:\n{exc}")
        payload.update(ok=False, error=str(exc))
        return 1, payload
    print(bound.describe())
    print(f"analyzer: clean on {bound.server.describe()}")
    payload.update(
        ok=True,
        device_memory_bytes=binding.device_memory(
            bound.server.gpu.memory_bytes
        ),
    )
    if args.run:
        report = harmony.run(plan=bound, iterations=args.iterations)
        print(report.metrics.describe())
        payload.update(
            iteration_time=report.metrics.iteration_time,
            throughput=report.metrics.throughput,
        )
    return 0, payload


def _trace(args: argparse.Namespace) -> tuple[int, None]:
    """Record one traced run and export/validate the timeline.

    The recorded trace is validated against the runtime invariants
    (stream FIFO/exclusivity, dependency order, byte and busy-time
    reconciliation) before anything is written -- the exporter refuses to
    ship a timeline the runtime itself contradicts.  Chaos runs keep the
    structural checks only: restart-discarded attempts are on the trace
    but not in the averaged metrics, by design.
    """
    from repro.trace import (
        TraceRecorder,
        check_trace,
        dump_chrome_trace,
        to_text_timeline,
    )

    harmony = _harmony(args)
    plan = harmony.plan()
    recorder = TraceRecorder(ring=args.ring)
    fault_plan = None
    if args.chaos_seed is not None:
        from repro.faults import FaultPlan, FaultSpec

        fault_plan = FaultPlan(FaultSpec.chaos(args.intensity),
                               seed=args.chaos_seed)
    report = harmony.run(plan=plan, iterations=args.iterations,
                         fault_plan=fault_plan, trace=recorder)
    fault_free = fault_plan is None
    check_trace(
        recorder.events,
        graph=plan.graph if fault_free else None,
        metrics=report.metrics if fault_free else None,
        iterations=args.iterations,
        dropped=recorder.dropped,
    )
    print(plan.describe())
    print(report.metrics.describe())
    if args.out:
        dump_chrome_trace(recorder.events, args.out)
        print(f"wrote {len(recorder.events)} events to {args.out} "
              f"(trace_event JSON; load in ui.perfetto.dev)")
    if args.text:
        print(to_text_timeline(recorder.events))
    return 0, None


def _loss_victims(graph, n: int, seed: int) -> list[int]:
    """Pick ``n`` distinct loss victims for one chaos seed.

    Victims come from the devices that *own state* (UPD task placement)
    so the elastic migration phase has bytes to move; the pick rotates
    with the seed so a sweep kills different devices.  Always leaves at
    least one in-use device alive -- a chaos sweep probes recovery, not
    the trivially unrecoverable zero-survivor case.
    """
    from repro.core.types import TaskKind

    used = sorted({t.device for t in graph.tasks})
    owners = sorted({
        t.device for t in graph.tasks if t.kind is TaskKind.UPD
    }) or used
    k = max(0, min(n, len(used) - 1, len(owners)))
    if k == 0:
        return []
    start = seed % len(owners)
    rotated = owners[start:] + owners[:start]
    return sorted(rotated[:k])


def _chaos(args: argparse.Namespace) -> tuple[int, dict]:
    """Seed-sweep fault injection over one planned schedule.

    ``--devices-lost`` scripts permanent GPU losses on top of the seeded
    chaos mix, driving the elastic escalation ladder (re-bind -> re-plan
    -> state migration); ``--servers N`` runs :func:`_cluster_chaos`.
    """
    from repro.faults import FaultPlan, FaultSpec, ScriptedFaultPlan

    if ((args.devices_lost or args.servers_lost)
            and args.lose_at >= args.iterations):
        raise argparse.ArgumentError(
            None, f"--lose-at {args.lose_at} needs --iterations > "
                  f"{args.lose_at}, got {args.iterations}"
        )
    if args.servers > 1:
        if args.hetero:
            raise SystemExit("--hetero applies to single-server sweeps")
        return _cluster_chaos(args)
    spec = _rate_overrides(args, FaultSpec.chaos(args.intensity))
    harmony = _harmony(args)
    plan = harmony.plan()
    if args.hetero:
        from repro.virt import DeviceBinding

        scales = _parse_scales(args.hetero)
        if len(scales) != args.gpus:
            raise SystemExit(f"--hetero needs one scale per GPU "
                             f"({args.gpus}), got {len(scales)}")
        # One strict-analyzer certification up front; the sweep reuses
        # the bound plan across seeds.
        plan = harmony.bind(DeviceBinding.heterogeneous(scales), plan=plan)
    print((plan.plan if args.hetero else plan).describe())
    print(f"chaos sweep: {args.seeds} seed(s) from {args.seed_base}, "
          f"{spec.describe()}"
          + (f", {args.devices_lost} device(s) lost at iteration "
             f"{args.lose_at}" if args.devices_lost else "")
          + (f", heterogeneous bind x{args.hetero}" if args.hetero else ""))

    def run_seed(seed: int, extra: dict) -> RunMetrics:
        fault_plan = FaultPlan(spec, seed=seed)
        if args.devices_lost:
            victims = _loss_victims(plan.graph, args.devices_lost, seed)
            fault_plan = ScriptedFaultPlan(
                losses={d: args.lose_at for d in victims},
                spec=spec, seed=seed,
            )
        return harmony.run(plan=plan, iterations=args.iterations,
                           fault_plan=fault_plan).metrics

    return _sweep(
        args, "chaos", spec,
        _settings(args, "model", "mode", "gpus", "minibatch", "iterations",
                  "intensity", "devices_lost", "hetero"),
        run_seed,
        summary=lambda records: {"replans": sum(
            r.get("elastic", {}).get("replans", 0) for r in records
        )},
        completed=lambda metrics: {"throughput": metrics.throughput},
    )


#: The ``ClusterMetrics`` counters each cluster sweep record reports.
_CLUSTER_COUNTERS = (
    "servers_lost", "servers_retired", "cluster_replans", "stage_shrinks",
    "state_restores", "partition_stalls", "network_bytes",
    "replication_bytes", "migration_network_bytes",
)


def _cluster_chaos(args: argparse.Namespace) -> tuple[int, dict]:
    """Seed-sweep cluster chaos: failure domains above one machine.

    Recovery is the server-level ladder (replica restore, cross-server
    re-plan, stage shrink); typed failures include
    :class:`~repro.common.errors.ClusterFaultError`, and hard failures
    include broken per-network-link byte reconciliation.  Plans are
    memoized across the sweep, so it re-searches nothing.
    """
    from dataclasses import replace

    from repro.cluster import (
        ClusterFaultPlan,
        ClusterFaultSpec,
        ClusterPlanner,
        ClusterRunner,
        PartitionWindow,
        ScriptedClusterFaultPlan,
        homogeneous_cluster,
    )

    n = args.servers
    spec = ClusterFaultSpec.cluster_chaos(args.intensity)
    spec = replace(spec, inner=_rate_overrides(args, spec.inner))
    cluster = homogeneous_cluster(n, server_for(args.gpus))
    planner = ClusterPlanner(args.model, cluster, args.minibatch,
                             mode=args.mode)
    print(planner.plan_for(tuple(range(n))).describe())
    scripted_losses = min(args.servers_lost, n - 1)
    scripted = scripted_losses > 0 or args.partition_at is not None
    print(f"cluster chaos sweep: {n} server(s), {args.seeds} seed(s) "
          f"from {args.seed_base}, {spec.describe()}"
          + (f", {scripted_losses} server(s) lost at iteration "
             f"{args.lose_at}" if scripted_losses else "")
          + (f", partition at t={args.partition_at:g} for "
             f"{args.partition_for:g}s" if args.partition_at is not None
             else ""))

    def run_seed(seed: int, extra: dict) -> RunMetrics:
        fault_plan = ClusterFaultPlan(spec, seed=seed)
        if scripted:
            # Scripted losses are the only whole-server crashes (mirrors
            # --devices-lost one level down): stacking seeded crashes on
            # top would kill owner+buddy pairs on most seeds.
            partitions = [] if args.partition_at is None else [
                PartitionWindow(args.partition_at,
                                args.partition_at + args.partition_for,
                                frozenset({seed % n})),
            ]
            fault_plan = ScriptedClusterFaultPlan(
                crashes={(seed + i) % n: args.lose_at
                         for i in range(scripted_losses)},
                partitions=partitions,
                spec=replace(spec, server_crash_rate=0.0), seed=seed,
            )
        runner = ClusterRunner(planner, fault_plan)
        try:
            return runner.run(args.iterations)
        finally:
            # Cluster counters exist for failed runs too (faults
            # delivered, recovery attempted before the ladder gave out).
            extra["cluster"] = {
                "fault_counts": runner.metrics.fault_counts(),
                **{k: getattr(runner.metrics, k) for k in _CLUSTER_COUNTERS},
            }

    return _sweep(
        args, "cluster chaos", spec,
        _settings(args, "model", "mode", "gpus", "servers", "minibatch",
                  "iterations", "intensity", "servers_lost", "partition_at",
                  "partition_for") | {"servers_lost": scripted_losses},
        run_seed,
        summary=lambda records: {
            key: sum(r["cluster"][key] for r in records)
            for key in ("cluster_replans", "state_restores",
                        "migration_network_bytes")
        },
    )


def _rate_overrides(args: argparse.Namespace, spec: FaultSpec) -> FaultSpec:
    """``spec`` with the ``--transfer-rate`` / ``--crash-rate`` overrides."""
    from dataclasses import replace

    if args.transfer_rate is not None:
        spec = replace(spec, transfer_fault_rate=args.transfer_rate)
    if args.crash_rate is not None:
        spec = replace(spec, task_crash_rate=args.crash_rate)
    return spec


def _settings(args: argparse.Namespace, *names: str) -> dict:
    return {name: getattr(args, name) for name in names}


def _sweep(
    args: argparse.Namespace,
    title: str,
    spec: ChaosSpec,
    settings: dict,
    run_seed: Callable[[int, dict], RunMetrics],
    summary: Callable[[list[dict]], dict],
    completed: Callable[[RunMetrics], dict] = lambda metrics: {},
) -> tuple[int, dict]:
    """Run one chaos seed sweep, print it and return its report.

    Three per-seed outcomes: *completed* (recovery won -- byte invariants
    were audited inside the runner), *typed failure* (faults exhausted the
    recovery policy; an acceptable chaos outcome, reported with the fault's
    entity), and *hard failure* (watchdog trip or broken byte accounting
    -- a runtime bug).  Only hard failures make the exit code nonzero.

    ``run_seed(seed, extra)`` builds the seed's fault plan and returns
    the run's metrics; what it puts in ``extra`` ends the seed's record
    whatever the outcome.  ``summary(records)`` adds summary totals,
    ``completed(metrics)`` fields to completed records, and ``settings``
    opens the report.
    """
    from dataclasses import asdict

    from repro.common.errors import FaultError, SimulationError

    records = []
    for seed in range(args.seed_base, args.seed_base + args.seeds):
        record: dict = {"seed": seed}
        extra: dict = {}
        try:
            metrics = run_seed(seed, extra)
        except FaultError as exc:
            entity = f" [{exc.entity}]" if exc.entity else ""
            print(f"  seed {seed}: FAILED {type(exc).__name__}{entity}: {exc}")
            record.update(outcome="failed", error_type=type(exc).__name__,
                          entity=exc.entity, message=str(exc))
        except SimulationError as exc:
            print(f"  seed {seed}: HARD FAILURE {type(exc).__name__}: {exc}")
            record.update(outcome="hard_failure",
                          error_type=type(exc).__name__, message=str(exc))
        else:
            # A cluster run reports its cluster counters, a single-server
            # run its elastic ones.
            detail = (metrics.cluster if metrics.cluster is not None
                      else metrics.elastic)
            print(f"  seed {seed}: completed, iteration "
                  f"{metrics.iteration_time:.4f}s, "
                  f"{metrics.recovery.describe()}"
                  + (f"; {detail.describe()}" if detail.any else ""))
            record.update(
                outcome="completed",
                iteration_time=metrics.iteration_time,
                **completed(metrics),
                recovery=asdict(metrics.recovery),
                elastic=asdict(metrics.elastic),
            )
        records.append(record | extra)
    outcomes = [r["outcome"] for r in records]
    counts = {"completed": outcomes.count("completed"),
              "failed": outcomes.count("failed"),
              "hard_failures": outcomes.count("hard_failure")}
    hard = counts["hard_failures"]
    print(f"{title} summary: {counts['completed']} completed, "
          f"{counts['failed']} failed with a typed fault, {hard} hard "
          f"failure(s) "
          f"({'runtime bug' if hard else 'byte accounting intact, no hangs'})")
    return 1 if hard else 0, settings | {
        "seed_base": args.seed_base,
        "seeds": args.seeds,
        "spec": spec.describe(),
        "results": records,
        "summary": counts | summary(records),
    }


if __name__ == "__main__":
    sys.exit(main())
