"""Benchmark harness: time the planner, the simulator, and tracing.

Measures, per ``model x mode`` case:

- **search_seconds** -- the configuration search alone (Algorithm 1;
  the Table 1 cost the paper reports per model);
- **plan_seconds** -- end-to-end scheduling: decompose + profile +
  search + final graph build;
- **run_seconds** -- wall-clock of executing the planned iteration(s)
  on the simulated server (the discrete-event engine's hot path);
- **trace_seconds / trace_overhead_seconds** -- the same run with the
  trace recorder attached, and its cost over the untraced run.

Plus one report-level ``service`` section: the wall clock of serving a
seeded request storm through :class:`repro.service.PlannerService`
(``serve_seconds`` / ``requests_per_second``) alongside the storm's
deterministic virtual-time facts (cache hit rate, shed rate, p50/p99
virtual latency, breaker trips) so two reports can be checked to have
measured the same storm; and one report-level ``fleet`` section timing
the same service with a :class:`repro.fleet.FleetPlacer` attached (a
mixed-width, mixed-share storm co-placed onto a shared 2-server fleet,
with the storm's deterministic placement/utilization facts).

Every timing is the **minimum over ``repeats``** (the standard
low-noise wall-clock estimator) and each repeat uses a fresh
:class:`~repro.core.harmony.Harmony` so memoized plans never leak
between repeats.  The report also carries a ``calibration_seconds``
reading -- a fixed pure-Python workload timed on the same machine -- so
the perf gate (``scripts/perf_gate.py``) can compare reports taken on
machines of different speeds by normalizing every timing against it.

The emitted report conforms to :data:`repro.perf.schema.BENCH_SCHEMA`
(validated before it is written) and is named ``BENCH_<date>.json`` by
default.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.perf import injected_slowdown, perf_enabled
from repro.perf.schema import SCHEMA_VERSION, check_report


@dataclass(frozen=True)
class BenchCase:
    """One benchmarked configuration."""

    model: str
    mode: str
    gpus: int
    minibatch: int
    iterations: int = 1

    @property
    def key(self) -> str:
        return f"{self.model}|{self.mode}|{self.gpus}|{self.minibatch}"

    def describe(self) -> str:
        return (f"{self.model} {self.mode} x{self.gpus} "
                f"mb{self.minibatch}")


#: Named suites.  ``smoke`` is the CI gate: small enough to run on every
#: push, meaty enough (gpt2, tiny-cnn) that a hot-path regression moves
#: the numbers well past noise.
SUITES: dict[str, tuple[BenchCase, ...]] = {
    "smoke": (
        BenchCase("toy-transformer", "pp", 2, 8),
        BenchCase("tiny-cnn", "dp", 2, 8),
        BenchCase("gpt2", "pp", 4, 32),
    ),
    "zoo": (
        BenchCase("gpt2", "pp", 4, 32),
        BenchCase("gpt2", "dp", 4, 32),
        BenchCase("bert96", "pp", 4, 32),
        BenchCase("vgg416", "pp", 4, 32),
        BenchCase("resnet1k", "pp", 4, 32),
    ),
}


def calibrate(scale: int = 200_000, rounds: int = 3) -> float:
    """Time a fixed pure-Python workload (seconds, min over rounds).

    The workload mixes arithmetic, list building and dict traffic --
    roughly the instruction mix of the scheduler -- so the ratio
    ``case_seconds / calibration_seconds`` is comparable across
    machines.  It is deterministic and allocation-bounded.
    """
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        acc = 0
        table: dict[int, int] = {}
        values = []
        for i in range(scale):
            acc += i * i & 0xFFFF
            if i % 7 == 0:
                table[i & 1023] = acc
            if i % 13 == 0:
                values.append(acc)
        # Consume the results so the loop cannot be dead-code cheated.
        acc += len(table) + len(values)
        best = min(best, time.perf_counter() - t0)
    return best


def _time_case(case: BenchCase, repeats: int) -> dict[str, Any]:
    """Measure one case; returns a schema-shaped case record."""
    from repro.core.harmony import Harmony, HarmonyOptions
    from repro.experiments.common import server_for
    from repro.models.zoo import build_model
    from repro.trace import TraceRecorder

    build_model(case.model)  # warm the lru-cached model builder

    options = HarmonyOptions(mode=case.mode)
    server = server_for(case.gpus)

    search_s = plan_s = run_s = trace_s = float("inf")
    plan = None
    metrics = None
    for _ in range(repeats):
        harmony = Harmony(case.model, server, case.minibatch, options=options)
        t0 = time.perf_counter()
        plan = harmony.plan()
        plan_s = min(plan_s, time.perf_counter() - t0)
        search_s = min(search_s, plan.search.elapsed_seconds)

        t0 = time.perf_counter()
        report = harmony.run(plan=plan, iterations=case.iterations)
        run_s = min(run_s, time.perf_counter() - t0)
        metrics = report.metrics

        recorder = TraceRecorder()
        t0 = time.perf_counter()
        harmony.run(plan=plan, iterations=case.iterations, trace=recorder)
        trace_s = min(trace_s, time.perf_counter() - t0)

    assert plan is not None and metrics is not None
    factor = injected_slowdown()
    return {
        "model": case.model,
        "mode": case.mode,
        "gpus": case.gpus,
        "minibatch": case.minibatch,
        "iterations": case.iterations,
        "search_seconds": search_s * factor,
        "plan_seconds": plan_s * factor,
        "run_seconds": run_s * factor,
        "trace_seconds": trace_s * factor,
        "trace_overhead_seconds": max(0.0, trace_s - run_s) * factor,
        "n_feasible": plan.search.n_feasible,
        "n_infeasible": plan.search.n_infeasible,
        "n_tasks": len(plan.graph),
        "best_estimate": plan.search.best_estimate,
        "iteration_time_sim": metrics.iteration_time,
    }


#: The storm every report's ``service`` section measures.  Fixed here
#: (not configurable) so service numbers are comparable across reports.
SERVICE_STORM_REQUESTS = 200
SERVICE_STORM_SEED = 0
SERVICE_STORM_INTENSITY = 1.0


def _time_service(repeats: int) -> dict[str, Any]:
    """Serve the fixed seeded chaos storm; returns the ``service`` record.

    ``serve_seconds`` is the min over ``repeats`` of the wall clock of
    ``PlannerService.run`` on a fresh service (fresh cache, fresh
    breaker) each repeat; everything else is a deterministic fact of the
    storm and identical across repeats.
    """
    from repro.service import (
        PlannerService, ServiceChaosSpec, ServiceConfig, ServiceFaultPlan,
        scripted_workload,
    )

    requests = scripted_workload(
        SERVICE_STORM_REQUESTS, seed=SERVICE_STORM_SEED
    )
    chaos = ServiceFaultPlan(
        ServiceChaosSpec.chaos(SERVICE_STORM_INTENSITY),
        seed=SERVICE_STORM_SEED,
    )
    serve_s = float("inf")
    metrics = None
    for _ in range(repeats):
        service = PlannerService(
            ServiceConfig(), chaos=chaos, seed=SERVICE_STORM_SEED
        )
        t0 = time.perf_counter()
        service.run(requests)
        serve_s = min(serve_s, time.perf_counter() - t0)
        metrics = service.metrics

    assert metrics is not None
    factor = injected_slowdown()
    serve_s *= factor
    return {
        "requests": SERVICE_STORM_REQUESTS,
        "seed": SERVICE_STORM_SEED,
        "chaos_intensity": SERVICE_STORM_INTENSITY,
        "serve_seconds": serve_s,
        "requests_per_second": (
            SERVICE_STORM_REQUESTS / serve_s if serve_s > 0 else 0.0
        ),
        "cache_hit_rate": metrics.cache_hit_rate,
        "shed_rate": metrics.shed_rate,
        "p50_latency_virtual": metrics.p50_latency,
        "p99_latency_virtual": metrics.p99_latency,
        "breaker_trips": metrics.breaker_trips,
    }


#: The storm every report's ``fleet`` section measures: a clean
#: mixed-width, mixed-share storm co-placed onto a shared 2-server
#: fleet.  Fixed here so fleet numbers are comparable across reports.
FLEET_STORM_REQUESTS = 120
FLEET_STORM_SEED = 0
FLEET_STORM_SERVERS = 2
FLEET_STORM_GPUS = 4


def _time_fleet(repeats: int) -> dict[str, Any]:
    """Serve the fixed fleet storm; returns the ``fleet`` record.

    ``serve_seconds`` is the min over ``repeats`` of the wall clock of
    a fleet-backed ``PlannerService.run`` on a fresh service + fresh
    placer each repeat (placement arithmetic, bind certification and
    the utilization integral are all on this path); everything else is
    a deterministic fact of the seeded storm.
    """
    from repro.fleet import FleetPlacer, fleet_of
    from repro.service import (
        Outcome, PlannerService, ServiceConfig, scripted_workload,
    )

    requests = scripted_workload(
        FLEET_STORM_REQUESTS, seed=FLEET_STORM_SEED,
        gpus=(2, FLEET_STORM_GPUS), shares=(1.0, 0.5),
    )
    serve_s = float("inf")
    metrics = None
    for _ in range(repeats):
        service = PlannerService(
            ServiceConfig(), seed=FLEET_STORM_SEED,
            fleet=FleetPlacer(fleet_of(FLEET_STORM_SERVERS,
                                       FLEET_STORM_GPUS)),
        )
        t0 = time.perf_counter()
        service.run(requests)
        serve_s = min(serve_s, time.perf_counter() - t0)
        metrics = service.metrics

    assert metrics is not None
    factor = injected_slowdown()
    serve_s *= factor
    return {
        "requests": FLEET_STORM_REQUESTS,
        "seed": FLEET_STORM_SEED,
        "servers": FLEET_STORM_SERVERS,
        "gpus_per_server": FLEET_STORM_GPUS,
        "serve_seconds": serve_s,
        "requests_per_second": (
            FLEET_STORM_REQUESTS / serve_s if serve_s > 0 else 0.0
        ),
        "utilization": metrics.fleet_utilization,
        "placements": metrics.fleet_placements,
        "identity": metrics.fleet_identity,
        "partitioned": metrics.fleet_partitioned,
        "timesliced": metrics.fleet_timesliced,
        "certified": metrics.fleet_certified,
        "rejections": metrics.fleet_rejections,
        "shed_no_capacity": metrics.of(Outcome.SHED_NO_CAPACITY),
    }


def run_bench(suite: str = "smoke", repeats: int = 3,
              cases: Optional[Sequence[BenchCase]] = None) -> dict[str, Any]:
    """Run a suite and return the schema-valid report dict."""
    picked = tuple(cases) if cases is not None else SUITES[suite]
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "repeats": repeats,
        "calibration_seconds": calibrate(),
        "perf_disabled": not perf_enabled(),
        "injected_slowdown": injected_slowdown(),
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count() or 1,
        },
        "cases": [_time_case(case, repeats) for case in picked],
        "service": _time_service(repeats),
        "fleet": _time_fleet(repeats),
    }
    check_report(report)
    return report


def default_out_path(date: Optional[str] = None) -> str:
    """``BENCH_<date>.json`` in the current directory."""
    if date is None:
        date = time.strftime("%Y-%m-%d")
    return f"BENCH_{date}.json"


def write_report(report: dict[str, Any], path: str) -> None:
    """Validate and write a report (schema errors abort the write)."""
    check_report(report)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def render_report(report: dict[str, Any]) -> str:
    """Human-readable table of one report."""
    header = (f"bench suite {report['suite']!r}: "
              f"{len(report['cases'])} case(s), "
              f"min over {report['repeats']} repeat(s), "
              f"calibration {report['calibration_seconds'] * 1e3:.1f} ms"
              + (", PERF DISABLED" if report["perf_disabled"] else ""))
    rows = [header, "-" * len(header)]
    fmt = "{:<28} {:>9} {:>9} {:>9} {:>9}  {:>7}"
    rows.append(fmt.format("case", "search", "plan", "run", "trace",
                           "configs"))
    for case in report["cases"]:
        label = (f"{case['model']} {case['mode']} x{case['gpus']} "
                 f"mb{case['minibatch']}")
        rows.append(fmt.format(
            label,
            f"{case['search_seconds']:.3f}s",
            f"{case['plan_seconds']:.3f}s",
            f"{case['run_seconds']:.3f}s",
            f"{case['trace_seconds']:.3f}s",
            str(case["n_feasible"]),
        ))
    svc = report.get("service")
    if svc:
        rows.append(
            f"service storm: {svc['requests']} requests in "
            f"{svc['serve_seconds']:.3f}s wall "
            f"({svc['requests_per_second']:.0f} req/s), "
            f"cache hit {svc['cache_hit_rate'] * 100:.0f}%, "
            f"shed {svc['shed_rate'] * 100:.1f}%, "
            f"p99 latency {svc['p99_latency_virtual']:.2f}s virtual, "
            f"{svc['breaker_trips']} breaker trip(s)"
        )
    fleet = report.get("fleet")
    if fleet:
        rows.append(
            f"fleet storm: {fleet['requests']} requests on "
            f"{fleet['servers']}x{fleet['gpus_per_server']} GPUs in "
            f"{fleet['serve_seconds']:.3f}s wall "
            f"({fleet['requests_per_second']:.0f} req/s), "
            f"utilization {fleet['utilization'] * 100:.0f}%, "
            f"{fleet['placements']} placement(s) "
            f"({fleet['identity']}/{fleet['partitioned']}"
            f"/{fleet['timesliced']} id/part/slice), "
            f"{fleet['rejections']} rejection(s), "
            f"{fleet['shed_no_capacity']} capacity shed(s)"
        )
    return "\n".join(rows)


def main(argv: Optional[Sequence[str]] = None) -> int:  # pragma: no cover
    """Standalone entry (same flags as ``repro bench``)."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", choices=sorted(SUITES), default="smoke")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    report = run_bench(args.suite, repeats=args.repeats)
    print(render_report(report))
    out = args.out or default_out_path()
    write_report(report, out)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
