#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload plan-zoo --seed 0 --seconds 10 --trace 0

The run sets up ``SETUPS`` times (each set-up builds the workload's
inputs and runs one untimed warm-up pass; ``setup_s`` is their median),
then times ops in passes until the first pass boundary after
``--seconds``, or until the workload's catalogue runs out.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps each
layer's entry points (see ``tracing.py``), reports the per-layer metrics
and writes ``bench/out/<workload>-s<seed>.trace.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record of the run
(calibration, raw times, facts digest) is written under ``--out``.
Metrics from virtual time (``virtual_samples_per_s``,
``latency_p99_virtual_s``) and the facts digest are taken over the first
timed pass, so they do not depend on how many passes the host completes.

Wall-clock metrics are in *reference seconds*: every op and set-up step
is multiplied by ``REF_PROBE_S`` over the median time of the calibration
probes (a short pure-Python arithmetic, dict and list loop) run within
``PROBE_WINDOW_S`` of it.  A probe runs between ops whenever
``PROBE_EVERY_S`` has passed since the last one.  On shared hosts the
raw times of one op drift by 30-40% as neighbours come and go; its
ratio to the probes next to it moves by a quarter of that.  The raw
times stay in the run record.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

SETUPS = 3
PROBE_ITERATIONS = 20_000
#: Median probe time on a quiet 2.1 GHz x86-64 vCPU (CPython 3.11).
REF_PROBE_S = 2.5e-3
PROBE_EVERY_S = 0.1
PROBE_WINDOW_S = 0.15
#: Wall clock after which a pass in progress is abandoned (and dropped),
#: so a pathologically slow build still exits well inside three minutes.
HARD_STOP_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "ok_frac": "frac",
    "peak_rss_mib": "MiB",
    "virtual_samples_per_s": "samples/virt_s",
    "requests_per_s": "1/s",
    "latency_p99_virtual_s": "virt_s",
}

LAYER_UNITS = {"calls": "count", "self_s": "s", "self_share": "frac"}

EXTRA_LAYER_UNITS = {
    "core.profiler.calls_per_model": "count",
    "core.search.candidates": "count",
    "core.search.feasible_frac": "frac",
    "core.taskgraph.builds_per_plan": "count",
    "core.estimator.drift_frac": "frac",
    "run.swap_gib_per_iter": "GiB",
    "run.p2p_gib_per_iter": "GiB",
    "run.gpu_idle_frac": "frac",
    "run.peak_gpu_gib": "GiB",
    "sim.engine.events": "count",
    "sim.engine.us_per_event": "us",
    "sim.links.gib_moved": "GiB",
    "service.cache.hit_frac": "frac",
    "service.queue_wait_p90_virtual_s": "virt_s",
    "service.retries": "count",
    "service.breaker_trips": "count",
    "service.stale_rebinds": "count",
    "service.baseline_plans": "count",
    "fleet.placer.reserve.miss_frac": "frac",
    "fleet.utilization": "frac",
    "bench.covered_frac": "frac",
    "bench.traced_ops_per_s": "1/s",
}


def nearest_rank(values: list, q: float) -> float:
    """The nearest-rank ``q`` quantile: the smallest value with at least
    ``q`` of the sample at or below it."""
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def geomean(values: list) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def probe() -> float:
    """Seconds for one run of the calibration loop."""
    t0 = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    values = []
    for i in range(PROBE_ITERATIONS):
        acc += i * i & 0xFFFF
        if i % 7 == 0:
            table[i & 1023] = acc
        if i % 13 == 0:
            values.append(acc)
    acc += len(table) + len(values)
    return time.perf_counter() - t0


class ReferenceClock:
    """Times intervals and converts them to reference seconds.

    ``interval(fn)`` runs ``fn`` between two chances to probe; once every
    interval is timed, ``reference(t0, t1)`` scales ``t1 - t0`` by
    ``REF_PROBE_S`` over the median of the probes that started within
    ``PROBE_WINDOW_S`` of the interval (the nearest probe if none did).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 probe: Callable[[], float] = probe):
        self.clock = clock
        self.probe = probe
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._last = -math.inf

    def maybe_probe(self) -> None:
        if self.clock() - self._last >= PROBE_EVERY_S:
            self.starts.append(self.clock())
            self.seconds.append(self.probe())
            self._last = self.clock()

    def interval(self, fn: Callable[[], Any]) -> tuple[Any, float, float]:
        """``(fn(), start, end)``."""
        self.maybe_probe()
        t0 = self.clock()
        result = fn()
        t1 = self.clock()
        self.maybe_probe()
        return result, t0, t1

    def reference(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.starts, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + PROBE_WINDOW_S)
        near = self.seconds[lo:hi]
        if not near:
            nearest = min(range(len(self.starts)),
                          key=lambda i: abs(self.starts[i] - t0))
            near = [self.seconds[nearest]]
        return (t1 - t0) * REF_PROBE_S / statistics.median(near)


@dataclass
class Op:
    """One timed op: its pass, wall interval and verdict."""

    k: int
    t0: float
    t1: float
    checked: Any
    ref_s: float = 0.0

    @property
    def raw_s(self) -> float:
        return self.t1 - self.t0


@dataclass
class Raised:
    """An exception an op raised instead of returning."""

    exc: Exception


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def timed_passes(cases_for: Callable[[int], list],
                 measure: Callable[[Any, int], Op],
                 seconds: float, deadline: float,
                 clock: Callable[[], float] = time.perf_counter) -> list:
    """Run passes until the first pass boundary after ``seconds``, or
    until ``cases_for`` returns no cases.

    ``measure(case, k)`` times one op.  A pass still running at the
    absolute ``deadline`` is abandoned and dropped, so every returned pass
    is complete.
    """
    start = clock()
    passes: list[list[Op]] = []
    for k in itertools.count():
        cases = cases_for(k)
        if not cases:
            return passes
        done = []
        for case in cases:
            if clock() > deadline:
                return passes
            done.append(measure(case, k))
        passes.append(done)
        if clock() - start >= seconds:
            return passes


def timed_setup(workload: Any, clock: ReferenceClock) -> tuple[list, list]:
    """Set ``workload`` up once; returns the problems found and the wall
    interval of every set-up step."""
    steps: list[tuple[float, float]] = []

    def step(fn: Callable[[], Any]) -> Any:
        result, t0, t1 = clock.interval(fn)
        steps.append((t0, t1))
        return result

    return workload.setup(step), steps


def layer_metrics(rec: Any, layers: tuple, ops: list) -> dict:
    """Per-layer values of a traced run; counts and ``self_s`` are per
    timed op, ``self_s`` in reference seconds."""
    n_ops = len(ops)
    op_raw = sum(op.raw_s for op in ops)
    per_op_ref = sum(op.ref_s for op in ops) / n_ops
    calls, self_s, counts = rec.calls, rec.self_s, rec.counts
    values: dict[str, float] = {}
    for layer in layers:
        share = self_s[layer] / op_raw
        values[f"{layer}.calls"] = calls[layer] / n_ops
        values[f"{layer}.self_s"] = share * per_op_ref
        values[f"{layer}.self_share"] = share
    runs = counts["runs"]
    gib = 2.0 ** 30
    drifts = [op.checked.drift for op in ops if op.checked.drift is not None]
    engine_s = values["sim.engine.self_s"] * n_ops
    values.update({
        "core.profiler.calls_per_model": _ratio(calls["core.profiler"],
                                                len(rec.models)),
        "core.search.candidates": _ratio(counts["search.candidates"],
                                         calls["core.search"]),
        "core.search.feasible_frac": _ratio(counts["search.feasible"],
                                            counts["search.candidates"]),
        "core.taskgraph.builds_per_plan": _ratio(calls["core.taskgraph"],
                                                 calls["core.search"]),
        "core.estimator.drift_frac": _ratio(sum(drifts), len(drifts)),
        "run.swap_gib_per_iter": _ratio(counts["run.swap_bytes"], runs) / gib,
        "run.p2p_gib_per_iter": _ratio(counts["run.p2p_bytes"], runs) / gib,
        "run.gpu_idle_frac": _ratio(counts["run.idle"], runs),
        "run.peak_gpu_gib": counts["run.peak_bytes"] / gib,
        "sim.engine.events": counts["engine.events"] / n_ops,
        "sim.engine.us_per_event": _ratio(engine_s * 1e6,
                                          counts["engine.events"]),
        "sim.links.gib_moved": counts["links.bytes"] / n_ops / gib,
        "service.cache.hit_frac": _ratio(counts["cache.hits"],
                                         counts["cache.lookups"]),
        "service.queue_wait_p90_virtual_s":
            nearest_rank(rec.waits, 0.9) if rec.waits else 0.0,
        "fleet.placer.reserve.miss_frac": _ratio(counts["fleet.misses"],
                                                 counts["fleet.reserves"]),
        "fleet.utilization": _ratio(counts["fleet.utilization"],
                                    counts["service.runs"]),
        "bench.covered_frac": rec.covered / op_raw,
        "bench.traced_ops_per_s": 1.0 / per_op_ref,
    })
    for name in ("retries", "breaker_trips", "stale_rebinds", "baseline_plans"):
        values[f"service.{name}"] = _ratio(counts[f"service.{name}"],
                                           counts["service.runs"])
    return values


def case_times(ops: list) -> dict:
    """Each case's median op time over the run, in reference seconds,
    with the units one op of it serves."""
    seen: dict[str, tuple[list, int]] = {}
    for op in ops:
        seen.setdefault(op.checked.key, ([], op.checked.units))[0].append(
            op.ref_s)
    return {key: (statistics.median(times), units)
            for key, (times, units) in seen.items()}


def end_to_end_metrics(passes: list, setup_s: list) -> dict:
    """End-to-end values from the timed passes and the set-up times.
    Wall-clock values are over per-case median times, so one case's
    outlier op cannot move a percentile that sits between two cases'
    times."""
    typical = case_times([op for done in passes for op in done])
    times = [seconds for seconds, _ in typical.values()]
    wall = sum(times)
    checked = [op.checked for done in passes for op in done]
    first = [op.checked for op in passes[0]]
    return {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": len(times) / wall,
        "op_p50_s": nearest_rank(times, 0.50),
        "op_p90_s": nearest_rank(times, 0.90),
        "ok_frac": sum(c.units_ok for c in checked)
        / sum(c.units for c in checked),
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "virtual_samples_per_s":
            geomean([t for c in first for t in c.throughputs]),
        "requests_per_s": sum(units for _, units in typical.values()) / wall,
        "latency_p99_virtual_s":
            nearest_rank([v for c in first for v in c.latencies], 0.99),
    }


def _calibrate() -> Any:
    """``repro.perf.bench.calibrate()``, the repository's own calibration
    reading, kept as run metadata (None where the repository has none)."""
    try:
        from repro.perf.bench import calibrate
    except ImportError:
        return None
    return calibrate()


def _record_path(out: Path, stem: str) -> Path:
    index = 0
    while (out / f"{stem}-{index}.json").exists():
        index += 1
    return out / f"{stem}-{index}.json"


def main(argv: Any = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", required=True,
                        choices=("plan-zoo", "simulate", "simulate-traced",
                                 "serve-fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        nargs="?", const=1,
                        help="1 (or the bare flag): per-layer traced run")
    parser.add_argument("--out", type=Path, default=OUT / "runs",
                        help="directory for the run record (default: %(default)s)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: the repro package is missing under {SRC}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    from tracing import LAYERS, SpanRecorder, installed
    from workloads import WORKLOADS, Checked, facts_digest, load_golden, pass_order

    calibration = [_calibrate()]
    clock = ReferenceClock()
    workload = WORKLOADS[args.workload](load_golden())
    setup_steps: list[list[tuple[float, float]]] = []
    problems: list[str] = []
    for _ in range(SETUPS):
        found, steps = timed_setup(workload, clock)
        problems += found
        setup_steps.append(steps)

    rec = SpanRecorder() if args.trace else None
    op_ids = itertools.count()

    def cases_for(k: int) -> list:
        cases = workload.pass_cases(k)
        return [cases[i] for i in pass_order(args.seed, k, len(cases))]

    def measure(case: Any, k: int) -> Op:
        op_id = next(op_ids)
        scope = rec.in_op(op_id, f"op{op_id} {case}") if rec else nullcontext()

        def op() -> Any:
            try:
                with scope:
                    return workload.op(case)
            except Exception as exc:  # an op that raises counts as failed
                traceback.print_exc()
                return Raised(exc)

        result, t0, t1 = clock.interval(op)
        if isinstance(result, Raised):
            return Op(k, t0, t1, Checked(
                str(case), {"exception": type(result.exc).__name__}, False,
                f"{case}: {result.exc!r}", units_ok=0))
        return Op(k, t0, t1, workload.check(case, result, deep=(k == 0)))

    with installed(rec) if rec else nullcontext():
        passes = timed_passes(cases_for, measure, args.seconds,
                              started + HARD_STOP_S)
    if not passes:
        print("bench: no pass completed before the hard stop", file=sys.stderr)
        return 1
    calibration.append(_calibrate())
    ops = [op for done in passes for op in done]
    for op in ops:
        op.ref_s = clock.reference(op.t0, op.t1)
    setup_raw = [sum(t1 - t0 for t0, t1 in steps) for steps in setup_steps]
    setup_ref = [sum(clock.reference(t0, t1) for t0, t1 in steps)
                 for steps in setup_steps]

    problems += [op.checked.problem for op in ops if not op.checked.ok]
    failed = sum(1 for op in ops if not op.checked.ok)
    if rec:
        values = layer_metrics(rec, LAYERS, ops)
        units = {name: LAYER_UNITS[name.rsplit(".", 1)[1]]
                 for name in values if name not in EXTRA_LAYER_UNITS}
        units.update(EXTRA_LAYER_UNITS)
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"{args.workload}-s{args.seed}.trace.json"
        trace_path.write_text(json.dumps(rec.chrome_trace()))
    else:
        values = end_to_end_metrics(passes, setup_ref)
        units = END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    run_record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calibration_s": calibration,
        "probes": len(clock.seconds),
        "probe_median_s": statistics.median(clock.seconds),
        "setup_raw_s": setup_raw,
        "setup_ref_s": setup_ref,
        "passes": len(passes),
        "cases": len({op.checked.key for op in ops}),
        "op_s": [[op.k, op.checked.key, op.raw_s, op.ref_s] for op in ops],
        "facts_sha256": facts_digest([op.checked for op in passes[0]]),
        "problems": problems[:20],
        "result": result,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}" + ("-traced" if args.trace else "")
    _record_path(args.out, stem).write_text(
        json.dumps(run_record, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(passes)} pass(es), "
          f"{len(ops)} ops, percentiles over {run_record['cases']} case "
          f"medians, set-up {statistics.median(setup_ref):.2f}s "
          f"(median of {SETUPS}), facts {run_record['facts_sha256'][:12]}, "
          f"{'correct' if not problems else 'INCORRECT'}")
    for problem in problems[:5]:
        print(f"  problem: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
