#!/usr/bin/env python3
"""What tracing costs a simulated run: wall ratio and recorder cost.

Runs the benchmark's ``simulate`` op (``Harmony.run`` over the 24 bench
warm-up plans, built once in set-up) in interleaved passes, untraced and
with a ``TraceRecorder`` attached, alternating which goes first, and
prints:

- the paired untraced/traced wall ratio of the passes (median and
  quartiles; 1.0 would be free tracing);
- the recorder's own cost in ms per op: every ``span``/``instant``/
  ``advance`` call of each case's traced run is captured once, then
  replayed into a fresh recorder, alone ("record") and followed by
  ``canonical()`` ("record + canonical").

It imports ``bench/workloads.py`` read-only and the ``repro`` package
from the tree the script sits in, so a copy of the script in another
checkout (for instance a ``git archive`` of a parent commit) measures
that checkout.  It reports numbers only and exits 0.

Usage (from the repository root)::

    python3 scripts/trace_overhead.py --passes 15
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles (inclusive method; one value is its own)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def capture(harmony, plan, iterations: int) -> list:
    """Every recorder call one traced run makes, as ``(method, args,
    kwargs)`` with ``method`` unbound, in call order."""
    from repro.trace import TraceRecorder

    calls: list = []

    class Capturing(TraceRecorder):
        def span(self, *args, **kwargs):
            calls.append((TraceRecorder.span, args, kwargs))
            return super().span(*args, **kwargs)

        def instant(self, *args, **kwargs):
            calls.append((TraceRecorder.instant, args, kwargs))
            return super().instant(*args, **kwargs)

        def advance(self, dt):
            calls.append((TraceRecorder.advance, (dt,), {}))
            return super().advance(dt)

    harmony.run(plan=plan, iterations=iterations, trace=Capturing())
    return calls


def replay(calls: list, read: bool) -> float:
    """Seconds to replay ``calls`` into a fresh recorder (and, if
    ``read``, to take its ``canonical()`` text)."""
    from repro.trace import TraceRecorder

    start = time.perf_counter()
    recorder = TraceRecorder()
    for method, args, kwargs in calls:
        method(recorder, *args, **kwargs)
    if read:
        recorder.canonical()
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=15,
                        help="interleaved untraced/traced pass pairs")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be >= 1")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from workloads import ITERATIONS, Simulate, load_golden, warmup_problems

    from repro.trace import TraceRecorder

    workload = Simulate(load_golden())
    problems = workload.setup()
    if problems:
        print("set-up problems:", *problems, sep="\n  ", file=sys.stderr)
        return 1
    runs = [workload.plans[case] for case in warmup_problems()]
    for harmony, plan in runs:  # traced warm-up
        harmony.run(plan=plan, iterations=ITERATIONS, trace=TraceRecorder())
    captured = [capture(harmony, plan, ITERATIONS) for harmony, plan in runs]

    def timed_pass(traced: bool) -> float:
        start = time.perf_counter()
        for harmony, plan in runs:
            harmony.run(plan=plan, iterations=ITERATIONS,
                        trace=TraceRecorder() if traced else None)
        return time.perf_counter() - start

    ratios, record_ms, read_ms = [], [], []
    for k in range(args.passes):
        if k % 2:
            traced = timed_pass(True)
            untraced = timed_pass(False)
        else:
            untraced = timed_pass(False)
            traced = timed_pass(True)
        ratios.append(untraced / traced)
        record_ms.append(1e3 * sum(replay(c, False) for c in captured)
                         / len(runs))
        read_ms.append(1e3 * sum(replay(c, True) for c in captured)
                       / len(runs))

    calls = sum(len(c) for c in captured) / len(runs)
    print(f"{args.passes} pass pair(s) over {len(runs)} cases, "
          f"{calls:.0f} recorder calls per op")
    for label, values, unit in (
            ("untraced/traced wall", ratios, ""),
            ("record", record_ms, " ms/op"),
            ("record + canonical", read_ms, " ms/op")):
        q1, median, q3 = quartiles(values)
        print(f"{label:<22} median {median:.3f}{unit}  "
              f"IQR {q3 - q1:.3f} [{q1:.3f}, {q3:.3f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
