#!/usr/bin/env python3
"""Paired benchmark runs of one workload from two source trees.

Runs ``bench/run.py`` from a parent tree and from a change tree in
alternating pairs (pair ``i`` uses seed ``seed + i``; even pairs run the
parent first, odd pairs the change first), then prints each pair, each
side's median and quartiles, the change's wins, and whether the gain
rule holds: the change wins at least nine tenths of the pairs, ties
counting for neither, and the medians differ, in the metric's better
direction, by more than the parent's interquartile range.  ``--also``
names more end-to-end metrics to report from the same runs, each side's
median and quartiles; the verdict judges ``--metric`` alone.

Usage (from the repository root; the parent tree can be a
``git worktree`` or a ``git archive`` of the parent commit)::

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload simulate --pairs 10 --seed 201 \\
        --also peak_rss_mib,setup_s

Exits 0 when the rule holds and 1 when it does not.  Run records go to
a temporary directory, so neither tree is written to.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple


class Spread(NamedTuple):
    q1: float
    median: float
    q3: float


class Verdict(NamedTuple):
    parent: Spread
    change: Spread
    wins: int
    ties: int
    pairs: int
    holds: bool


def spread(values: list[float]) -> Spread:
    """Median and quartiles (inclusive method; one value is its own)."""
    if len(values) == 1:
        return Spread(values[0], values[0], values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return Spread(q1, median, q3)


def verdict(parent: list[float], change: list[float],
            higher_is_better: bool = True) -> Verdict:
    """Judge paired runs: ``parent[i]`` and ``change[i]`` are pair ``i``."""
    if not parent or len(parent) != len(change):
        raise ValueError("need one parent and one change value per pair")
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    before, after = spread(parent), spread(change)
    gap = sign * (after.median - before.median)
    holds = 10 * wins >= 9 * len(parent) and gap > before.q3 - before.q1
    return Verdict(before, after, wins, ties, len(parent), holds)


def metric_names(text: str) -> list[str]:
    """The metric names of a comma-separated list, in order, each once."""
    names = [name.strip() for name in text.split(",")]
    if not all(names) or len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(
            f"expected distinct comma-separated metric names, got {text!r}")
    return names


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             metrics: list[str], out: Path) -> list[float]:
    """One ``bench/run.py`` run from ``tree``; returns each of ``metrics``."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--out", str(out)],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if not record["correct"] or record["failed"]:
        raise SystemExit(f"{tree}: seed {seed} ran incorrectly: {record}")
    return [float(record["metrics"][name]["value"]) for name in metrics]


def _better(tree: Path, metric: str) -> bool:
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    for entry in spec["end_to_end"]:
        if entry["name"] == metric:
            return entry["better"] == "higher"
    raise SystemExit(f"{metric!r} is not an end-to-end metric of {tree}")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True,
                    help="seed of the first pair; pair i uses seed + i")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--metric", default="ops_per_s")
    ap.add_argument("--also", type=metric_names, default=[],
                    help="comma-separated end-to-end metrics to report "
                         "too, from the same runs")
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    higher = _better(args.change, args.metric)
    for name in args.also:
        _better(args.change, name)
    metrics = [args.metric] + [m for m in args.also if m != args.metric]
    # Per side, one list of values per metric, in ``metrics`` order.
    parent: list[list[float]] = [[] for _ in metrics]
    change: list[list[float]] = [[] for _ in metrics]
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.pairs):
            seed = args.seed + i
            sides = [(args.parent, parent), (args.change, change)]
            for tree, columns in sides if i % 2 == 0 else sides[::-1]:
                values = run_once(tree.resolve(), args.workload, seed,
                                  args.seconds, metrics, Path(tmp))
                for column, value in zip(columns, values):
                    column.append(value)
            print(f"pair {i} seed {seed}: parent {parent[0][-1]:.4g}  "
                  f"change {change[0][-1]:.4g}", flush=True)
    v = verdict(parent[0], change[0], higher)
    for side, s in (("parent", v.parent), ("change", v.change)):
        print(f"{side}: median {s.median:.4g} [q1 {s.q1:.4g}, q3 {s.q3:.4g}]")
    for k, name in enumerate(metrics[1:], 1):
        for side, columns in (("parent", parent), ("change", change)):
            s = spread(columns[k])
            print(f"{name} {side}: median {s.median:.4g} "
                  f"[q1 {s.q1:.4g}, q3 {s.q3:.4g}]")
    print(f"change wins {v.wins} of {v.pairs} pairs ({v.ties} ties); "
          f"parent IQR {v.parent.q3 - v.parent.q1:.4g}; "
          f"gain rule {'holds' if v.holds else 'does not hold'}")
    return 0 if v.holds else 1


if __name__ == "__main__":
    sys.exit(main())
