#!/usr/bin/env python3
"""Check that two sets of benchmark runs agree.

    python3 bench/agree.py A/ B/

``A`` and ``B`` are directories of run records (``run.py --out DIR``).
For every workload and end-to-end metric the script prints each side's
median and quartiles, and flags the pair when the medians differ by more
than the metric's bound in ``BENCHMARK.json``, taken as a share of A's
median.  It also flags runs of the same workload and seed whose
``facts_sha256`` differ, and workloads missing from either side.  Exits 1
when anything is flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory: Path) -> dict[str, list[dict]]:
    """Untraced run records in ``directory``, by workload."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(a: dict[str, list[dict]], b: dict[str, list[dict]],
            metrics: list[dict]) -> tuple[list[str], int]:
    lines, flagged = [], 0
    for workload in sorted(set(a) | set(b)):
        if workload not in a or workload not in b:
            lines.append(f"{workload}: missing from "
                         f"{'A' if workload not in a else 'B'}  FLAG")
            flagged += 1
            continue
        lines.append(f"{workload} ({len(a[workload])} vs "
                     f"{len(b[workload])} runs)")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            sides = [
                quartiles([r["result"]["metrics"][name]["value"] for r in runs])
                for runs in (a[workload], b[workload])
            ]
            base, other = sides[0][1], sides[1][1]
            diff = (other - base) / base if base else float(other != base)
            flag = abs(diff) > bound
            flagged += flag
            lines.append(
                f"  {name:24s} A {base:.6g} [{sides[0][0]:.6g}, "
                f"{sides[0][2]:.6g}]  B {other:.6g} [{sides[1][0]:.6g}, "
                f"{sides[1][2]:.6g}]  {diff:+.2%} (bound {bound:.1%})"
                + ("  FLAG" if flag else "")
            )
        digests: dict[int, set[str]] = {}
        for record in a[workload] + b[workload]:
            digests.setdefault(record["seed"], set()).add(
                record["facts_sha256"])
        for seed, seen in sorted(digests.items()):
            if len(seen) > 1:
                lines.append(f"  facts_sha256 differs at seed {seed}: "
                             f"{sorted(seen)}  FLAG")
                flagged += 1
    return lines, flagged


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    a, b = (load_runs(Path(arg)) for arg in argv)
    lines, flagged = compare(a, b, metrics)
    print("\n".join(lines))
    print(f"{flagged} flag(s)")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
