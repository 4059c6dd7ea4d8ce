#!/usr/bin/env python3
"""Regenerate ``bench/golden.json``, the benchmark's correctness facts.

    python3 bench/make_golden.py

Records, through the same ops the benchmark times:

- ``plan``: config, ``float.hex(best_estimate)`` and task count (or the
  typed error name) for every ``plan-zoo`` problem, warm-up included;
- ``simulate``: ``float.hex(iteration_time)`` and swap/p2p bytes of every
  ``simulate`` run;
- ``storms``: the outcome digest and plan-less request count of every
  ``serve-fleet`` storm.

Run it only when a change is meant to move these facts; a speed change
must leave the file byte-identical.  Takes about a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from workloads import (  # noqa: E402
    COMBOS, GOLDEN_PATH, SIZE_STEPS, STORM_SEEDS, PlanZoo, ServeFleet,
    Simulate, minibatch, plan_facts, problem_key, run_facts, storm_facts,
    warmup_problems,
)


def main() -> int:
    # Workloads built over empty facts: their set-up checks fail and are
    # ignored; only the ops are used here.
    empty: dict = {"plan": {}, "simulate": {}, "storms": {}}
    zoo = PlanZoo(empty)
    plans = {}
    for combo in COMBOS:
        for step in range(SIZE_STEPS):
            case = (combo, minibatch(combo, step))
            plans[problem_key(*case)] = plan_facts(zoo.op(case))

    simulate = Simulate(empty)
    simulate.setup()
    runs = {
        problem_key(*case): run_facts(simulate.op(case)[0].metrics)
        for case in warmup_problems()
    }

    fleet = ServeFleet(empty)
    fleet.setup()
    storms = {str(seed): storm_facts(*fleet.op(seed)) for seed in STORM_SEEDS}

    golden = {"plan": plans, "simulate": runs, "storms": storms}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}: {len(plans)} plans, {len(runs)} runs, "
          f"{len(storms)} storms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
