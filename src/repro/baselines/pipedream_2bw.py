"""2BW Swap: PipeDream-2BW with per-GPU memory virtualization.

PipeDream-2BW runs the 1F1B schedule (each stage alternates one forward
and one backward in steady state), avoiding GPipe's flush bubbles, at the
cost of keeping *two* weight versions per stage.  With per-GPU swapping
the doubled weight state adds memory pressure -- which is why the paper
finds the gap between GP Swap and 2BW Swap "less dramatic" in the
swap-dominated regime than when models fit in memory.

``recompute=True`` gives 2BW Swap (R).  The plan body is GP Swap's
(:class:`~repro.baselines.gpipe_swap.PipelineSwapScheme`); 2BW supplies
the 1F1B step order and the second weight version.
"""

from __future__ import annotations

from repro.baselines.gpipe_swap import PipelineSwapScheme, Step


def one_f_one_b_order(n_stages: int, stage: int, n_mbs: int) -> list[tuple[str, int]]:
    """The 1F1B schedule for one stage: warmup forwards, steady-state
    alternation, drain backwards."""
    warmup = min(n_stages - stage, n_mbs)
    order: list[tuple[str, int]] = [("F", i) for i in range(warmup)]
    next_f, next_b = warmup, 0
    while next_b < n_mbs:
        order.append(("B", next_b))
        next_b += 1
        if next_f < n_mbs:
            order.append(("F", next_f))
            next_f += 1
    return order


class PipeDream2BWPlanner(PipelineSwapScheme):
    """Plan and run 2BW Swap / 2BW Swap (R)."""

    name = "2bw-swap"
    weight_versions = 2  # double-buffered; host holds the second version
    schedule_notes = "1F1B, 2 weight versions"

    def steps(self, n_stages: int, n_mbs: int) -> list[Step]:
        """A global order consistent with every stage's local 1F1B order
        and with cross-stage data deps (fwd: stage-major per mb; bwd:
        reverse): walk the per-stage orders, releasing a step once its
        dependency is already placed."""
        per_stage = [one_f_one_b_order(n_stages, s, n_mbs)
                     for s in range(n_stages)]
        cursor = [0] * n_stages
        placed: set[Step] = set()
        order: list[Step] = []
        total = sum(len(steps) for steps in per_stage)
        while len(order) < total:
            progressed = False
            for s in range(n_stages):
                while cursor[s] < len(per_stage[s]):
                    letter, i = per_stage[s][cursor[s]]
                    peer = s - 1 if letter == "F" else s + 1
                    if 0 <= peer < n_stages and (letter, peer, i) not in placed:
                        break
                    placed.add((letter, s, i))
                    order.append((letter, s, i))
                    cursor[s] += 1
                    progressed = True
            if not progressed:
                raise RuntimeError("1F1B schedule deadlocked (bug)")
        return order
