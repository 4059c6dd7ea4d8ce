"""Figure 11: comparison with ZeRO-Infinity on GPT2 (1.5B), 4 GPUs.

ZeRO-Infinity shares Harmony's microbatch sizes per the paper's
methodology (its packs are its own weight-sized chunks); the throughput
gap is then attributable to its per-microbatch re-fetch of sharded state
(no input-batch grouping), visible as an order-of-magnitude higher swap
load.
"""

from __future__ import annotations

from repro.experiments.common import GIB, Row, render, run_scheme

MODEL = "gpt2"
BATCHES = (16, 32, 64)
SCHEMES = ("zero-infinity", "harmony-dp", "harmony-pp")


def run(fast: bool = False) -> list[Row]:
    batches = BATCHES[-1:] if fast else BATCHES
    rows: list[Row] = []
    for minibatch in batches:
        for scheme in SCHEMES:
            metrics = run_scheme(scheme, MODEL, minibatch)
            rows.append({
                "scheme": scheme,
                "minibatch": minibatch,
                "throughput(samples/s)": metrics.throughput,
                "iteration(s)": metrics.iteration_time,
                "global_swap(GiB)": metrics.global_swap_bytes / GIB,
                "max_gpu_swap(GiB)": max(g.swap_bytes for g in metrics.gpus) / GIB,
            })
    return rows


def summary(rows: list[Row]) -> Row:
    by = {(r["scheme"], r["minibatch"]): r for r in rows}
    batch = max(r["minibatch"] for r in rows)
    zero = by[("zero-infinity", batch)]
    return {
        "minibatch": batch,
        "dp_speedup_vs_zero": zero["iteration(s)"]
        / by[("harmony-dp", batch)]["iteration(s)"],
        "pp_speedup_vs_zero": zero["iteration(s)"]
        / by[("harmony-pp", batch)]["iteration(s)"],
        "swap_ratio_zero_vs_pp": zero["global_swap(GiB)"]
        / by[("harmony-pp", batch)]["global_swap(GiB)"],
    }


def main() -> None:
    rows = run()
    print(render(rows))
    print(render([summary(rows)]))


if __name__ == "__main__":
    main()
