"""Shared helpers for the experiment modules."""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Optional, Sequence

from repro.core.harmony import Harmony, HarmonyOptions
from repro.baselines import (
    DpSwapPlanner,
    GpipeSwapPlanner,
    PipeDream2BWPlanner,
    ZeroInfinityPlanner,
)
from repro.hardware.server import (
    ServerSpec,
    eight_gpu_commodity_server,
    four_gpu_commodity_server,
)
from repro.runtime.metrics import RunMetrics

Row = dict[str, Any]

GIB = 2**30

#: Display order of the per-GPU-swap comparison (Figure 9).
SCHEMES = (
    "dp-swap",
    "gp-swap",
    "gp-swap-r",
    "2bw-swap",
    "2bw-swap-r",
    "harmony-dp",
    "harmony-pp",
)


def render(rows: Sequence[Row], columns: Optional[Sequence[str]] = None) -> str:
    """Fixed-width text table of experiment rows."""
    if not rows:
        return "(no rows)"
    columns = list(columns or rows[0].keys())
    cells = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in cells))
        for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    sep = "  ".join("-" * w for w in widths)
    body = "\n".join(
        "  ".join(line[i].ljust(widths[i]) for i in range(len(columns)))
        for line in cells
    )
    return f"{header}\n{sep}\n{body}"


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3g}"
    return str(value)


#: The per-GPU-swap baselines: scheme name -> (planner class, kwargs).
LMS_SCHEMES: dict[str, tuple[type, dict[str, Any]]] = {
    "dp-swap": (DpSwapPlanner, {}),
    "gp-swap": (GpipeSwapPlanner, {}),
    "gp-swap-r": (GpipeSwapPlanner, {"recompute": True}),
    "2bw-swap": (PipeDream2BWPlanner, {}),
    "2bw-swap-r": (PipeDream2BWPlanner, {"recompute": True}),
}


@lru_cache(maxsize=None)
def run_scheme(
    scheme: str,
    model: str,
    minibatch: int,
    n_gpus: int = 4,
) -> RunMetrics:
    """Execute one (scheme, model, minibatch) cell; memoized per process.

    ``zero-infinity`` adopts the microbatch sizes (``u_f``/``u_b``) of
    Harmony DP's searched configuration, per the paper's fair-comparison
    methodology; its packs stay its own weight-sized layer chunks.
    """
    server = server_for(n_gpus)
    if scheme == "harmony-dp":
        return Harmony(model, server, minibatch,
                       options=HarmonyOptions(mode="dp")).run().metrics
    if scheme == "harmony-pp":
        return Harmony(model, server, minibatch,
                       options=HarmonyOptions(mode="pp")).run().metrics
    if scheme in LMS_SCHEMES:
        planner_cls, kwargs = LMS_SCHEMES[scheme]
        return planner_cls(model, server, minibatch, **kwargs).run()
    if scheme == "zero-infinity":
        config = Harmony(model, server, minibatch,
                         options=HarmonyOptions(mode="dp")).plan().config
        return ZeroInfinityPlanner(
            model, server, minibatch, u_f=config.u_f, u_b=config.u_b
        ).run()
    raise ValueError(f"unknown scheme {scheme!r}")


@lru_cache(maxsize=None)
def server_for(n_gpus: int) -> ServerSpec:
    """The paper's testbeds: the 4-GPU main testbed at 4 GPUs, the
    scaling testbed at every other count."""
    if n_gpus == 4:
        return four_gpu_commodity_server()
    return scaling_server(n_gpus)


@lru_cache(maxsize=None)
def scaling_server(n_gpus: int) -> ServerSpec:
    """Section 5.7's scaling testbed at any GPU count: same dual-socket
    750 GB host, 1..8 GPUs populated."""
    return eight_gpu_commodity_server().with_gpus(n_gpus)
