"""Binding a Harmony plan onto physical hardware.

:func:`bind` is the late-binding step the tentpole split enables:
``Harmony.plan`` targets logical devices, and ``bind`` maps the finished
plan onto a :class:`~repro.virt.devices.VirtualTopology` -- identity,
time-sliced, or heterogeneous -- producing a :class:`BoundPlan` the
runtime can execute.  ``bind`` re-certifies the rewritten graph with the
full static analyzer against the *physical* machine: structural passes
(a time-slice bind must still be deadlock-free), plus capacity with
per-physical-device memory.

:func:`certify_relabel` gives ``bind``'s verdict for a same-count
injective binding without rewriting or re-analyzing anything: such a
bind only relabels devices, so every verdict but capacity is the
logical plan's, and capacity is one integer compare per device against
the plan's cached peaks (:attr:`HarmonyPlan.relabel_peaks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.types import TaskGraph
from repro.hardware.server import ServerSpec
from repro.virt.devices import DeviceBinding

if TYPE_CHECKING:
    from repro.analysis.diagnostics import AnalysisReport
    from repro.core.harmony import HarmonyPlan


@dataclass
class BoundPlan:
    """A logical plan mapped onto concrete hardware, analyzer-certified."""

    plan: "HarmonyPlan"
    binding: DeviceBinding
    graph: TaskGraph       # device bindings rewritten onto physical ids
    server: ServerSpec     # the physical machine (count-adjusted)
    report: Optional["AnalysisReport"] = None

    def describe(self) -> str:
        lines = [self.binding.describe()]
        if not self.binding.topology.is_uniform:
            lines.append(f"  topology: {self.binding.topology.describe()}")
        lines.append(
            f"  bound graph: {len(self.graph)} tasks on "
            f"{self.graph.n_devices} device(s)"
        )
        return "\n".join(lines)


def _check_shape(plan: "HarmonyPlan", binding: DeviceBinding) -> None:
    if binding.n_logical != plan.graph.n_devices:
        raise ValueError(
            f"binding covers {binding.n_logical} logical devices but the "
            f"plan targets {plan.graph.n_devices}"
        )


def bind(plan: "HarmonyPlan", binding: DeviceBinding) -> BoundPlan:
    """Map a logical plan onto physical hardware.

    Validates the shape (the binding must cover exactly the plan's
    logical device count), rewrites the graph, derives the physical
    server spec, and re-certifies the result through
    :meth:`HarmonyPlan.analyze` against the physical machine's
    per-device memory before handing it to the runtime, raising
    :class:`~repro.common.errors.ScheduleAnalysisError` on any error.
    One driver per physical device walks its merged task list in global
    tid order, so the wait-graph check covers a time slice's
    interleaving.
    """
    _check_shape(plan, binding)
    graph = binding.apply(plan.graph)
    # Same-count binds keep the planned spec (identity binds must be
    # spec-identical, and heterogeneity is carried by the binding).
    server = plan.server.with_gpus(binding.n_physical)
    report = plan.analyze(graph, server=server, device_memory=(
        binding.device_memory(server.gpu.memory_bytes)))
    report.raise_if_errors()
    return BoundPlan(plan=plan, binding=binding, graph=graph,
                     server=server, report=report)


def certify_relabel(plan: "HarmonyPlan", binding: DeviceBinding) -> bool:
    """Whether :func:`bind` accepts a same-count injective binding,
    decided without rewriting the graph or running an analyzer pass.

    The bound graph is the logical one with device ids permuted: no
    pass reads FLOPs scales, only the capacity pass reads per-device
    memory, and the channel pass only range-checks and compares ids.
    So the bind is accepted iff the plan's own analysis has no error
    but ``capacity/gpu`` and every logical device's as-built peak fits
    the memory of the device it lands on (DESIGN.md §15 has the
    argument, and the one rewrite beyond ids it assumes away: a P2P
    move naming its own device, which the planner never emits).  Other
    bindings raise ``ValueError``: :func:`bind` certifies them.
    """
    _check_shape(plan, binding)
    if not binding.is_permutation:
        raise ValueError(
            "certify_relabel needs a same-count injective binding; "
            "bind() certifies the others"
        )
    peaks = plan.relabel_peaks
    if peaks is None:
        return False
    memory = binding.device_memory(plan.server.gpu.memory_bytes)
    return all(peak <= memory[physical]
               for peak, physical in zip(peaks, binding.assignment))
