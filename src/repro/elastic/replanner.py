"""Online re-planning: re-run the Harmony scheduler on the survivors.

PR 2's recovery patches device bindings (1:1 rebind onto an idle spare),
which works precisely because the schedule itself never changes.  When a
device is *gone* and no spare exists, patching cannot help: a plan for N
GPUs fundamentally does not fit N-1 (DAPPLE's observation -- pipeline
plans must be re-derived, not patched, when the device set changes).  The
:class:`ElasticReplanner` therefore re-invokes the full Harmony scheduler
-- configuration search plus packing -- on a *reduced* server spec with
only the surviving GPU count, gates the result through the static
analyzer in strict mode (a re-plan executed under fire gets no less
scrutiny than an offline plan), and relabels the logical device bindings
``0..k-1`` onto the actual surviving physical GPU ids.

A DP plan whose minibatch no longer divides the survivor count falls
back to PP on the same survivors -- Harmony's wrap-around pipeline works
for any device count >= 1 -- and the fallback is reported as a mode
switch so the metrics show the run changed shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.common.errors import SchedulingError
from repro.core.types import TaskGraph
from repro.elastic.rebind import relabel_graph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.harmony import Harmony, HarmonyPlan


@dataclass
class ElasticPlan:
    """A verified re-plan bound to the surviving physical devices."""

    #: the scheduler's plan on the reduced (logical-device) server spec
    plan: "HarmonyPlan"
    #: logical device d executes on physical GPU ``survivors[d]``
    survivors: tuple[int, ...]
    #: the executable graph, relabeled onto physical device ids
    graph: TaskGraph
    #: execution mode of the re-plan ("dp" or "pp")
    mode: str
    #: True when the re-plan had to change mode (e.g. DP -> PP fallback)
    mode_switched: bool

    def describe(self) -> str:
        switch = " (mode switch)" if self.mode_switched else ""
        gpus = ",".join(str(d) for d in self.survivors)
        return (
            f"elastic re-plan: {self.mode}{switch} on "
            f"{len(self.survivors)} survivor(s) [gpu {gpus}]"
        )


class ElasticReplanner:
    """Re-plan a Harmony job on a surviving device subset, verified.

    Holds the :class:`~repro.core.harmony.Harmony` driver so re-plans
    reuse its memoized decomposition and profiles (the model did not
    change -- only the machine shrank) and its plan-per-survivor-count
    memo, which keeps repeated escalations cheap.
    """

    def __init__(self, harmony: "Harmony"):
        self.harmony = harmony

    def replan(self, survivors: Sequence[int]) -> ElasticPlan:
        """Produce a verified plan for the given surviving physical GPUs.

        Raises :class:`SchedulingError` when no survivors remain,
        :class:`~repro.common.errors.InfeasibleConfigError` when the
        model cannot fit the reduced machine under any packing, and
        :class:`~repro.common.errors.ScheduleAnalysisError` if the
        re-planned graph fails strict verification on the reduced spec.
        """
        ordered = tuple(sorted(set(survivors)))
        if not ordered:
            raise SchedulingError(
                "elastic re-plan impossible: no surviving devices"
            )
        n_full = self.harmony.server.n_gpus
        for device in ordered:
            if not 0 <= device < n_full:
                raise SchedulingError(
                    f"survivor gpu{device} outside device range [0, {n_full})"
                )
        plan = self.harmony.plan_for_server(len(ordered))
        # Strict verification against the *reduced* server spec.
        plan.analyze().raise_if_errors()
        mapping = {logical: physical for logical, physical in enumerate(ordered)}
        graph = relabel_graph(plan.graph, mapping, n_devices=n_full)
        return ElasticPlan(
            plan=plan,
            survivors=ordered,
            graph=graph,
            mode=plan.options.mode,
            mode_switched=plan.options.mode != self.harmony.options.mode,
        )
