"""Entry points of the static schedule analyzer.

:func:`analyze` runs every registered pass (or a chosen subset) over a
:class:`~repro.core.types.TaskGraph` and returns an
:class:`~repro.analysis.diagnostics.AnalysisReport`; :func:`check` is the
raising variant used by the runtime gates.  :func:`verify_graph` is the
server-free structural subset behind ``TaskGraph.validate()``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

# Importing the pass modules registers them; this import order is the
# execution (and report) order: invariants first, then the semantic
# passes that assume them.
from repro.analysis import structure as _structure  # noqa: F401  isort:skip
from repro.analysis import deadlock as _deadlock    # noqa: F401  isort:skip
from repro.analysis import dataflow as _dataflow    # noqa: F401  isort:skip
from repro.analysis import hb as _hb                # noqa: F401  isort:skip
from repro.analysis import lifetime as _lifetime    # noqa: F401  isort:skip
from repro.analysis import parametric as _parametric  # isort:skip
from repro.analysis import channels as _channels    # noqa: F401  isort:skip
from repro.analysis import ablation as _ablation    # noqa: F401  isort:skip
from repro.analysis.context import AnalysisContext
from repro.analysis.diagnostics import (
    AnalysisReport,
    Diagnostic,
    PassResult,
    Severity,
    Waiver,
)
from repro.analysis.passes import get_pass, registered_passes
from repro.core.taskgraph import ScheduleOptions
from repro.core.types import TaskGraph
from repro.hardware.server import ServerSpec

#: Passes that need nothing beyond the graph itself; the subset
#: ``TaskGraph.validate()`` delegates to.
STRUCTURAL_PASSES: tuple[str, ...] = (
    "structure",
    "deadlock",
    "dataflow",
    "channel",
)


def analyze(
    graph: TaskGraph,
    *,
    server: Optional[ServerSpec] = None,
    options: Optional[ScheduleOptions] = None,
    host_state_bytes: Optional[int] = None,
    host_input_bytes: Optional[int] = None,
    prefetch: bool = True,
    device_memory: Optional[Sequence[int]] = None,
    passes: Optional[Sequence[str]] = None,
    suppress: Iterable[str] = (),
    waivers: Sequence[Waiver] = (),
) -> AnalysisReport:
    """Run the analyzer and return the full report (never raises).

    ``suppress`` mutes rules outright (test plumbing); ``waivers`` is
    the reviewable variant -- matched findings surface as INFO with the
    waiver's justification, and an unmatched waiver is itself an error.
    """
    ctx = AnalysisContext(
        graph,
        server=server,
        options=options,
        host_state_bytes=host_state_bytes,
        host_input_bytes=host_input_bytes,
        prefetch=prefetch,
        device_memory=list(device_memory) if device_memory is not None
        else None,
    )
    names = list(passes) if passes is not None else list(registered_passes())
    muted = frozenset(suppress)
    by_rule = {waiver.rule: waiver for waiver in waivers}
    unused = dict(by_rule)
    report = AnalysisReport(graph_mode=graph.mode, n_tasks=len(graph.tasks))
    for name in names:
        instance = get_pass(name)()
        reason = instance.skip_reason(ctx)
        if reason is not None:
            report.results.append(PassResult(name, skipped=reason))
            continue
        result = PassResult(name)
        for diagnostic in instance.run(ctx):
            if diagnostic.rule in muted:
                result.suppressed += 1
            elif diagnostic.rule in by_rule:
                unused.pop(diagnostic.rule, None)
                result.diagnostics.append(
                    by_rule[diagnostic.rule].rewrite(diagnostic)
                )
            else:
                result.diagnostics.append(diagnostic)
        report.results.append(result)
        if name == "capacity":
            report.certificates = _parametric.capacity_certificates(ctx)
    if unused:
        report.results.append(PassResult("waiver", diagnostics=[
            Diagnostic(
                "waiver/unused", Severity.ERROR,
                f"waiver for {rule!r} matched no finding "
                f"({waiver.justification}); the excused condition is "
                "gone -- delete the waiver",
                hint="a stale waiver hides future regressions of the "
                     "waived rule",
            )
            for rule, waiver in unused.items()
        ]))
    return report


def check(graph: TaskGraph, **kwargs) -> AnalysisReport:
    """Analyze and raise :class:`ScheduleAnalysisError` on any error."""
    report = analyze(graph, **kwargs)
    report.raise_if_errors()
    return report


def verify_graph(graph: TaskGraph) -> AnalysisReport:
    """Structural certification only (no machine or schedule context)."""
    return check(graph, passes=STRUCTURAL_PASSES)
