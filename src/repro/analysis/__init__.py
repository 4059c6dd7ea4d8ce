"""Static analysis of task-graph schedules.

A pass-based verifier that proves a :class:`~repro.core.types.TaskGraph`
safe *before* the Runtime executes it: no deadlocks across the per-GPU
streams, no tensor consumed before it exists, peak residency certified
against the hardware, every move on a transport the PCIe tree actually
wires, and ablated graphs free of the constructs their switches disable.

Typical use::

    from repro.analysis import analyze

    report = analyze(graph, server=server, options=options)
    print(report.describe())
    report.raise_if_errors()

or, from a shell::

    python -m repro.cli check gpt2 --minibatch 64 --mode pp
"""

from repro.analysis.analyzer import (
    STRUCTURAL_PASSES,
    analyze,
    check,
    verify_graph,
)
from repro.analysis.context import AnalysisContext
from repro.analysis.diagnostics import (
    AnalysisReport,
    Diagnostic,
    PassResult,
    Severity,
    Waiver,
    stream_ref,
    task_ref,
)
from repro.analysis.deadlock import HappensBefore, build_happens_before
from repro.analysis.inject import INJECTIONS, inject
from repro.analysis.parametric import (
    CapacityCertificate,
    capacity_certificates,
)
from repro.analysis.passes import AnalysisPass, register, registered_passes
from repro.common.errors import ScheduleAnalysisError

__all__ = [
    "AnalysisContext",
    "AnalysisPass",
    "AnalysisReport",
    "CapacityCertificate",
    "Diagnostic",
    "HappensBefore",
    "INJECTIONS",
    "PassResult",
    "STRUCTURAL_PASSES",
    "ScheduleAnalysisError",
    "Severity",
    "Waiver",
    "analyze",
    "build_happens_before",
    "capacity_certificates",
    "check",
    "inject",
    "register",
    "registered_passes",
    "stream_ref",
    "task_ref",
    "verify_graph",
]
