"""Diagnostic vocabulary of the static schedule analyzer.

Every pass reports findings as :class:`Diagnostic` values -- a stable rule
id (``pass-name/rule-name``), a severity, a human message, and the task /
device / move the finding is anchored to.  The runtime and the analyzer
share one naming scheme for schedule entities (:func:`task_ref`,
:func:`stream_ref`), so a diagnostic printed before execution and a
:class:`~repro.common.errors.SimulationError` raised during execution
point at the same identifiers.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

from repro.common.errors import ScheduleAnalysisError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.parametric import CapacityCertificate


def task_ref(tid: int) -> str:
    """Canonical name of a task, shared with runtime error messages."""
    return f"t{tid}"


def stream_ref(device: int, stream: str) -> str:
    """Canonical name of a per-GPU stream, shared with the runtime."""
    return f"gpu{device}.{stream}"


class Severity(enum.IntEnum):
    """How bad a finding is.

    ``ERROR`` means the schedule is unsafe to execute (it can deadlock,
    read unproduced data, or exceed a hard capacity); ``WARNING`` marks a
    suspicious construction that still executes; ``INFO`` is advisory.
    """

    INFO = 0
    WARNING = 1
    ERROR = 2


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one analysis pass."""

    rule: str                       # "pass/rule", stable across releases
    severity: Severity
    message: str
    task: Optional[int] = None      # offending task tid
    device: Optional[int] = None    # owning GPU
    move: Optional[str] = None      # offending move label
    hint: Optional[str] = None      # how to fix it

    @property
    def location(self) -> str:
        parts = []
        if self.task is not None:
            parts.append(task_ref(self.task))
        if self.device is not None:
            parts.append(f"gpu{self.device}")
        if self.move:
            parts.append(f"move {self.move!r}")
        return "/".join(parts) if parts else "<graph>"

    def describe(self) -> str:
        text = (
            f"{self.severity.name.lower():<7} {self.rule:<28} "
            f"{self.location}: {self.message}"
        )
        if self.hint:
            text += f"\n        hint: {self.hint}"
        return text


@dataclass(frozen=True)
class Waiver:
    """An acknowledged, justified exception to one rule.

    Unlike blanket suppression, a waived finding still *surfaces* in the
    report -- demoted to INFO under ``waiver/<rule>`` with the
    justification attached -- and a waiver that matches nothing is itself
    an error (``waiver/unused``), so stale waivers die with the finding
    they excused.
    """

    rule: str               # the rule id being waived, e.g. "capacity/gpu"
    justification: str      # why the finding is acceptable here

    def rewrite(self, diagnostic: Diagnostic) -> Diagnostic:
        """The INFO-severity surfaced form of a waived diagnostic."""
        return Diagnostic(
            rule=f"waiver/{self.rule.replace('/', '.')}",
            severity=Severity.INFO,
            message=f"waived: {diagnostic.message}",
            task=diagnostic.task,
            device=diagnostic.device,
            move=diagnostic.move,
            hint=f"justification: {self.justification}",
        )


@dataclass
class PassResult:
    """Outcome of running (or skipping) one pass."""

    name: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    skipped: Optional[str] = None   # reason the pass could not run
    suppressed: int = 0             # diagnostics dropped by rule suppression

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    def summary(self) -> str:
        if self.skipped:
            status = f"skipped ({self.skipped})"
        elif not self.diagnostics:
            status = "ok"
        else:
            bits = []
            if self.errors:
                bits.append(f"{len(self.errors)} error(s)")
            if self.warnings:
                bits.append(f"{len(self.warnings)} warning(s)")
            if not bits:
                bits.append(f"{len(self.diagnostics)} note(s)")
            status = ", ".join(bits)
        if self.suppressed:
            status += f" [{self.suppressed} suppressed]"
        return f"{self.name:<10} {status}"


@dataclass
class AnalysisReport:
    """Everything the analyzer found, grouped per pass."""

    graph_mode: str
    n_tasks: int
    results: list[PassResult] = field(default_factory=list)
    # Every scope's capacity certificate, as the capacity pass computed
    # them; empty when it did not run.
    certificates: list["CapacityCertificate"] = field(default_factory=list)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    @property
    def diagnostics(self) -> list[Diagnostic]:
        return [d for result in self.results for d in result.diagnostics]

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostics were reported."""
        return not self.errors

    def by_rule(self, rule: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule]

    def has(self, rule: str) -> bool:
        return bool(self.by_rule(rule))

    def describe(self) -> str:
        lines = [
            f"analysis of {self.graph_mode!r} schedule "
            f"({self.n_tasks} tasks):"
        ]
        lines += [f"  {result.summary()}" for result in self.results]
        for diagnostic in self.diagnostics:
            lines.append("  " + diagnostic.describe())
        verdict = (
            "schedule is safe" if self.ok
            else f"schedule REJECTED ({len(self.errors)} error(s))"
        )
        ran = [r for r in self.results if not r.skipped]
        lines.append(
            f"{len(ran)} pass(es), {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s) -- {verdict}"
        )
        return "\n".join(lines)

    def snapshot(self) -> dict:
        """The per-pass outcomes, diagnostics, certificates and verdict
        as plain JSON values (``repro check --json``)."""
        return {
            "passes": [
                {
                    "name": result.name,
                    "skipped": result.skipped,
                    "suppressed": result.suppressed,
                    "diagnostics": len(result.diagnostics),
                }
                for result in self.results
            ],
            "diagnostics": [
                asdict(d) | {"severity": d.severity.name.lower()}
                for d in self.diagnostics
            ],
            "certificates": [
                asdict(cert) | {
                    "smallest_violating_n": cert.smallest_violating_n(),
                    "safe_for_all": cert.safe_for_all,
                }
                for cert in self.certificates
            ],
            "ok": self.ok,
        }

    def raise_if_errors(self) -> None:
        if self.ok:
            return
        shown = self.errors[:8]
        detail = "; ".join(
            f"{d.rule} @ {d.location}: {d.message}" for d in shown
        )
        more = len(self.errors) - len(shown)
        if more > 0:
            detail += f" (+{more} more)"
        raise ScheduleAnalysisError(
            f"static analysis rejected the {self.graph_mode!r} schedule: "
            f"{detail}"
        )
