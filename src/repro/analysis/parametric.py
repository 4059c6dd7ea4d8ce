"""Memory-capacity certification: peak memory as a function of N.

Peak residency is bounded by a symbolic *affine form* in the per-group
microbatch count N, and each certificate either holds for every N >= 1
or names the smallest violating N -- the planner's whole parameter
family is certified at once.  The point check of the plan as built is
the certificate at N = 1.

Derivation (all integer arithmetic; these paths are deliberately free of
float accumulation and the project linter enforces that):

- **per GPU**: the Executor grants at most ``fetch_slots`` concurrent
  task windows per device (two with prefetch double-buffering, one
  without) and holds each task's planned ``resident_bytes`` from slot
  grant to completion, so the peak is bounded by the largest sum over
  any ``fetch_slots`` consecutive tasks in device order -- independent
  of event timing.  A task's residency splits into an N-independent part
  (weights, one in-flight microbatch's activations) and the
  group-boundary tensors it holds for neighbouring groups -- exactly the
  bytes its ``LOCAL`` in-moves declare, which grow linearly with the
  group's microbatch count.  With ``resident(t, N) = max(0,
  resident_bytes - local_in) + local_in * N``, the device bound is the
  max over every window of the window's affine sum ``fixed_w + slope_w
  * N``;
- **host**: pinned state splits into model state (N-independent) and
  input staging buffers (linear in N, when the caller supplies the
  split via ``host_input_bytes``); every live checkpoint stash also
  scales with N.  ``peak(N) = (state - input) + (input + stash) * N``
  (the bound that stops ZeRO-Infinity at 40B parameters in the paper's
  Figure 15).

Each scope yields one :class:`CapacityCertificate` for its *binding*
window -- the one violated at the smallest N, ties broken by the highest
``peak(1)`` and then by the first window.  The ``capacity`` pass reads
them and reports at most one finding per scope:

- ``capacity/gpu`` / ``capacity/host`` (error) when ``peak(1)`` exceeds
  the capacity -- the plan as built overflows;
- otherwise ``capacity/gpu-ceiling`` / ``capacity/host-ceiling`` (info)
  for a finite ceiling N* > 1: the plan as built is safe, but scaling
  the microbatch group past N* - 1 overflows.

The pass needs a server spec; the host bound additionally needs the
caller to say how much host state the run pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.analysis.context import AnalysisContext
from repro.analysis.diagnostics import Diagnostic, Severity, task_ref
from repro.analysis.passes import AnalysisPass, register
from repro.core.types import Channel, Task, TaskGraph

_INF = None  # "no violating N" sentinel, for readability


@dataclass(frozen=True)
class CapacityCertificate:
    """An affine bound ``peak(N) = fixed + slope * N`` against a budget."""

    scope: str              # "gpu<d>" or "host"
    fixed_bytes: int        # N-independent component
    slope_bytes: int        # growth per unit of N
    capacity_bytes: int     # the hardware budget the bound is held to
    detail: str = ""        # what the binding window / split is

    def peak(self, n: int) -> int:
        """The certified peak-residency bound at microbatch count n."""
        return self.fixed_bytes + self.slope_bytes * n

    def smallest_violating_n(self) -> Optional[int]:
        """Least N >= 1 with ``peak(N) > capacity``; None if safe for all."""
        return _smallest_violating_n(self.fixed_bytes, self.slope_bytes,
                                     self.capacity_bytes)

    @property
    def safe_for_all(self) -> bool:
        return self.smallest_violating_n() is None

    def describe(self) -> str:
        bound = (f"{self.scope}: peak(N) <= {self.fixed_bytes} + "
                 f"{self.slope_bytes}*N bytes vs capacity "
                 f"{self.capacity_bytes}")
        n = self.smallest_violating_n()
        verdict = ("safe for all N >= 1" if n is None
                   else f"violates at N = {n}")
        return f"{bound} -- {verdict}"


def _smallest_violating_n(fixed: int, slope: int,
                          capacity: int) -> Optional[int]:
    """Least N >= 1 with ``fixed + slope * N > capacity``, else None."""
    if fixed + slope > capacity:
        return 1
    if slope <= 0:
        return _INF
    return (capacity - fixed) // slope + 1


def _local_in_bytes(task: Task) -> int:
    return sum(
        m.nbytes for m in task.ins
        if m.channel is Channel.LOCAL and m.nbytes > 0
    )


def _window_names(tasks: list[Task]) -> str:
    return ", ".join(
        f"{task_ref(t.tid)} ({t.label or t.kind.value})" for t in tasks
    )


def _window_sums(tasks: list[Task], window: int) -> list[tuple[int, int]]:
    """Each window's affine sum ``(fixed_w, slope_w)``: the ``window``
    tasks from each position of one GPU's issue order (shorter at the
    tail)."""
    slopes = [0 if t.on_cpu else _local_in_bytes(t) for t in tasks]
    fixeds = [
        0 if t.on_cpu else max(0, t.resident_bytes - slopes[i])
        for i, t in enumerate(tasks)
    ]
    return [(sum(fixeds[i:i + window]), sum(slopes[i:i + window]))
            for i in range(len(tasks))]


def gpu_peaks(graph: TaskGraph, prefetch: bool) -> list[int]:
    """Each GPU's as-built peak bound ``max_w(fixed_w + slope_w)``.

    The ``capacity`` pass reports ``capacity/gpu`` for a GPU at capacity
    ``c`` iff its peak exceeds ``c``: a window over ``c`` at N = 1 is
    violated at the smallest N there is, so the binding window is one of
    them.  The binding certificate's own ``peak(1)`` is no substitute --
    it is the peak of the *earliest-violated* window, which need not be
    the highest.
    """
    ctx = AnalysisContext(graph, prefetch=prefetch)
    return [
        max((fixed + slope
             for fixed, slope in _window_sums(tasks, ctx.fetch_slots)),
            default=0)
        for tasks in ctx.device_order()
    ]


def _device_certificate(
    device: int, tasks: list[Task], window: int, capacity: int
) -> tuple[CapacityCertificate, list[Task]]:
    """The binding (smallest violating N) window bound for one GPU, and
    that window's tasks.  Window sums are integers; only the binding
    window becomes a certificate."""
    if not tasks:
        return CapacityCertificate(
            scope=f"gpu{device}", fixed_bytes=0, slope_bytes=0,
            capacity_bytes=capacity, detail="no tasks bound to this GPU",
        ), []
    sums = _window_sums(tasks, window)

    def key(i: int) -> tuple[int, int]:
        # Violated earliest, then highest as-built peak; min() keeps
        # the first of equal windows.
        fixed, slope = sums[i]
        n = _smallest_violating_n(fixed, slope, capacity)
        return (n if n is not None else 1 << 62, -(fixed + slope))

    at = min(range(len(sums)), key=key)
    fixed, slope = sums[at]
    chosen = tasks[at:at + window]
    return CapacityCertificate(
        scope=f"gpu{device}", fixed_bytes=fixed, slope_bytes=slope,
        capacity_bytes=capacity, detail=f"window {_window_names(chosen)}",
    ), chosen


def _bounds(
    ctx: AnalysisContext,
) -> list[tuple[CapacityCertificate, list[Task]]]:
    """Every scope's certificate with its binding window's tasks (none
    for the host)."""
    bounds = [
        _device_certificate(
            device, tasks, ctx.fetch_slots, ctx.device_capacity(device)
        )
        for device, tasks in enumerate(ctx.device_order())
    ]
    if ctx.host_state_bytes is not None:
        assert ctx.server is not None, "capacity certificates need a server"
        stash = ctx.graph.checkpoint_stash_bytes()
        state = ctx.host_state_bytes
        input_bytes = min(ctx.host_input_bytes or 0, state)
        bounds.append((CapacityCertificate(
            scope="host",
            fixed_bytes=state - input_bytes,
            slope_bytes=input_bytes + stash,
            capacity_bytes=ctx.server.host.memory_bytes,
            detail=f"pinned state {state} bytes (input staging "
                   f"{input_bytes}) + checkpoint stash {stash} bytes",
        ), []))
    return bounds


def capacity_certificates(ctx: AnalysisContext) -> list[CapacityCertificate]:
    """Every scope's binding affine capacity bound (requires a server).

    One certificate per GPU, plus a host certificate when the caller
    supplied ``host_state_bytes`` (host fit for massive models is
    otherwise out of scope).  Built once per context.
    """
    assert ctx.server is not None, "capacity certificates need a server"
    return [cert for cert, _window in ctx.memo(_bounds)]


@register
class CapacityPass(AnalysisPass):
    """The plan as built (N = 1) must fit; a finite ceiling is advice."""

    name = "capacity"
    rules = (
        "capacity/gpu",
        "capacity/gpu-ceiling",
        "capacity/host",
        "capacity/host-ceiling",
    )

    def skip_reason(self, ctx: AnalysisContext) -> Optional[str]:
        if ctx.server is None:
            return "no server spec"
        return None

    def run(self, ctx: AnalysisContext) -> Iterator[Diagnostic]:
        for cert, window in ctx.memo(_bounds):
            n = cert.smallest_violating_n()
            peak, capacity = cert.peak(1), cert.capacity_bytes
            if n is None:
                continue  # safe for all N >= 1: nothing to flag
            if n > 1:
                host = cert.scope == "host"
                yield Diagnostic(
                    f"capacity/{'host' if host else 'gpu'}-ceiling",
                    Severity.INFO,
                    f"{cert.describe()}; safe as built, ceiling at "
                    f"N = {n - 1} ({cert.detail})",
                    device=None if host else int(cert.scope[3:]),
                )
            elif cert.scope != "host":
                device = window[0].device
                yield Diagnostic(
                    "capacity/gpu", Severity.ERROR,
                    f"gpu{device} peak resident bound {peak} bytes "
                    f"exceeds capacity {capacity} bytes "
                    f"(worst window: {_window_names(window)})",
                    task=window[0].tid, device=device,
                    hint="repack with a smaller capacity fraction or a "
                         "smaller microbatch",
                )
            else:
                state = ctx.host_state_bytes or 0
                yield Diagnostic(
                    "capacity/host", Severity.ERROR,
                    f"host working set {peak / 2**30:.1f} GiB (state "
                    f"{state / 2**30:.1f} GiB + stash "
                    f"{(peak - state) / 2**30:.1f} GiB) exceeds CPU memory "
                    f"{capacity / 2**30:.1f} GiB",
                    hint="reduce the checkpoint stash (more recompute) "
                         "or the minibatch",
                )
