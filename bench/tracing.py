"""Per-layer spans for the traced benchmark run, recorded from outside.

A traced run (``--trace 1``) wraps the public entry points of each layer
listed in ``TARGETS`` while the timed passes run.  Every wrapped call
becomes a span (layer name, start, end, parent span, op id) and adds to
its layer's call count and self time -- the span's duration minus the
part its child spans cover.  Functions are patched where their callers
look them up (``balanced_time_packing`` in ``repro.core.search``,
``transfer`` in ``repro.runtime.executor``), and generator functions are
timed per resumption, so a simulated transfer's Python work lands in
``sim.links`` while the engine's own loop stays in ``sim.engine``.

Wrappers pass return values and exceptions through unchanged and leave
the program's virtual time alone, so a traced run's facts equal an
untraced run's.  Spans are kept in memory, up to ``MAX_SPANS``, and
written once at exit as Chrome trace JSON; the per-layer totals count
every span, kept or not.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import weakref
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

MAX_SPANS = 100_000


class SpanRecorder:
    """Nested spans with per-layer call counts and self time."""

    def __init__(self, max_spans: int = MAX_SPANS,
                 clock: Callable[[], float] = perf_counter):
        self.clock = clock
        self.max_spans = max_spans
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        #: wall time covered by top-level layer spans inside ops
        self.covered = 0.0
        #: layer-specific tallies filled by the target hooks
        self.counts: dict[str, float] = defaultdict(float)
        self.models: set[str] = set()
        self.waits: list[float] = []
        self.steps: "weakref.WeakKeyDictionary[Any, int]" = \
            weakref.WeakKeyDictionary()
        #: (name, start, end, parent index, op id); None while open
        self.spans: list[Optional[tuple]] = []
        self.dropped = 0
        #: the op being timed (-1 between ops: nothing is recorded)
        self.op = -1
        self._op_span = -1
        self._stack: list[list] = []

    def _reserve(self) -> int:
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return -1
        self.spans.append(None)
        return len(self.spans) - 1

    @contextmanager
    def in_op(self, op: int, label: str) -> Iterator[None]:
        """Attribute the spans opened inside the block to op ``op``."""
        index = self._reserve()
        self.op, self._op_span = op, index
        start = self.clock()
        try:
            yield
        finally:
            if index >= 0:
                self.spans[index] = (label, start, self.clock(), -1, op)
            self.op, self._op_span = -1, -1

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0, self._reserve()])

    def exit(self) -> None:
        name, start, child, index = self._stack.pop()
        end = self.clock()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_index = parent[3]
        else:
            self.covered += duration
            parent_index = self._op_span
        if index >= 0:
            self.spans[index] = (name, start, end, parent_index, self.op)

    def chrome_trace(self) -> dict:
        """The kept spans as Chrome trace-event JSON (microseconds)."""
        kept = [(i, s) for i, s in enumerate(self.spans) if s is not None]
        origin = min((s[1] for _, s in kept), default=0.0)
        events = [
            {
                "name": name, "cat": "layer" if name in LAYERS else "op",
                "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": i, "parent": parent, "op": op},
            }
            for i, (name, start, end, parent, op) in kept
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"dropped_spans": self.dropped}}


Hook = Callable[[SpanRecorder, tuple, dict, Any], None]


def wrap_function(rec: SpanRecorder, fn: Callable, layer: str,
                  hook: Optional[Hook] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if rec.op < 0:
            return fn(*args, **kwargs)
        rec.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit()
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result

    return wrapper


def wrap_generator(rec: SpanRecorder, fn: Callable, layer: str,
                   hook: Optional[Hook] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        gen = fn(*args, **kwargs)
        if rec.op < 0:
            return gen
        if hook is not None:
            hook(rec, args, kwargs, None)
        return _timed_resumptions(rec, layer, gen)

    return wrapper


def _timed_resumptions(rec: SpanRecorder, layer: str, gen: Any) -> Any:
    """Delegate to ``gen`` like ``yield from``, one span per resumption."""
    value, error = None, None
    while True:
        rec.enter(layer)
        try:
            item = gen.send(value) if error is None else gen.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            rec.exit()
        try:
            value, error = (yield item), None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # forwarded into gen on resumption
            value, error = None, exc


# -- hooks: layer tallies taken from arguments and return values -------------


def _profiled(rec: SpanRecorder, args: tuple, kwargs: dict, profiles: Any) -> None:
    decomposed = args[1] if len(args) > 1 else kwargs["decomposed"]
    rec.models.add(decomposed.model.name)


def _searched(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.counts["search.candidates"] += result.n_feasible + result.n_infeasible
    rec.counts["search.feasible"] += result.n_feasible


def _executed(rec: SpanRecorder, args: tuple, kwargs: dict, metrics: Any) -> None:
    counts = rec.counts
    counts["runs"] += 1
    counts["run.swap_bytes"] += metrics.global_swap_bytes
    counts["run.p2p_bytes"] += metrics.global_p2p_bytes
    n = len(metrics.gpus)
    counts["run.idle"] += sum(metrics.idle_fraction(g) for g in range(n)) / n
    counts["run.peak_bytes"] = max(
        counts["run.peak_bytes"],
        max(g.peak_resident_bytes for g in metrics.gpus),
    )


def _engine_ran(rec: SpanRecorder, args: tuple, kwargs: dict, now: Any) -> None:
    sim = args[0]
    rec.counts["engine.events"] += sim.steps - rec.steps.get(sim, 0)
    rec.steps[sim] = sim.steps


def _transferring(rec: SpanRecorder, args: tuple, kwargs: dict, _: Any) -> None:
    rec.counts["links.bytes"] += args[2] if len(args) > 2 else kwargs["nbytes"]


def _cache_looked_up(rec: SpanRecorder, args: tuple, kwargs: dict, plan: Any) -> None:
    rec.counts["cache.lookups"] += 1
    rec.counts["cache.hits"] += plan is not None


def _served(rec: SpanRecorder, args: tuple, kwargs: dict, results: Any) -> None:
    metrics = args[0].metrics
    counts = rec.counts
    counts["service.runs"] += 1
    for name in ("retries", "breaker_trips", "stale_rebinds", "baseline_plans"):
        counts[f"service.{name}"] += getattr(metrics, name)
    counts["fleet.utilization"] += metrics.fleet_utilization
    rec.waits.extend(r.wait for r in results if r.outcome.carries_plan)


def _reserved(rec: SpanRecorder, args: tuple, kwargs: dict, reservation: Any) -> None:
    rec.counts["fleet.reserves"] += 1
    rec.counts["fleet.misses"] += reservation is None


#: (module, class or None for a module attribute, attribute, layer, hook)
TARGETS: tuple[tuple[str, Optional[str], str, str, Optional[Hook]], ...] = (
    ("repro.core.decomposer", "Decomposer", "decompose", "core.decomposer", None),
    ("repro.core.profiler", "Profiler", "profile", "core.profiler", _profiled),
    ("repro.core.search", "ConfigurationSearch", "search", "core.search", _searched),
    ("repro.core.search", None, "balanced_time_packing", "core.packing", None),
    ("repro.core.taskgraph", "HarmonyGraphBuilder", "build", "core.taskgraph", None),
    ("repro.core.types", "TaskGraph", "validate", "core.types.validate", None),
    ("repro.core.estimator", "RuntimeEstimator", "estimate", "core.estimator", None),
    ("repro.runtime.executor", "Executor", "run", "runtime.executor", _executed),
    ("repro.runtime.timemodel", "TrueTimeModel", "microbatch_time", "runtime.timemodel", None),
    ("repro.runtime.timemodel", "TrueTimeModel", "update_time", "runtime.timemodel", None),
    ("repro.runtime.timemodel", "TrueTimeModel", "task_compute_time", "runtime.timemodel", None),
    ("repro.sim.engine", "Simulator", "run", "sim.engine", _engine_ran),
    ("repro.runtime.executor", None, "transfer", "sim.links", _transferring),
    ("repro.trace.recorder", "TraceRecorder", "span", "trace.recorder", None),
    ("repro.trace.recorder", "TraceRecorder", "instant", "trace.recorder", None),
    ("repro.trace", None, "analyze_trace", "trace.analytics", None),
    ("repro.service.daemon", "PlannerService", "run", "service.daemon", _served),
    ("repro.service.cache", "PlanCache", "get", "service.cache", _cache_looked_up),
    ("repro.service.cache", "PlanCache", "put", "service.cache", None),
    ("repro.service.cache", "PlanCache", "near", "service.cache", None),
    ("repro.fleet.placer", "FleetPlacer", "reserve", "fleet.placer", _reserved),
    ("repro.fleet.placer", "FleetPlacer", "bind", "fleet.placer", None),
    ("repro.virt.bind", None, "bind", "virt.bind", None),
    # The package attributes only: TaskGraph.validate reaches the analyzer
    # through its module globals and stays in core.types.validate.
    ("repro.analysis", None, "analyze", "analysis", None),
    ("repro.analysis", None, "check", "analysis", None),
    ("repro.baselines.gpipe_swap", "GpipeSwapPlanner", "plan", "baselines", None),
)

LAYERS = tuple(dict.fromkeys(target[3] for target in TARGETS))

_ABSENT = object()


@contextmanager
def installed(rec: SpanRecorder) -> Iterator[SpanRecorder]:
    """Patch every target for the duration of the block, then restore."""
    undo = []
    try:
        for module_name, owner_name, attr, layer, hook in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            wrap = (wrap_generator if inspect.isgeneratorfunction(original)
                    else wrap_function)
            undo.append((owner, attr, vars(owner).get(attr, _ABSENT)))
            setattr(owner, attr, wrap(rec, original, layer, hook))
        yield rec
    finally:
        for owner, attr, saved in reversed(undo):
            if saved is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
