"""The public Harmony facade.

Users hand Harmony a model (by name or spec), a server, and a minibatch
size -- the illusion of a single virtual device with unbounded memory --
and Harmony decomposes, profiles, searches configurations, and executes:

    >>> from repro import Harmony, four_gpu_commodity_server
    >>> h = Harmony("gpt2", four_gpu_commodity_server(), minibatch=16)
    >>> report = h.run()  # doctest: +SKIP
    >>> report.metrics.throughput  # samples/sec  # doctest: +SKIP

``plan()`` runs the Scheduler only (Table 1 reports its timing); ``run()``
executes the planned task graph on the simulated server and returns both
the plan and the measured iteration metrics.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Union

from repro.common.fingerprint import fingerprint
from repro.common.lru import lru_get
from repro.core.config import Configuration
from repro.core.decomposer import DecomposedModel, Decomposer
from repro.core.estimator import RuntimeEstimator
from repro.core.profiler import ModelProfiles, Profiler
from repro.core.search import (
    ConfigurationSearch,
    Explored,
    SearchResult,
    SearchSettings,
)
from repro.core.taskgraph import HarmonyGraphBuilder, ScheduleOptions
from repro.core.types import TaskGraph
from repro.hardware.server import ServerSpec
from repro.models.spec import ModelSpec
from repro.models.zoo import build_model
from repro.runtime.metrics import RunMetrics
from repro.runtime.timemodel import KernelTimes, TrueTimeModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis import AnalysisReport
    from repro.faults import FaultPlan, RecoveryPolicy

#: Bound of the search store: 1.5x the 32 distinct problems one
#: ``serve-fleet`` storm pass plans.
SEARCH_STORE_SIZE = 48


@dataclass(frozen=True)
class HarmonyOptions:
    """Everything tunable about a Harmony run (defaults match the paper)."""

    mode: str = "pp"                  # "pp" (wrap-around pipeline) or "dp"
    grouping: bool = True
    jit: bool = True
    p2p: bool = True
    offload_optimizer: bool = True
    prefetch: bool = True
    u_fmax: int = 64
    u_bmax: int = 64
    capacity_fraction: float = 0.45
    exhaustive_search: bool = False
    equi_fb: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        self.search_settings()  # validates the search knobs

    def schedule_options(self) -> ScheduleOptions:
        return ScheduleOptions(
            mode=self.mode,
            grouping=self.grouping,
            jit=self.jit,
            p2p=self.p2p,
            offload_optimizer=self.offload_optimizer,
            prefetch=self.prefetch,
        )

    def search_settings(self) -> SearchSettings:
        return SearchSettings(
            u_fmax=self.u_fmax,
            u_bmax=self.u_bmax,
            capacity_fraction=self.capacity_fraction,
            exhaustive=self.exhaustive_search,
            equi_fb=self.equi_fb,
        )

    @cached_property
    def fingerprint(self) -> str:
        """Content address of everything a plan depends on in the options:
        the search settings, the schedule options and the seed.  Cached:
        the options are frozen, and a plan key is made per request."""
        return fingerprint(self.search_settings(), self.schedule_options(),
                           self.seed)

    def without(self, optimization: str) -> "HarmonyOptions":
        """Turn one optimization off (for the Figure 13 ablations)."""
        known = [f.name for f in fields(ScheduleOptions)
                 if f.type in ("bool", bool)]
        if optimization not in known:
            raise ValueError(
                f"unknown optimization {optimization!r}; "
                f"expected one of {sorted(known)}"
            )
        return replace(self, **{optimization: False})


def plan_key(model: ModelSpec, server: Optional[ServerSpec], minibatch: int,
             options: HarmonyOptions) -> str:
    """The content address of one Scheduler problem: every plan memo's key.

    A plan is a pure function of the model content, the server, the
    minibatch, the search and schedule settings, and the seed, so the key
    covers exactly those.  ``server`` None gives the *family* key: the
    same workload on any server.  Each part is its object's cached
    fingerprint, so a key costs one digest.
    """
    return fingerprint(model.fingerprint,
                       None if server is None else server.fingerprint,
                       minibatch, options.fingerprint)


#: The search store: Algorithm 1's result by :func:`plan_key`, least
#: recently used first.  Only the frozen :class:`SearchResult` is shared,
#: never a plan: each plan decomposes, looks up its profiles and builds
#: (assembles and validates) its own winner graph, so no task graph,
#: builder memo or ``ModelProfiles`` table outlives its plan.  The key is
#: sound because it covers everything the search reads on every
#: ``Harmony`` path -- the model content, the server (GPU spec included),
#: the minibatch, the schedule options, the search settings and the seed
#: -- and the Profiler always runs at its default sample sizes there.  A
#: hit reports the original search's ``elapsed_seconds``.  An infeasible
#: problem raises its typed error on every call and stores nothing.
_SEARCHES: OrderedDict[str, SearchResult] = OrderedDict()


def _search(key: str, profiles: ModelProfiles, server: ServerSpec,
            minibatch: int, options: HarmonyOptions) -> SearchResult:
    """Algorithm 1 on the problem ``key`` addresses, through the store."""
    return lru_get(_SEARCHES, key, lambda: ConfigurationSearch(
        profiles, server, minibatch, options.schedule_options(),
        options.search_settings(),
    ).search(), SEARCH_STORE_SIZE)


@dataclass
class HarmonyPlan:
    """Output of the Scheduler: everything needed to execute."""

    model: ModelSpec
    server: ServerSpec
    minibatch: int
    options: HarmonyOptions
    decomposed: DecomposedModel
    profiles: ModelProfiles
    search: SearchResult
    graph: TaskGraph

    @property
    def config(self) -> Configuration:
        return self.search.best

    def analyze(self, graph: Optional[TaskGraph] = None, *,
                server: Optional[ServerSpec] = None,
                **kwargs) -> "AnalysisReport":
        """Certify this plan with the static analyzer (never raises).

        The one place a plan's analyzer inputs are stated: the host-pinned
        state (model state plus the input batch), the input-staging share
        of it, the schedule options and prefetch.  ``graph`` and
        ``server`` default to the plan's own; a bind passes its rewritten
        graph and physical machine.  Other keywords (``options``,
        ``device_memory``, ``passes``, ...) go to
        :func:`repro.analysis.analyze` as they are.  The plan's own
        analysis also certifies every same-count relabel of it: see
        :attr:`relabel_peaks`, which keeps the facts that needs.
        """
        from repro.analysis import analyze

        host_input = self.minibatch * self.model.sample_bytes
        kwargs.setdefault("options", self.options.schedule_options())
        return analyze(
            self.graph if graph is None else graph,
            server=self.server if server is None else server,
            host_state_bytes=self.model.model_state_bytes + host_input,
            host_input_bytes=host_input,
            prefetch=self.options.prefetch,
            **kwargs,
        )

    @cached_property
    def relabel_peaks(self) -> Optional[tuple[int, ...]]:
        """Each logical GPU's as-built peak bound
        (:func:`repro.analysis.parametric.gpu_peaks`), or None when the
        plan's own :meth:`analyze` reports an error other than
        ``capacity/gpu``.  These are the facts
        :func:`repro.virt.bind.certify_relabel` certifies a same-count
        injective bind from; analyzed once per plan object and kept on
        it, so they go when the plan does."""
        from repro.analysis.parametric import gpu_peaks

        if any(d.rule != "capacity/gpu" for d in self.analyze().errors):
            return None
        return tuple(gpu_peaks(self.graph, self.options.prefetch))

    def describe(self) -> str:
        return (
            f"Harmony {self.options.mode.upper()} plan for {self.model.name} "
            f"(minibatch {self.minibatch}) on {self.server.describe()}:\n"
            f"  {self.search.describe()}\n"
            f"  {len(self.graph)} tasks, "
            f"static swap {self.graph.global_swap_bytes() / 2**30:.2f} GiB/iter"
        )


@dataclass
class HarmonyReport:
    """A plan plus the metrics of actually running it."""

    plan: HarmonyPlan
    metrics: RunMetrics

    def describe(self) -> str:
        return self.plan.describe() + "\n" + self.metrics.describe()


class Harmony:
    """End-to-end driver: decompose -> profile -> schedule -> execute."""

    def __init__(
        self,
        model: Union[str, ModelSpec],
        server: ServerSpec,
        minibatch: int,
        options: HarmonyOptions = HarmonyOptions(),
    ):
        self.model = build_model(model) if isinstance(model, str) else model
        self.server = server
        self.minibatch = minibatch
        self.options = options
        # Searched plans by plan_key: the full plan and every elastic
        # re-plan.  A re-plan depends only on how many devices survive,
        # never on *which* (relabeling onto physical ids is the runtime's
        # job), and the key covers the server and every setting, so a
        # reassigned server or options override never reuses a stale plan.
        self._plans: dict[str, HarmonyPlan] = {}

    @property
    def host_state_bytes(self) -> int:
        """Host-resident state the runtime pins: model state + input batch."""
        return (
            self.model.model_state_bytes
            + self.minibatch * self.model.sample_bytes
        )

    # -- scheduling -------------------------------------------------------------

    def plan(self, config: Optional[Configuration] = None) -> HarmonyPlan:
        """Run Decomposer, Profiler and Scheduler; memoized.

        The configuration search runs once per problem per process (the
        search store, ``_SEARCHES``); this plan still decomposes, profiles
        and builds its own winner graph.  Passing ``config`` skips the
        search and plans that configuration verbatim (used by the
        ablation and estimator-accuracy experiments).
        """
        return self._plan(self.server, self.options, config)

    def _plan(self, server: ServerSpec, options: HarmonyOptions,
              config: Optional[Configuration] = None) -> HarmonyPlan:
        """The one planning path: this model and minibatch on ``server``
        under ``options``, memoized by :func:`plan_key` unless ``config``
        pins the configuration."""
        key = plan_key(self.model, server, self.minibatch, options)
        if config is None and key in self._plans:
            return self._plans[key]
        decomposed = Decomposer(seed=options.seed).decompose(self.model)
        profiles = Profiler(server.gpu).profile(decomposed)
        schedule_options = options.schedule_options()
        builder = HarmonyGraphBuilder(
            profiles, server.n_gpus, self.minibatch, schedule_options
        )
        if config is None:
            search = _search(key, profiles, server, self.minibatch, options)
            graph = builder.build(search.best)
        else:
            graph = builder.build(config)
            estimator = RuntimeEstimator(profiles, server,
                                         prefetch=schedule_options.prefetch)
            estimate = estimator.estimate(graph)
            search = SearchResult(
                best=config, best_estimate=estimate,
                explored=(Explored(config, estimate),),
            )
        plan = HarmonyPlan(
            model=self.model,
            server=server,
            minibatch=self.minibatch,
            options=options,
            decomposed=decomposed,
            profiles=profiles,
            search=search,
            graph=graph,
        )
        if config is None:
            self._plans[key] = plan
        return plan

    # -- elastic re-planning ------------------------------------------------------

    def reduced_server(self, n_gpus: int) -> ServerSpec:
        """The same machine with only ``n_gpus`` GPUs left
        (:meth:`ServerSpec.with_gpus`): the surviving devices still sit
        behind the same class of switches.
        """
        if not 1 <= n_gpus <= self.server.n_gpus:
            raise ValueError(
                f"reduced server needs 1..{self.server.n_gpus} GPUs, "
                f"got {n_gpus}"
            )
        return self.server.with_gpus(n_gpus)

    def plan_for_server(self, n_gpus: int,
                        mode: Optional[str] = None) -> HarmonyPlan:
        """Re-run the Scheduler for a reduced GPU count; memoized.

        This is the online re-planning entry point the elastic runtime
        calls under fire (:class:`repro.elastic.ElasticReplanner`).  It
        plans :meth:`reduced_server` exactly as :meth:`plan` plans the
        full server -- same memo, same search store, same profile-store
        entry (the model did not change, the machine shrank) -- so a
        fresh ``Harmony`` on the reduced server reuses this search, and
        vice versa.  A DP plan whose minibatch cannot divide the survivor
        count falls back to PP on the same survivors.
        """
        from repro.common.errors import InfeasibleConfigError, SchedulingError

        options = replace(self.options,
                          mode=mode if mode is not None else self.options.mode)
        server = self.reduced_server(n_gpus)
        try:
            return self._plan(server, options)
        except (InfeasibleConfigError, SchedulingError):
            if options.mode != "dp":
                raise
        # DP cannot split this minibatch across the survivors; the
        # wrap-around pipeline works for any device count >= 1.
        plan = self.plan_for_server(n_gpus, mode="pp")
        self._plans[plan_key(self.model, server, self.minibatch,
                             options)] = plan
        return plan

    # -- binding -----------------------------------------------------------------

    def bind(self, binding: object,
             plan: Optional[HarmonyPlan] = None):
        """Map a logical plan onto physical hardware (``repro.virt``).

        ``binding`` is a :class:`repro.virt.DeviceBinding`; the plan's
        device ids are treated as *logical* and rewritten onto the
        binding's physical topology -- identity (bit-identical
        execution), fewer devices (time-slice multiplexing), or a
        heterogeneous FLOPs/memory mix.  The bound graph is re-certified
        by the strict analyzer against per-physical-device memory before
        it is returned.  Returns a :class:`repro.virt.BoundPlan` accepted
        by :meth:`run`.
        """
        from repro.virt.bind import bind as bind_plan

        return bind_plan(plan or self.plan(), binding)  # type: ignore[arg-type]

    # -- execution ---------------------------------------------------------------

    def run(self, plan: Optional[HarmonyPlan] = None,
            iterations: int = 1,
            fault_plan: Optional[FaultPlan] = None,
            recovery: Optional[RecoveryPolicy] = None,
            trace: Optional[object] = None) -> HarmonyReport:
        """Execute training iterations on a fresh simulated server.

        ``iterations > 1`` runs back-to-back iterations (flush-separated,
        preserving synchronous SGD) and reports per-iteration averages.

        Every run goes through a
        :class:`repro.faults.runner.FaultTolerantRunner`.  ``fault_plan``
        (a :class:`repro.faults.FaultPlan`) turns the run into a chaos
        run: faults are injected per the plan and recovered per
        ``recovery`` (a :class:`repro.faults.RecoveryPolicy`, default
        policy if omitted).  Without a plan, or with every fault
        disabled, the runner executes one plain executor phase.
        The simulator watchdog (``DEFAULT_MAX_STEPS`` engine steps)
        bounds every run: a schedule that stops making progress raises
        :class:`~repro.common.errors.SimulationError` naming the pending
        work instead of spinning forever.

        ``trace`` (a :class:`repro.trace.TraceRecorder`) records the run
        as a structured execution trace; the returned metrics carry the
        derived timeline analytics (``metrics.trace``) and the recorder
        holds the raw events for export.  Recording never consumes
        virtual time: a traced run's schedule is bit-identical to an
        untraced one.  The run advances the recorder's base by its
        virtual time, so a recorder reused across runs continues one
        timeline.

        ``plan`` may be a :class:`repro.virt.BoundPlan` (from
        :meth:`bind`): the run then executes the *bound* graph on the
        binding's physical machine -- scaled task times for heterogeneous
        mixes, deterministic time-slice multiplexing when several logical
        devices share one physical GPU.  An identity binding is
        bit-identical to no binding at all.

        A run does not certify its plan: to refuse a schedule the static
        analyzer rejects, call ``plan.analyze().raise_if_errors()`` first
        (:meth:`bind` already certifies a bound plan).
        """
        from repro.virt.bind import BoundPlan

        bound: Optional[BoundPlan] = None
        if isinstance(plan, BoundPlan):
            bound = plan
            plan = bound.plan
        else:
            plan = plan or self.plan()
        exec_spec = bound.server if bound is not None else self.server
        graph = bound.graph if bound is not None else plan.graph
        time_model = TrueTimeModel(
            KernelTimes(plan.decomposed, exec_spec.gpu), exec_spec.host,
            n_gpus=exec_spec.n_gpus,
            flops_scales=(bound.binding.topology.flops_scales()
                          if bound is not None else ()),
        )
        # Imported lazily: repro.faults pulls in the runner (and thus
        # this module's dependencies) at package scope.
        from repro.elastic import ElasticReplanner
        from repro.faults.runner import FaultTolerantRunner

        elastic_on = recovery is None or recovery.elastic
        if bound is not None and exec_spec.n_gpus != self.server.n_gpus:
            # The elastic replanner plans in the logical universe
            # (this Harmony's server); under a count-changing bind
            # its relabel targets would not match the physical
            # device range, so escalation stops at rebind/restart.
            elastic_on = False
        runner = FaultTolerantRunner(
            exec_spec, time_model, fault_plan,
            policy=recovery,
            prefetch=self.options.prefetch,
            host_state_bytes=self.host_state_bytes,
            replanner=ElasticReplanner(self) if elastic_on else None,
            trace=trace,
        )
        metrics = runner.run(graph, iterations=iterations)
        self._attach_analytics(metrics, trace, graph.n_devices)
        return HarmonyReport(plan=plan, metrics=metrics)

    def _attach_analytics(self, metrics: RunMetrics,
                          trace: Optional[object], n_devices: int) -> None:
        """Fold a recorder's derived timeline analytics into the metrics."""
        if trace is None:
            return
        from repro.trace import analyze_trace

        metrics.trace = analyze_trace(trace, n_devices)  # type: ignore[arg-type]
