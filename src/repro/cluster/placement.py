"""Cross-server placement: composing per-server Harmony plans.

Two cluster modes, both *compositions* of the single-server scheduler
(each server still runs its own full Harmony plan internally -- the
wrap-around pipeline, swaps, p2p, everything):

- **dp** -- data parallelism: every live server holds the full model and
  trains its shard of the minibatch; a ring all-reduce over the network
  synchronizes gradients each iteration.  State is replicated by
  construction, so a crashed server costs a re-shard, never a state
  migration.
- **pp** -- a DAPPLE-style stage-per-server pipeline: the layer chain is
  split into contiguous stages balanced by forward FLOPs, one stage per
  live server; boundary activations flow forward and boundary gradients
  backward over the network each iteration.  Each stage's checkpoint
  state is replicated to a *buddy* (the next live server) so a crashed
  stage restores from its replica.

A full joint DP-within-PP search across servers is future work
(ROADMAP); this module plans the two pure compositions and re-plans them
on arbitrary survivor subsets, which is what the failure-domain recovery
ladder needs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from repro.common.errors import GraphError, ReproError
from repro.common.fingerprint import fingerprint
from repro.cluster.spec import ClusterSpec
from repro.core.harmony import Harmony, HarmonyOptions, HarmonyPlan
from repro.graph.graph import LayerGraph
from repro.models.spec import ModelSpec
from repro.models.zoo import build_model

CLUSTER_MODES = ("dp", "pp")


def partition_stages(graph: LayerGraph, n_stages: int) -> list[tuple[int, int]]:
    """Split a layer chain into ``n_stages`` contiguous ``[lo, hi)`` ranges.

    Balanced by per-sample forward FLOPs via prefix sums: each cut lands
    at the first layer boundary reaching its share of the total, while
    always leaving at least one layer for every remaining stage.
    Deterministic, and every layer lands in exactly one stage.
    """
    n_layers = len(graph)
    if not 1 <= n_stages <= n_layers:
        raise GraphError(
            f"cannot split {n_layers} layers into {n_stages} stage(s)"
        )
    prefix = [0.0]
    for layer in graph:
        prefix.append(
            prefix[-1] + layer.flops_fwd_fixed + layer.flops_fwd_per_sample
        )
    total = prefix[-1]
    cuts = [0]
    for k in range(1, n_stages):
        target = total * k / n_stages
        i = cuts[-1] + 1
        limit = n_layers - (n_stages - k)
        while i < limit and prefix[i] < target:
            i += 1
        cuts.append(min(i, limit))
    cuts.append(n_layers)
    return [(cuts[j], cuts[j + 1]) for j in range(n_stages)]


def stage_model(model: ModelSpec, lo: int, hi: int, stage: int) -> ModelSpec:
    """The sub-model a pipeline stage trains: layers ``[lo, hi)``.

    Stage 0 ingests the real input samples; later stages ingest their
    first layer's input activation (that is what arrives over the
    network and must be host-resident while the stage trains).
    """
    sub = LayerGraph.chain(
        f"{model.name}[s{stage}]", model.graph.layers[lo:hi]
    )
    sample = (
        model.sample_bytes if stage == 0
        else model.graph.layers[lo].act_in_bytes_per_sample
    )
    return ModelSpec(
        name=sub.name,
        graph=sub,
        optimizer=model.optimizer,
        sample_bytes=sample,
        description=f"layers {lo}..{hi - 1} of {model.name}",
    )


@dataclass
class StagePlan:
    """One server's share of a cluster plan."""

    #: physical server index this stage is placed on
    server: int
    #: the (sub-)model this server trains
    model: ModelSpec
    #: per-server scheduler bound to this stage (memoizes its plans)
    harmony: Harmony
    #: the planned single-server schedule
    plan: HarmonyPlan
    #: layer range ``[lo, hi)`` of the full model (dp: the whole chain)
    layers: tuple[int, int]
    #: samples this server pushes through per iteration
    samples: int
    #: activation bytes shipped to the next stage per iteration (pp only)
    boundary_out_bytes: int
    #: checkpointed stage state (weights + optimizer) for replication
    state_bytes: int


@dataclass
class ClusterPlan:
    """A full cross-server placement: one StagePlan per participating server."""

    mode: str
    minibatch: int
    stages: list[StagePlan]
    #: live servers this plan was made for (participants are a subset)
    live: tuple[int, ...]
    #: True when the planner had to switch modes (dp infeasible -> pp)
    mode_switched: bool = False

    @property
    def servers(self) -> list[int]:
        return [s.server for s in self.stages]

    def describe(self) -> str:
        lines = [
            f"cluster-{self.mode} plan: {len(self.stages)} stage(s) on "
            f"servers {self.servers}, minibatch {self.minibatch}"
        ]
        for i, s in enumerate(self.stages):
            lines.append(
                f"  stage {i} @ s{s.server}: layers "
                f"[{s.layers[0]}, {s.layers[1]}), {s.samples} sample(s), "
                f"state {s.state_bytes / 2**20:.1f} MiB"
            )
        return "\n".join(lines)


def _state_bytes(model: ModelSpec, lo: int, hi: int) -> int:
    """Checkpoint bytes for layers ``[lo, hi)``: weights + optimizer.

    Gradients are transient within an iteration and not checkpointed,
    so the replicated state is ``(1 + slots) * params``, not the full
    ``model_state_bytes`` footprint.
    """
    params = sum(
        layer.param_bytes for layer in model.graph.layers[lo:hi]
    )
    return params * (1 + model.optimizer_slots)


class ClusterPlanner:
    """Plans (and re-plans) cross-server placements on live-server subsets.

    Plans are memoized per ``(mode, live subset)``; the per-server
    :class:`Harmony` instances memoize their own searches, so replaying
    a seeded storm re-derives bit-identical plans without re-searching.
    """

    def __init__(
        self,
        model: Union[str, ModelSpec],
        cluster: ClusterSpec,
        minibatch: int,
        mode: str = "pp",
        options: HarmonyOptions = HarmonyOptions(),
    ):
        if mode not in CLUSTER_MODES:
            raise ValueError(
                f"cluster mode must be one of {CLUSTER_MODES}, got {mode!r}"
            )
        if minibatch < 1:
            raise ValueError(f"minibatch must be >= 1, got {minibatch}")
        self.model = build_model(model) if isinstance(model, str) else model
        self.cluster = cluster
        self.minibatch = minibatch
        self.mode = mode
        #: per-server plans always use the wrap-around pipeline internally
        #: (it works for any GPU count); cluster dp/pp is the cross-server
        #: composition, not the intra-server mode.
        self.options = replace(options, mode="pp")
        self._plans: dict[tuple, ClusterPlan] = {}
        #: Harmony instances memoized per (server, stage model content,
        #: samples, hardware): a re-plan on survivors reuses each
        #: survivor's scheduler state, but never across a hardware swap
        #: or a re-cut stage that kept its name.
        self._harmonies: dict[tuple, Harmony] = {}

    def _harmony(self, server: int, model: ModelSpec,
                 samples: int) -> Harmony:
        spec = self.cluster.servers[server]
        key = (server, model.fingerprint, samples, fingerprint(spec))
        if key not in self._harmonies:
            self._harmonies[key] = Harmony(
                model, spec, samples, self.options
            )
        return self._harmonies[key]

    def _topology_key(self, live: tuple[int, ...]) -> str:
        """Content address of the live servers' specs and the network.

        Part of every plan memo key: a placement computed against one
        hardware mix must never be served after the cluster's specs
        change (e.g. a server swapped for a different GPU count), even
        though the live-index tuple looks identical.
        """
        return fingerprint(
            tuple(self.cluster.servers[s] for s in live), self.cluster.network
        )

    def plan_for(self, live: tuple[int, ...]) -> ClusterPlan:
        """The placement for the given live-server subset; memoized.

        Raises :class:`~repro.common.errors.ReproError` subclasses when
        no placement fits (no live servers, or every composition
        infeasible) -- the runner converts that into a typed
        cluster-level failure.
        """
        live = tuple(sorted(live))
        if not live:
            raise GraphError("cannot plan a cluster with no live servers")
        for server in live:
            if not 0 <= server < self.cluster.n_servers:
                raise GraphError(f"live server s{server} out of range")
        key = (self.mode, live, self._topology_key(live))
        if key in self._plans:
            return self._plans[key]
        if self.mode == "dp":
            try:
                plan = self._plan_dp(live)
            except ReproError:
                # DP cannot shard this minibatch over these survivors;
                # the stage pipeline works for any live count >= 1.
                plan = self._plan_pp(live)
                plan.mode_switched = True
        else:
            plan = self._plan_pp(live)
        self._plans[key] = plan
        return plan

    def _plan_dp(self, live: tuple[int, ...]) -> ClusterPlan:
        n = len(live)
        base, rem = divmod(self.minibatch, n)
        shares = [base + (1 if i < rem else 0) for i in range(n)]
        stages: list[StagePlan] = []
        n_layers = len(self.model.graph)
        state = _state_bytes(self.model, 0, n_layers)
        for i, server in enumerate(live):
            if shares[i] == 0:
                continue  # minibatch smaller than the cluster: idle server
            harmony = self._harmony(server, self.model, shares[i])
            stages.append(StagePlan(
                server=server,
                model=self.model,
                harmony=harmony,
                plan=harmony.plan(),
                layers=(0, n_layers),
                samples=shares[i],
                boundary_out_bytes=0,
                state_bytes=state,
            ))
        return ClusterPlan(mode="dp", minibatch=self.minibatch,
                           stages=stages, live=live)

    def _plan_pp(self, live: tuple[int, ...]) -> ClusterPlan:
        n_stages = min(len(live), len(self.model.graph))
        ranges = partition_stages(self.model.graph, n_stages)
        stages: list[StagePlan] = []
        for k, (lo, hi) in enumerate(ranges):
            server = live[k]
            sub = stage_model(self.model, lo, hi, k)
            harmony = self._harmony(server, sub, self.minibatch)
            boundary = (
                self.model.graph.layers[hi - 1].act_out_bytes_per_sample
                * self.minibatch
                if k < n_stages - 1 else 0
            )
            stages.append(StagePlan(
                server=server,
                model=sub,
                harmony=harmony,
                plan=harmony.plan(),
                layers=(lo, hi),
                samples=self.minibatch,
                boundary_out_bytes=boundary,
                state_bytes=_state_bytes(self.model, lo, hi),
            ))
        return ClusterPlan(mode="pp", minibatch=self.minibatch,
                           stages=stages, live=live)

    def migration_moves(
        self, old: ClusterPlan, new: ClusterPlan,
        dead: set[int], replicas: dict[int, int],
    ) -> tuple[list, int, list[tuple[int, str]]]:
        """Plan cross-server state moves from ``old`` to ``new`` packing.

        For every (old stage, new stage) layer-range overlap, the
        overlapping checkpoint bytes move from the old owner to the new
        owner over the network.  A dead old owner sources from its
        replica buddy (``replicas``: old stage index -> buddy server).

        Returns ``(moves, restores, lost)``:

        - ``moves`` -- executable server-to-server
          :class:`~repro.elastic.migration.MigrationMove` list
          (co-located source/destination elided);
        - ``restores`` -- overlaps sourced from a replica instead of the
          (dead) owner, including co-located ones;
        - ``lost`` -- ``(old stage index, reason)`` for overlaps with no
          recoverable source: ``"no-replica"`` (crash before the first
          replication round -- re-initializable) or ``"replica-dead"``
          (owner and buddy both gone -- unrecoverable from peers).

        DP-to-anything migrations move nothing: DP state is replicated
        on every participant by construction, so any survivor sources
        locally.
        """
        from repro.elastic.migration import MigrationMove

        moves: list = []
        lost: list[tuple[int, str]] = []
        restores = 0
        if old.mode == "dp":
            return moves, restores, lost
        for j, ns in enumerate(new.stages):
            for i, os_ in enumerate(old.stages):
                lo = max(ns.layers[0], os_.layers[0])
                hi = min(ns.layers[1], os_.layers[1])
                if lo >= hi:
                    continue
                nbytes = _state_bytes(self.model, lo, hi)
                src: Optional[int] = os_.server
                if os_.server in dead:
                    buddy = replicas.get(i)
                    if buddy is None:
                        lost.append((i, "no-replica"))
                        continue
                    if buddy in dead:
                        lost.append((i, "replica-dead"))
                        continue
                    src = buddy
                    restores += 1
                if src == ns.server:
                    continue
                moves.append(MigrationMove(
                    src=src, dst=ns.server, nbytes=nbytes,
                    label=f"stage{i}->stage{j}",
                ))
        return moves, restores, lost
