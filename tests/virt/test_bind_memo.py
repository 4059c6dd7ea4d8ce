"""Stale-bind regressions: plan memos must key on physical hardware.

Mirrors ``tests/elastic/test_plan_memo.py`` for the hardware dimension:
after a rebind the *server spec* can change (different GPU memory, a
different count behind the same live indices), and every memo that used
to key only on counts/settings would happily serve a plan searched
against the old hardware.  ``Harmony``'s plan memo and both
``ClusterPlanner`` memos are content-addressed over the server spec and
the (stage) model's content, not its name.
"""

from dataclasses import replace

from repro.cluster import ClusterPlanner, homogeneous_cluster
from repro.cluster.placement import stage_model
from repro.core.harmony import Harmony, HarmonyOptions
from repro.experiments.common import server_for


def _harmony(gpus=2):
    return Harmony("toy-transformer", server_for(gpus), 8,
                   options=HarmonyOptions(mode="pp"))


def _shrunk_gpu(server):
    """The same server with half the GPU memory (a hardware downgrade)."""
    gpu = replace(server.gpu, memory_bytes=server.gpu.memory_bytes // 2)
    return replace(server, gpu=gpu)


class TestHarmonyMemos:
    def test_plan_memoizes_on_stable_server(self):
        harmony = _harmony()
        assert harmony.plan() is harmony.plan()

    def test_plan_recomputes_after_server_change(self):
        harmony = _harmony()
        stale = harmony.plan()
        harmony.server = _shrunk_gpu(harmony.server)
        fresh = harmony.plan()
        assert fresh is not stale, (
            "plan() served a plan searched against the old hardware"
        )
        assert fresh.server == harmony.server
        assert harmony.plan() is fresh

    def test_plan_for_server_memoizes_on_stable_server(self):
        harmony = _harmony()
        assert harmony.plan_for_server(1) is harmony.plan_for_server(1)

    def test_plan_for_server_recomputes_after_server_change(self):
        harmony = _harmony()
        stale = harmony.plan_for_server(1)
        harmony.server = _shrunk_gpu(harmony.server)
        fresh = harmony.plan_for_server(1)
        assert fresh is not stale, (
            "plan_for_server() memo key is missing the physical "
            "topology fingerprint"
        )
        assert fresh.server.gpu == harmony.server.gpu


class TestClusterPlannerMemos:
    def test_plan_for_memoizes_on_stable_cluster(self):
        planner = ClusterPlanner(
            "toy-transformer", homogeneous_cluster(2, server_for(2)), 8,
            mode="pp",
        )
        live = (0, 1)
        assert planner.plan_for(live) is planner.plan_for(live)

    def test_plan_for_recomputes_after_hardware_swap(self):
        planner = ClusterPlanner(
            "toy-transformer", homogeneous_cluster(2, server_for(2)), 8,
            mode="pp",
        )
        live = (0, 1)
        stale = planner.plan_for(live)
        swapped = _shrunk_gpu(planner.cluster.servers[1])
        planner.cluster = replace(
            planner.cluster,
            servers=(planner.cluster.servers[0], swapped),
        )
        fresh = planner.plan_for(live)
        assert fresh is not stale, (
            "ClusterPlanner served a placement computed against the old "
            "hardware mix for the same live-index tuple"
        )
        assert planner.plan_for(live) is fresh

    def test_harmony_memo_tracks_server_spec(self):
        planner = ClusterPlanner(
            "toy-transformer", homogeneous_cluster(2, server_for(2)), 8,
            mode="pp",
        )
        model = planner.model
        first = planner._harmony(0, model, 8)
        assert planner._harmony(0, model, 8) is first
        # Keyed on content: a renamed model hits, a re-cut one misses.
        renamed = replace(model, name="renamed")
        assert planner._harmony(0, renamed, 8) is first
        recut = stage_model(model, 0, len(model.graph) - 1, 0)
        assert planner._harmony(0, recut, 8) is not first
        planner.cluster = replace(
            planner.cluster,
            servers=(_shrunk_gpu(planner.cluster.servers[0]),
                     planner.cluster.servers[1]),
        )
        second = planner._harmony(0, model, 8)
        assert second is not first
        assert second.server == planner.cluster.servers[0]

    def test_stage_plans_follow_a_recut_after_server_loss(self):
        """Regression: losing one of four servers re-cuts every stage,
        but stage 0 keeps its name (``gpt2[s0]``); a memo keyed on the
        name served server 0 the old 14-layer plan for 18 layers."""
        planner = ClusterPlanner(
            "gpt2", homogeneous_cluster(4, server_for(2)), 8, mode="pp",
        )
        for live in ((0, 1, 2, 3), (0, 1, 2)):
            for stage in planner.plan_for(live).stages:
                lo, hi = stage.layers
                assert len(stage.plan.model.graph) == hi - lo, (
                    f"s{stage.server} trains layers [{lo}, {hi}) with a "
                    f"plan for {len(stage.plan.model.graph)} layers"
                )
