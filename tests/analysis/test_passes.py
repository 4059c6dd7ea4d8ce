"""Adversarial tests: hand-built broken schedules must trip exact rules."""

import pytest

from repro.analysis import (
    STRUCTURAL_PASSES,
    ScheduleAnalysisError,
    Severity,
    analyze,
    check,
    registered_passes,
    stream_ref,
    task_ref,
    verify_graph,
)
from repro.core.taskgraph import ScheduleOptions
from repro.core.types import Channel, Move, Task, TaskGraph, TaskKind, TensorKind

MB = 2**20


def task(tid, kind=TaskKind.FWD, device=0, mbs=(1,), **kw):
    return Task(tid=tid, kind=kind, first_layer=0, last_layer=0,
                device=device, microbatches=mbs, **kw)


def graph_of(*tasks, n_devices=2, mode="test"):
    graph = TaskGraph(mode=mode, n_devices=n_devices)
    for t in tasks:
        graph.add(t)
    return graph


class TestRegistry:
    def test_all_passes_registered(self):
        assert set(registered_passes()) == {
            "structure", "deadlock", "dataflow", "hb", "lifetime",
            "capacity", "channel", "ablation",
        }

    def test_structural_passes_need_no_context(self):
        assert set(STRUCTURAL_PASSES) <= set(registered_passes())
        report = analyze(graph_of(task(0)), passes=STRUCTURAL_PASSES)
        assert not any(r.skipped for r in report.results)

    def test_context_passes_skip_with_reason(self):
        report = analyze(graph_of(task(0)))
        skipped = {r.name: r.skipped for r in report.results if r.skipped}
        assert skipped == {
            "capacity": "no server spec",
            "ablation": "no schedule options",
        }


class TestStructure:
    def test_dangling_src(self):
        t = task(0)
        t.ins.append(Move(TensorKind.Y, MB, Channel.MSG, src_task=99))
        report = analyze(graph_of(t))
        assert report.has("structure/dangling-src")

    def test_self_dependency(self):
        t = task(0)
        t.ins.append(Move(TensorKind.Y, MB, Channel.MSG, src_task=0))
        report = analyze(graph_of(t))
        assert report.has("structure/self-dependency")

    def test_bad_device(self):
        report = analyze(graph_of(task(0, device=5)))
        assert report.has("structure/bad-device")

    def test_no_microbatches(self):
        report = analyze(graph_of(task(0, mbs=())))
        assert report.has("structure/no-microbatches")

    def test_dense_tids(self):
        graph = TaskGraph(mode="test", n_devices=1)
        graph.tasks.append(task(3))  # bypass add() to corrupt the list
        report = analyze(graph)
        assert report.has("structure/dense-tids")


class TestDeadlock:
    def test_plain_dependency_cycle(self):
        a, b = task(0), task(1)
        a.ins.append(Move(TensorKind.Y, MB, Channel.MSG, src_task=1))
        b.ins.append(Move(TensorKind.Y, MB, Channel.MSG, src_task=0))
        a.outs.append(Move(TensorKind.Y, MB, Channel.MSG))
        b.outs.append(Move(TensorKind.Y, MB, Channel.MSG))
        report = analyze(graph_of(a, b))
        assert report.has("deadlock/cycle")
        [diag] = report.by_rule("deadlock/cycle")
        assert task_ref(0) in diag.message and task_ref(1) in diag.message

    def test_stream_fifo_inversion(self):
        """Acyclic in src_task edges, yet deadlocked: t0's fetch is queued
        first on gpu0's swap-in stream but waits (through t1) on t2, whose
        own fetch is queued *behind* t0 on the same FIFO stream."""
        t0 = task(0, device=0)
        t0.ins.append(Move(TensorKind.Y, MB, Channel.SWAP, src_task=1))
        t1 = task(1, device=1)
        t1.ins.append(Move(TensorKind.Y, MB, Channel.SWAP, src_task=2))
        t1.outs.append(Move(TensorKind.Y, MB, Channel.MSG))
        t2 = task(2, device=0)
        t2.ins.append(Move(TensorKind.W, MB, Channel.SWAP))
        t2.outs.append(Move(TensorKind.Y, MB, Channel.MSG))
        report = analyze(graph_of(t0, t1, t2))
        assert report.has("deadlock/cycle")
        [diag] = report.by_rule("deadlock/cycle")
        assert stream_ref(0, "swap_in") in diag.message

    def test_same_graph_reordered_is_clean(self):
        """The inversion above disappears when gpu0 issues t2 first."""
        t0 = task(0, device=0)
        t0.ins.append(Move(TensorKind.W, MB, Channel.SWAP))
        t0.outs.append(Move(TensorKind.Y, MB, Channel.MSG))
        t1 = task(1, device=1)
        t1.ins.append(Move(TensorKind.Y, MB, Channel.SWAP, src_task=0))
        t1.outs.append(Move(TensorKind.Y, MB, Channel.MSG))
        t2 = task(2, device=0)
        t2.ins.append(Move(TensorKind.Y, MB, Channel.SWAP, src_task=1))
        report = analyze(graph_of(t0, t1, t2))
        assert not report.has("deadlock/cycle")


class TestDataflow:
    def test_use_before_swap_in(self):
        producer = task(0)  # stages nothing to host
        consumer = task(1)
        consumer.ins.append(
            Move(TensorKind.CKPT, MB, Channel.SWAP, src_task=0)
        )
        report = analyze(graph_of(producer, consumer))
        assert report.has("dataflow/use-before-produce")

    def test_staged_swap_in_is_clean(self):
        producer = task(0)
        producer.outs.append(Move(TensorKind.CKPT, MB, Channel.MSG))
        consumer = task(1)
        consumer.ins.append(
            Move(TensorKind.CKPT, MB, Channel.SWAP, src_task=0)
        )
        report = analyze(graph_of(producer, consumer))
        assert not report.has("dataflow/use-before-produce")

    def test_wrong_producer(self):
        fwd = task(0)
        upd = task(1, kind=TaskKind.UPD)
        upd.ins.append(Move(TensorKind.DW, MB, Channel.MSG, src_task=0))
        report = analyze(graph_of(fwd, upd))
        assert report.has("dataflow/wrong-producer")

    def test_fused_backward_produces_forward_families(self):
        fused = task(0, kind=TaskKind.BWD, fused=True)
        fused.outs.append(Move(TensorKind.Y, MB, Channel.MSG))
        consumer = task(1, kind=TaskKind.BWD)
        consumer.ins.append(Move(TensorKind.X, MB, Channel.SWAP, src_task=0))
        report = analyze(graph_of(fused, consumer))
        assert not report.has("dataflow/wrong-producer")

    def test_double_stash(self):
        t = task(0)
        t.outs.append(Move(TensorKind.CKPT, MB, Channel.MSG, label="ckpt"))
        t.outs.append(Move(TensorKind.CKPT, MB, Channel.MSG, label="ckpt"))
        report = analyze(graph_of(t))
        assert report.has("dataflow/double-stash")

    def test_unaccounted_resident_warns(self):
        t = task(0)
        t.ins.append(Move(TensorKind.W, MB, Channel.SWAP))
        report = analyze(graph_of(t))
        [diag] = report.by_rule("dataflow/unaccounted-resident")
        assert diag.severity is Severity.WARNING
        assert report.ok  # warnings never reject a schedule


class TestCapacity:
    def test_over_capacity_pack(self, small_server):
        tasks = [
            task(i, device=0, resident_bytes=200 * MB) for i in range(3)
        ]
        report = analyze(graph_of(*tasks), server=small_server)
        assert report.has("capacity/gpu")  # 2 x 200 MiB > 256 MiB

    def test_single_buffering_halves_the_window(self, small_server):
        tasks = [
            task(i, device=0, resident_bytes=200 * MB) for i in range(3)
        ]
        report = analyze(graph_of(*tasks), server=small_server,
                         prefetch=False)
        assert not report.has("capacity/gpu")

    def test_cpu_tasks_hold_no_gpu_memory(self, small_server):
        tasks = [
            task(0, device=0, resident_bytes=200 * MB),
            task(1, kind=TaskKind.UPD, device=0, on_cpu=True,
                 resident_bytes=200 * MB),
            task(2, device=0, resident_bytes=10 * MB),
        ]
        report = analyze(graph_of(*tasks), server=small_server)
        assert not report.has("capacity/gpu")

    def test_host_stash_overflow(self, small_server):
        t = task(0)
        t.outs.append(Move(
            TensorKind.CKPT, small_server.host.memory_bytes, Channel.MSG,
        ))
        report = analyze(graph_of(t), server=small_server,
                         host_state_bytes=MB)
        assert report.has("capacity/host")

    def test_host_bound_needs_state_bytes(self, small_server):
        t = task(0)
        t.outs.append(Move(
            TensorKind.CKPT, small_server.host.memory_bytes, Channel.MSG,
        ))
        report = analyze(graph_of(t), server=small_server)
        assert not report.has("capacity/host")


class TestChannel:
    def test_illegal_p2p_hop(self, small_server):
        t = task(0)
        t.ins.append(Move(TensorKind.X, MB, Channel.P2P, peer=7))
        report = analyze(graph_of(t), server=small_server)
        assert report.has("channel/bad-peer")

    def test_p2p_to_self_warns(self):
        t0 = task(0, device=0)
        t0.outs.append(Move(TensorKind.Y, MB, Channel.MSG))
        t1 = task(1, device=0)
        t1.ins.append(Move(TensorKind.X, MB, Channel.P2P, src_task=0))
        report = analyze(graph_of(t0, t1))
        [diag] = report.by_rule("channel/p2p-self")
        assert diag.severity is Severity.WARNING

    def test_cpu_task_cannot_pull_p2p(self):
        t0 = task(0, kind=TaskKind.BWD, device=0)
        t0.outs.append(Move(TensorKind.DW, MB, Channel.MSG))
        upd = task(1, kind=TaskKind.UPD, device=1, on_cpu=True)
        upd.ins.append(Move(TensorKind.DW, MB, Channel.P2P, src_task=0))
        report = analyze(graph_of(t0, upd))
        assert report.has("channel/cpu-p2p")

    def test_local_cross_device(self):
        t0 = task(0, device=0)
        t1 = task(1, device=1)
        t1.ins.append(Move(TensorKind.X, MB, Channel.LOCAL, src_task=0))
        report = analyze(graph_of(t0, t1))
        assert report.has("channel/local-cross-device")

    def test_zero_byte_local_ordering_edges_are_fine(self):
        t0 = task(0, device=0)
        t1 = task(1, device=1)
        t1.ins.append(Move(TensorKind.DW, 0, Channel.LOCAL, src_task=0))
        report = analyze(graph_of(t0, t1))
        assert not report.has("channel/local-cross-device")

    def test_topology_mismatch(self, small_server):
        report = analyze(
            graph_of(task(0), task(1, device=3), n_devices=4),
            server=small_server,
        )
        assert report.has("channel/topology-mismatch")


class TestAblation:
    def test_grouping_off_with_grouped_task(self):
        graph = graph_of(task(0, mbs=(2, 2)))
        report = analyze(
            graph, options=ScheduleOptions(mode="pp", grouping=False)
        )
        assert report.has("ablation/grouping")

    def test_jit_off_with_fused_update(self):
        graph = graph_of(task(0, kind=TaskKind.BWD, fused=True))
        report = analyze(graph, options=ScheduleOptions(mode="pp", jit=False))
        assert report.has("ablation/jit")

    def test_jit_off_with_early_update(self):
        graph = graph_of(
            task(0, kind=TaskKind.UPD), task(1, kind=TaskKind.BWD)
        )
        report = analyze(graph, options=ScheduleOptions(mode="pp", jit=False))
        assert report.has("ablation/jit")

    def test_p2p_off_with_p2p_move(self):
        t = task(0)
        t.ins.append(Move(TensorKind.X, MB, Channel.P2P, peer=1))
        report = analyze(
            graph_of(t), options=ScheduleOptions(mode="pp", p2p=False)
        )
        assert report.has("ablation/p2p")

    def test_offload_on_with_gpu_update(self):
        graph = graph_of(task(0, kind=TaskKind.UPD))
        report = analyze(
            graph,
            options=ScheduleOptions(mode="pp", offload_optimizer=True),
        )
        assert report.has("ablation/offload")

    def test_offload_on_with_optimizer_state_traffic(self):
        t = task(0, kind=TaskKind.UPD, on_cpu=True)
        t.ins.append(Move(TensorKind.K, MB, Channel.SWAP))
        report = analyze(
            graph_of(t),
            options=ScheduleOptions(mode="pp", offload_optimizer=True),
        )
        assert report.has("ablation/offload")


class TestReportApi:
    def test_check_raises_with_rule_and_location(self):
        t = task(0, device=5)
        with pytest.raises(ScheduleAnalysisError, match="structure/bad-device"):
            check(graph_of(t))

    def test_validate_delegates_to_analyzer(self):
        t = task(0)
        t.ins.append(Move(TensorKind.Y, MB, Channel.MSG, src_task=42))
        graph = graph_of(t)
        with pytest.raises(ScheduleAnalysisError):
            graph.validate()

    def test_verify_graph_skips_machine_context(self):
        # Over-capacity is invisible without a server: verify_graph is the
        # structural subset only.
        verify_graph(graph_of(task(0, resident_bytes=2**50)))

    def test_suppression_counts(self):
        t = task(0, device=5)
        report = analyze(graph_of(t), suppress=("structure/bad-device",))
        assert report.ok
        assert any(r.suppressed for r in report.results)

    def test_describe_mentions_verdict(self):
        good = analyze(graph_of(task(0)))
        assert "schedule is safe" in good.describe()
        bad = analyze(graph_of(task(0, device=9)))
        assert "REJECTED" in bad.describe()
