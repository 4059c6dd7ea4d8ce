"""The analyzer never certifies a schedule the Executor deadlocks on.

Seeded soups of small two-GPU task graphs -- every channel, per-task and
per-microbatch tensors, zero-byte moves, CPU-offloaded updates, P2P
sources on the other GPU, single- and multi-microbatch groups -- run
through the ``deadlock`` pass and through the Executor, with prefetch on
and off.  A graph the analyzer calls clean must run to completion.

The other direction holds up to :data:`FALSE_ALARMS`: the wait graph
keeps one fetch node per task, so it rejects a few graphs in which one
fetch waits on a producer while another of the same task's fetches
still has to clear a stream for the producer to run.  A finer graph may
shrink those sets; any other rejection of a graph the Executor runs is
a wait the graph invents.
"""

import random

import pytest

from repro.core.types import Channel, Move, Task, TaskGraph, TaskKind, TensorKind
from tests.analysis.test_runtime_identity import verdicts

SOUPS = 2000
SINGLE = ((1,), (2,))
MULTI = ((1,), (2,), (1, 1), (1, 2), (3,))

#: (groups, prefetch) -> the seeds the analyzer rejects though the
#: Executor runs them, every one through a single task's fetch node.
FALSE_ALARMS = {
    ("single", True): {124, 614, 764, 990, 1486, 1893},
    ("multi", True): {124, 210, 614, 1191, 1367, 1486, 1954},
}


def _move(rng, tid, tasks, device, out):
    tensor = rng.choice(list(TensorKind))
    channel = rng.choice(list(Channel))
    nbytes = rng.choice((0, 4096))
    peer = 1 - device if channel is Channel.P2P else None
    if out:
        return Move(tensor, nbytes, channel, peer=peer)
    others = [t for t in range(len(tasks)) if t != tid]
    if channel is Channel.P2P:
        remote = [t for t in others if tasks[t][1] != device]
        src = rng.choice(remote) if remote and rng.random() < 0.8 else None
        return Move(tensor, nbytes, channel, peer=peer, src_task=src)
    earlier = others[:tid] if tid and rng.random() < 0.7 else others
    src = rng.choice(earlier) if rng.random() < 0.5 else None
    return Move(tensor, nbytes, channel, src_task=src)


def soup(seed, groups):
    """One seeded graph of 2-6 tasks on two GPUs."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    tasks = []
    for _ in range(n):
        kind = rng.choice((TaskKind.FWD, TaskKind.BWD, TaskKind.UPD))
        on_cpu = kind is TaskKind.UPD and rng.random() < 0.5
        tasks.append((kind, rng.randint(0, 1), on_cpu, rng.choice(groups)))
    graph = TaskGraph(mode="test", n_devices=2)
    for tid, (kind, device, on_cpu, mbs) in enumerate(tasks):
        ins = [_move(rng, tid, tasks, device, False)
               for _ in range(rng.randint(0, 3))]
        outs = [_move(rng, tid, tasks, device, True)
                for _ in range(rng.randint(0, 2))]
        graph.add(Task(tid, kind, 0, 0, device, mbs, on_cpu=on_cpu,
                       ins=ins, outs=outs))
    return graph


@pytest.mark.no_graph_analysis
@pytest.mark.no_trace_invariants
@pytest.mark.parametrize("groups", ("single", "multi"))
@pytest.mark.parametrize("prefetch", (True, False), ids=("prefetch", "serial"))
def test_no_clean_graph_deadlocks_the_executor(small_server, prefetch,
                                                groups):
    sizes = SINGLE if groups == "single" else MULTI
    missed, alarms, hung = [], set(), 0
    for seed in range(SOUPS):
        static, hung_by = verdicts(soup(seed, sizes), small_server, prefetch)
        rejected, dynamic = static is not None, hung_by is not None
        hung += dynamic
        if dynamic and not rejected:
            missed.append(seed)
        if rejected and not dynamic:
            alarms.add(seed)
    assert not missed, f"analyzer-clean graphs deadlocked: seeds {missed}"
    extra = alarms - FALSE_ALARMS.get((groups, prefetch), set())
    assert not extra, f"runnable graphs rejected: seeds {sorted(extra)}"
    assert 0 < hung < SOUPS  # the soup exercises both outcomes
