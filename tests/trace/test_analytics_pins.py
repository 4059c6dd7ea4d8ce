"""Pins every figure :func:`repro.trace.analyze_trace` derives.

The golden traces pin the recorded event lines, but not the analytics
computed from them, so a change to how busy time, overlap, bubbles or
link contention are measured could move a reported figure without any
test noticing.  Each case below runs one traced scenario and pins the
sha256 of ``float.hex`` of every :class:`~repro.trace.TraceAnalytics`
field, with each ``link_contention`` entry (busy, contended, intervals)
in the dict's own order:

- the toy transformer, pp and dp, on 2 GPUs;
- gpt2 pp on 4 GPUs at minibatch 16, whose swaps contend for the shared
  PCIe uplinks;
- a seeded chaos run, whose faulted holds move no bytes and whose
  retries hold links again (its canonical event lines are pinned too:
  the golden traces cover only fault-free and heterogeneous runs);
- a ring recorder that dropped events (the analytics still cover the
  whole run; only the event count and ``dropped`` differ from toy-pp).

Any change to what the analytics compute moves a digest.
"""

import hashlib

import pytest

from repro.core.harmony import Harmony, HarmonyOptions
from repro.experiments.common import server_for
from repro.faults import FaultPlan, FaultSpec
from repro.trace import TraceRecorder

#: run name -> (sha256 of the analytics, sha256 of the trace lines)
DIGESTS = {
    "toy-pp": (
        "06c1497fb74c298378e581dd75a59c641fcd43148875d93323dcbff5aa57ed79",
        None),
    "toy-dp": (
        "7f11311c77e106d0c66c665f03dc8a32c1469b6123ed1582794c78cf800f3bd2",
        None),
    "gpt2-pp-x4-mb16": (
        "87264916913c0bc83f3885ab7bddc66aa3604150f2f7d6160d84ba6df0045c28",
        None),
    "toy-pp-chaos": (
        "269880db4b576a9d0a0c13447d367ebb7bff34c2681c81568cada437230982d0",
        "36b47f6467548500bf7cd8be99e07afc2c45293ada48f0d2518ea96cf1381fae"),
    "toy-pp-ring": (
        "7a84bfab8982ef12542d23841e0f532634b4d650e7977c56e189ddf00c1dbb85",
        None),
}


def _hex(value) -> str:
    return value.hex() if isinstance(value, float) else repr(value)


def _analytics_lines(analytics) -> str:
    lines = [
        f"total_time {_hex(analytics.total_time)}",
        f"n_devices {analytics.n_devices}",
        f"n_events {analytics.n_events}",
        f"dropped {analytics.dropped}",
    ]
    for name in ("compute_busy", "cpu_busy", "swap_hold", "p2p_hold",
                 "overlap_time", "bubble_time"):
        values = getattr(analytics, name)
        lines.append(f"{name} " + ",".join(_hex(v) for v in values))
    for device, lanes in enumerate(analytics.stream_busy):
        lines.append(f"stream{device} " + ",".join(
            f"{lane}={_hex(busy)}" for lane, busy in lanes.items()))
    for link, c in analytics.link_contention.items():
        lines.append(f"link {link} {_hex(c.busy)} {_hex(c.contended)} "
                     f"{c.intervals}")
    return "\n".join(lines)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(model, mode, gpus, minibatch, *, iterations=1, fault_plan=None,
         recorder=None):
    harmony = Harmony(model, server_for(gpus), minibatch,
                      options=HarmonyOptions(mode=mode))
    recorder = recorder if recorder is not None else TraceRecorder()
    report = harmony.run(iterations=iterations, fault_plan=fault_plan,
                         trace=recorder)
    return report.metrics.trace, recorder


def _plain(model, mode, gpus, minibatch):
    def run():
        analytics, _ = _run(model, mode, gpus, minibatch)
        return analytics, None

    return run


def _chaos():
    analytics, recorder = _run(
        "toy-transformer", "pp", 2, 8, iterations=2,
        fault_plan=FaultPlan(FaultSpec.chaos(1.0), seed=2))
    events = recorder.events
    assert any(e.cat == "fault" for e in events)
    assert any(e.cat == "retry" for e in events)
    assert any(e.cat == "xfer" and e.nbytes == 0 for e in events)
    return analytics, recorder.canonical()


def _ring():
    analytics, recorder = _run("toy-transformer", "pp", 2, 8,
                               recorder=TraceRecorder(ring=64))
    assert recorder.dropped > 0
    return analytics, None


RUNS = {
    "toy-pp": _plain("toy-transformer", "pp", 2, 8),
    "toy-dp": _plain("toy-transformer", "dp", 2, 8),
    "gpt2-pp-x4-mb16": _plain("gpt2", "pp", 4, 16),
    "toy-pp-chaos": _chaos,
    "toy-pp-ring": _ring,
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_analytics_pinned(name):
    analytics, trace = RUNS[name]()
    lines = _analytics_lines(analytics)
    trace_digest = None if trace is None else _sha(trace)
    assert (_sha(lines), trace_digest) == DIGESTS[name], lines


def test_gpt2_pp_links_contend():
    """The gpt2 case is pinned for its contention; make sure it has some."""
    analytics, _ = _plain("gpt2", "pp", 4, 16)()
    assert analytics.contended_links
