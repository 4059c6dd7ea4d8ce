"""Pins every figure :func:`repro.trace.analyze_trace` derives.

The golden traces pin the recorded event lines, but not the analytics
computed from them, so a change to how busy time, overlap, bubbles or
link contention are measured could move a reported figure without any
test noticing.  Each case runs one traced scenario; its golden
``tests/golden/analytics/<case>.txt`` holds ``float.hex`` of every
:class:`~repro.trace.TraceAnalytics` field, with each ``link_contention``
entry (busy, contended, intervals) in the dict's own order:

- the toy transformer, pp and dp, on 2 GPUs;
- gpt2 pp on 4 GPUs at minibatch 16, whose swaps contend for the shared
  PCIe uplinks;
- a seeded chaos run, whose faulted holds move no bytes and whose
  retries hold links again (the sha256 of its event lines is pinned too:
  the golden traces cover only fault-free and heterogeneous runs);
- a ring recorder that dropped events (the analytics still cover the
  whole run; only the event count and ``dropped`` differ from toy-pp).

Any change to what the analytics compute shows as a diff.
"""

import pytest

from tests.goldens import ANALYTICS, check, traced_run


@pytest.mark.parametrize("name", ANALYTICS.cases)
def test_analytics_pinned(name):
    check(ANALYTICS, name)


def test_gpt2_pp_links_contend():
    """The gpt2 case is pinned for its contention; make sure it has some."""
    analytics, _ = traced_run("gpt2", "pp", 4, 16)
    assert analytics.contended_links
