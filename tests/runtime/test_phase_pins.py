"""Pins what every kind of simulated phase records and returns.

The golden traces pin only fault-free and heterogeneous runs, so a
change to how a restart attempt, a state migration, a cluster comm phase
or a baseline run is stitched together could move its timeline or its
counters without any test noticing.  Each case runs one such scenario on
the toy models; its golden ``tests/golden/phase/<case>.txt`` holds the
sha256 of the recorder's canonical event lines (traced cases), then
``float.hex`` of the iteration time, the global swap / p2p bytes, the
per-GPU counters, the recovery, elastic and cluster counters and the
cluster runner's per-network-link bytes.

Any change to what these phases record or return shows as a diff.
"""

import pytest

from tests.goldens import PHASE, check


@pytest.mark.parametrize("name", PHASE.cases)
def test_phase_pinned(name):
    check(PHASE, name)
