"""Golden-trace regression for the heterogeneous bind.

The toy transformer planned for 4 logical GPUs, bound onto 2 fast + 2
slow physical devices, must replay the exact timeline pinned in
``tests/golden/trace/toy-transformer-pp-hetero.trace`` (recorded by
``tests/goldens.py``, like the plain golden traces), so a timing-rescale
change surfaces as a reviewable golden diff, never a silent drift.
"""

from tests.goldens import HETERO, HETERO_GPUS, TRACE, check, traced_run


def test_hetero_trace_matches_golden():
    check(TRACE, HETERO)


def test_hetero_recording_is_deterministic():
    assert TRACE.record(HETERO) == TRACE.record(HETERO)


def test_hetero_golden_is_canonical_lines():
    for line in TRACE.path(HETERO).read_text().splitlines():
        fields = line.split("|", 9)
        assert fields[0] in ("span", "instant"), line
        assert len(fields) == 10, line


def test_hetero_golden_differs_from_homogeneous_timeline():
    """The rescale must actually show: the bound run's timeline is not
    the unbound 4-GPU run merely relabeled."""
    _, recorder = traced_run("toy-transformer", "pp", HETERO_GPUS)
    assert recorder.canonical() + "\n" != TRACE.path(HETERO).read_text()
