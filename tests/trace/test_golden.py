"""Golden-trace regression tests.

Seeded fault-free runs of the small zoo models must replay the exact
event sequence pinned in ``tests/golden/trace/<model>-<mode>.trace``.
The matrix and the recording live in ``tests/goldens.py``, which the
test and ``scripts/regen_golden.py`` share, so the test can never check
a different run than the one regeneration writes.
"""

import pytest

from tests.goldens import TRACE, TRACE_CELLS, check


@pytest.mark.parametrize("case", TRACE_CELLS)
def test_trace_matches_golden(case):
    check(TRACE, case)


def test_golden_matrix_covers_both_modes():
    models = {m for m, _ in TRACE_CELLS.values()}
    modes = {mode for _, mode in TRACE_CELLS.values()}
    assert len(models) >= 2 and modes == {"pp", "dp"}


def test_goldens_are_canonical_lines():
    """Every golden line parses as the pipe-separated canonical format."""
    for case in TRACE_CELLS:
        for line in TRACE.path(case).read_text().splitlines():
            fields = line.split("|", 9)
            assert fields[0] in ("span", "instant"), line
            assert len(fields) == 10, line
