"""Pins the analyzer's verdict on every graph family it certifies.

Each case analyzes one graph with every registered pass, and its golden
``tests/golden/verdict/<case>.json`` holds the canonical dump of the
report (:func:`tests.goldens.verdict`): per pass, its findings and their
messages, and every capacity certificate.  The cases cover the 24 bench
warm-up plans, the five LMS swap baselines on three models, four binds
of toy-transformer and every seeded defect of
:mod:`repro.analysis.inject`.  Any change to what the analyzer concludes
about one of these graphs shows as a diff of its file.
"""

import pytest

from tests.goldens import VERDICT, check


@pytest.mark.parametrize("case", VERDICT.cases)
def test_verdict_pinned(case):
    check(VERDICT, case)
