#!/usr/bin/env python3
"""Rewrite every golden file under ``tests/golden/`` from a fresh recording.

Every family of golden files (the CLI corpus, the golden traces and the
verdict, baseline-plan, phase, analytics, search and chaos pins)
declares its cases and its recording in ``tests/goldens.py``, which the
tests share.  This script records every case, writes its file, and
deletes any file under ``tests/golden/`` that no case owns.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/regen_golden.py

Regenerate only when a change legitimately moves a recording, review the
diff under ``tests/golden/``, and explain it with the change that moved
it.  Several goldens hold full-precision floats, so they are
CPU-dependent pins.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tests.goldens import regenerate  # noqa: E402

if __name__ == "__main__":
    regenerate()
