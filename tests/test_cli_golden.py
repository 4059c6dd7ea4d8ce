"""Golden CLI corpus: every subcommand's exit code, stdout and ``--json``.

The corpus and the recording procedure live in
``scripts/regen_golden_cli.py`` -- imported here -- so the test can never
check a different invocation than the one the regeneration script
records.  If a change legitimately moves a report::

    PYTHONPATH=src python scripts/regen_golden_cli.py

and commit the refreshed goldens with the change that moved them.
"""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = (
    Path(__file__).resolve().parent.parent / "scripts" / "regen_golden_cli.py"
)
_spec = importlib.util.spec_from_file_location("regen_golden_cli", _SCRIPT)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.mark.parametrize("name", list(regen.CORPUS))
def test_cli_matches_golden(name, tmp_path):
    out, text = regen.record(name, tmp_path)
    assert out == (regen.GOLDEN_DIR / f"{name}.out").read_text()
    golden_json = regen.GOLDEN_DIR / f"{name}.json"
    if text is None:
        assert not golden_json.exists()
    else:
        assert text == golden_json.read_text()


def test_corpus_covers_every_subcommand():
    from repro.cli import _build_parser

    commands = {argv[0] for argv in regen.CORPUS.values()}
    subparsers = _build_parser()._subparsers._group_actions[0].choices
    assert commands == set(subparsers)
