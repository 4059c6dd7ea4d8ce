"""Golden CLI corpus: every subcommand's exit code, stdout and ``--json``.

The corpus and the recording live in ``tests/goldens.py``
(:data:`~tests.goldens.CORPUS`), which the test and
``scripts/regen_golden.py`` share, so the test can never check a
different invocation than the one regeneration records.  The goldens are
``tests/golden/cli/NAME.out`` and, for an invocation that writes
``--json``, ``NAME.json``.
"""

import pytest

from tests.goldens import CLI, CLI_JSON, CORPUS, compare, run_cli


@pytest.mark.parametrize("name", CLI.cases)
def test_cli_matches_golden(name):
    out, text = run_cli(name)
    compare(CLI.path(name), out)
    if name in CLI_JSON.cases:
        compare(CLI_JSON.path(name), text)
    else:
        assert text is None


def test_corpus_covers_every_subcommand():
    from repro.cli import _build_parser

    commands = {argv[0] for argv in CORPUS.values()}
    subparsers = _build_parser()._subparsers._group_actions[0].choices
    assert commands == set(subparsers)
