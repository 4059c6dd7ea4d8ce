#!/usr/bin/env python3
"""Regenerate the golden CLI corpus under ``tests/golden/cli/``.

Each corpus entry is one ``repro`` invocation on the toy models, run
in-process.  Its golden is the exit code and stdout (``NAME.out``) and,
when the invocation writes ``--json``, the JSON text (``NAME.json``).
The temporary directory the JSON goes to reads ``<TMP>`` in both, and
the planner's wall-clock search time (``configs in 0.0s``) reads
``<WALL>``.  ``tests/test_cli_golden.py`` imports THIS file for the
corpus and the recording procedure, so test and regeneration can never
drift apart.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/regen_golden_cli.py

The JSON holds full-precision fitted floats, so the corpus is one of the
CPU-dependent pins.  Regenerate only when a change legitimately moves a
report, and explain every golden diff in the commit message.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path
from typing import Optional

#: Stands for the ``--json`` report path in an argv below.
JSON = "<JSON>"

_TOY = "toy-transformer"
_CHECK = ["check", _TOY, "--minibatch", "16"]
_BIND = ["bind", _TOY, "--minibatch", "16"]
_TRACE = ["trace", _TOY, "--minibatch", "8", "--gpus", "2"]
_CHAOS = ["chaos", _TOY, "--minibatch", "8", "--gpus", "2"]

#: name -> argv.
CORPUS = {
    "plan": ["plan", _TOY, "--minibatch", "8"],
    "run": ["run", _TOY, "--minibatch", "8", "--mode", "dp"],
    "check": _CHECK,
    "check-inject": _CHECK + ["--inject", "waw-race", "--json", JSON],
    "check-races-lifetime": _CHECK + ["--races", "--lifetime"],
    "check-json": _CHECK + ["--json", JSON],
    "bind-physical": _BIND + ["--physical", "2", "--run", "--json", JSON],
    "bind-hetero": _BIND + ["--hetero", "1.5,1.5,0.75,0.75", "--run",
                            "--json", JSON],
    "bind-rejected": _BIND + ["--memory-scales", "1.0,1.0,1.0,0.000001",
                              "--json", JSON],
    "trace-text": _TRACE + ["--text"],
    "trace-chaos": _TRACE + ["--chaos-seed", "1"],
    "chaos-crash": _CHAOS + ["--seed-base", "3", "--seeds", "2",
                             "--crash-rate", "0.25", "--json", JSON],
    "chaos-devices-lost": _CHAOS + ["--seeds", "2", "--iterations", "3",
                                    "--devices-lost", "1", "--json", JSON],
    "chaos-hetero": _CHAOS + ["--seeds", "2", "--iterations", "3",
                              "--hetero", "1.5,0.75", "--devices-lost", "1",
                              "--json", JSON],
    "chaos-servers-lost": _CHAOS + ["--servers", "3", "--seeds", "2",
                                    "--servers-lost", "1", "--iterations",
                                    "3", "--json", JSON],
    "chaos-partition": ["chaos", _TOY, "--minibatch", "9", "--gpus", "2",
                        "--mode", "dp", "--servers", "3", "--seeds", "1",
                        "--partition-at", "0.001", "--partition-for", "0.01",
                        "--iterations", "2", "--json", JSON],
    "serve-chaos": ["serve", "--requests", "40", "--chaos",
                    "--check-determinism", "--json", JSON],
    "serve-fleet": ["serve", "--requests", "30", "--fleet-servers", "2",
                    "--check-determinism", "--json", JSON],
    "experiment-fig07": ["experiment", "fig07", "--fast"],
}

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden" / "cli"

_WALL = re.compile(r"configs in \d+\.\ds\)")


def record(name: str, tmp: Path) -> tuple[str, Optional[str]]:
    """Run corpus entry ``name`` with its JSON under ``tmp``.

    Returns the ``.out`` text (exit code line, then stdout) and the JSON
    text, or None when the invocation wrote no JSON.
    """
    from repro.cli import main

    report = tmp / f"{name}.json"
    argv = [str(report) if arg == JSON else arg for arg in CORPUS[name]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out = _WALL.sub("configs in <WALL>s)", stdout.getvalue())
    text = report.read_text() if report.exists() else None
    return (
        f"exit {code}\n" + out.replace(str(tmp), "<TMP>"),
        None if text is None else text.replace(str(tmp), "<TMP>"),
    )


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in CORPUS:
            out, text = record(name, Path(tmp))
            (GOLDEN_DIR / f"{name}.out").write_text(out)
            if text is not None:
                (GOLDEN_DIR / f"{name}.json").write_text(text)
            print(f"recorded {name}")


if __name__ == "__main__":
    main()
