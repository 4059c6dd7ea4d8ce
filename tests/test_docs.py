"""DESIGN.md's module map and experiment index name files that exist.

Every backticked path in the tables of DESIGN.md §3 (system inventory)
and §4 (per-experiment index) must resolve in the repository, so a rename
or deletion that leaves the design document stale fails the tier-1 suite.

A path resolves against the repository root, ``src/`` or ``src/repro/``
(the tables abbreviate ``repro/sim/stream.py`` as ``sim/stream.py``).  A
bare file name such as ``gpipe_swap.py`` lives next to the path before it
in the same cell.  ``*`` globs and ``{a,b}`` alternatives must each match
at least one file.  Backticked text that is not path-like (an identifier
such as ``nvlink_bandwidth``, a call, a command line) is skipped.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DESIGN = ROOT / "DESIGN.md"
BASES = (ROOT, ROOT / "src", ROOT / "src" / "repro")
SECTIONS = ("## 3.", "## 4.")


def _section_rows(heading: str) -> list[str]:
    """The table rows of the DESIGN.md section starting with ``heading``."""
    rows = []
    inside = False
    for line in DESIGN.read_text().splitlines():
        if line.startswith("## "):
            inside = line.startswith(heading)
            continue
        if inside and line.startswith("|") and not line.startswith("|---"):
            rows.append(line)
    return rows


def _is_path(token: str) -> bool:
    if re.search(r"[\s()]", token):
        return False  # code or a command line, e.g. ``plan()/run()``
    return "/" in token or token.endswith(".py")


def _expand(pattern: str) -> list[str]:
    """``a/{b,c}.py`` -> ``[a/b.py, a/c.py]`` (one brace group at most)."""
    match = re.search(r"\{([^}]*)\}", pattern)
    if match is None:
        return [pattern]
    return [pattern[:match.start()] + choice + pattern[match.end():]
            for choice in match.group(1).split(",")]


def _resolves(path: str) -> bool:
    for base in BASES:
        if any(ch in path for ch in "*?["):
            if any(base.glob(path)):
                return True
        elif (base / path).exists():
            return True
    return False


def _cell_paths(cell: str) -> list[str]:
    """The concrete paths one table cell names, bare names resolved
    against the directory of the path before them."""
    paths = []
    directory = ""
    for token in re.findall(r"`([^`]+)`", cell):
        if not _is_path(token):
            continue
        for path in _expand(token):
            if "/" not in path and directory:
                path = f"{directory}/{path}"
            paths.append(path)
        directory = token.rsplit("/", 1)[0] if "/" in token else directory
    return paths


def _documented_paths() -> list[tuple[str, str]]:
    found = []
    for heading in SECTIONS:
        for row in _section_rows(heading):
            for cell in row.strip("|").split("|"):
                found.extend((heading, path) for path in _cell_paths(cell))
    return found


def test_tables_name_paths_at_all():
    """Guards the parser: both tables exist and name many paths."""
    found = _documented_paths()
    for heading in SECTIONS:
        assert sum(1 for h, _ in found if h == heading) >= 10, heading


@pytest.mark.parametrize(
    "heading, path",
    sorted(set(_documented_paths())),
    ids=lambda value: value,
)
def test_documented_path_exists(heading, path):
    assert _resolves(path), f"DESIGN.md {heading} names missing `{path}`"


def test_resolver_rejects_stale_names():
    """The check fails on the kinds of stale names it exists to catch."""
    for stale in ("memory/pool.py", "benchmarks/test_fig01.py",
                  "repro/numeric/tensor.py", "repro/nothing/*.py"):
        assert not _resolves(stale), stale
    cell = "`repro/baselines/dp_swap.py`, `gpipe_swap.py`, `missing.py`"
    assert _cell_paths(cell) == [
        "repro/baselines/dp_swap.py", "repro/baselines/gpipe_swap.py",
        "repro/baselines/missing.py",
    ]
    assert not _resolves("repro/baselines/missing.py")
    assert _expand("a/{b,c}.py") == ["a/b.py", "a/c.py"]
    assert not _is_path("Harmony(model).plan()/run()")
    assert not _is_path("repro plan/run")
