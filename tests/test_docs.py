"""The docs name files and objects that exist.

Every backticked path in the tables of DESIGN.md §3 (system inventory)
and §4 (per-experiment index) must resolve in the repository, and so
must every ``scripts/*.py`` that README.md, DESIGN.md or the verify
skill names in code (inline or fenced), so a rename or deletion that
leaves a document stale fails the tier-1 suite.

A path resolves against the repository root, ``src/`` or ``src/repro/``
(the tables abbreviate ``repro/sim/stream.py`` as ``sim/stream.py``).  A
bare file name such as ``gpipe_swap.py`` lives next to the path before it
in the same cell.  ``*`` globs and ``{a,b}`` alternatives must each match
at least one file.  Backticked text that is not path-like (an identifier
such as ``nvlink_bandwidth``, a call, a command line) is skipped.

Every Sphinx cross-reference (``:func:``, ``:class:``, ``:meth:``,
``:mod:``, ``:attr:``, ``:data:``, ``:exc:``) to a ``repro.`` target in
the package's source must resolve: the longest importable module prefix,
then ``getattr`` for the rest, where the last name may also be a
dataclass field.
"""

from __future__ import annotations

import dataclasses
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DESIGN = ROOT / "DESIGN.md"
BASES = (ROOT, ROOT / "src", ROOT / "src" / "repro")
SECTIONS = ("## 3.", "## 4.")
SCRIPT_DOCS = ("README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md")
SCRIPT = re.compile(r"(?<![\w/.])scripts/[\w/.-]+\.py\b")
XREF = re.compile(r":(?:func|class|meth|mod|attr|data|exc):"
                  r"`~?(repro(?:\.\w+)+)(?:\(\))?`")


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


def _script_paths(text: str) -> set[str]:
    """The ``scripts/*.py`` paths ``text`` names in inline code spans and
    fenced code blocks."""
    chunks = text.split("```")
    spans = chunks[1::2] + [span for prose in chunks[0::2]
                            for span in re.findall(r"`([^`]+)`", prose)]
    return {path for span in spans for path in SCRIPT.findall(span)}


def _documented_scripts() -> list[tuple[str, str]]:
    return sorted((doc, path) for doc in SCRIPT_DOCS
                  for path in _script_paths((ROOT / doc).read_text()))


@pytest.mark.parametrize("doc, path", _documented_scripts(),
                         ids=lambda value: value)
def test_documented_script_exists(doc, path):
    assert (ROOT / path).is_file(), f"{doc} names missing `{path}`"


def test_script_parser_finds_code_paths():
    """Guards the parser: it reads inline code and fenced blocks, not
    prose, and the docs name several scripts."""
    text = ("run `PYTHONPATH=src python scripts/a.py` or scripts/b.py\n"
            "```\npython3 scripts/c.py --x  # `make lint`\n```\n"
            "`scripts/d.py`")
    assert _script_paths(text) == {"scripts/a.py", "scripts/c.py",
                                   "scripts/d.py"}
    assert len({path for _, path in _documented_scripts()}) >= 3


def _source_references() -> list[tuple[str, str]]:
    """``(file, target)`` for every cross-reference to a ``repro.``
    target in ``src/repro``."""
    return sorted({(str(path.relative_to(ROOT)), target)
                   for path in (ROOT / "src" / "repro").rglob("*.py")
                   for target in XREF.findall(path.read_text())})


def _resolves_reference(target: str) -> bool:
    parts = target.split(".")
    cut = len(parts)
    while True:
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
            break
        except ImportError:
            cut -= 1
    for position, name in enumerate(parts[cut:], cut + 1):
        if hasattr(obj, name):
            obj = getattr(obj, name)
            continue
        return (position == len(parts) and dataclasses.is_dataclass(obj)
                and name in {f.name for f in dataclasses.fields(obj)})
    return True


def test_source_references_resolve():
    references = _source_references()
    assert len(references) >= 100  # guards the pattern
    broken = [f"{path}: {target}" for path, target in references
              if not _resolves_reference(target)]
    assert not broken, "stale cross-references:\n" + "\n".join(broken)


def test_reference_resolver_rejects_stale_names():
    """The check fails on the kinds of stale names it exists to catch,
    and accepts a dataclass field that has no class attribute."""
    for stale in ("repro.sim.stream.StreamEvent", "repro.nothing",
                  "repro.virt.DeviceBinding.missing",
                  "repro.core.types.Task.tid.real.missing"):
        assert not _resolves_reference(stale), stale
    for live in ("repro.virt", "repro.virt.DeviceBinding.apply",
                 "repro.core.types.Task.tid"):
        assert _resolves_reference(live), live
    text = (":class:`~repro.virt.DeviceBinding` and "
            ":meth:`repro.virt.DeviceBinding.pack()`, not :class:`Task`")
    assert XREF.findall(text) == ["repro.virt.DeviceBinding",
                                  "repro.virt.DeviceBinding.pack"]
