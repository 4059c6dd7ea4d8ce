"""``scripts/net_lines.py``: ``src/repro`` line totals at two refs and the
``git diff --numstat`` sums between them, on a scratch repository."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "net_lines.py"
_spec = importlib.util.spec_from_file_location("net_lines", _SCRIPT)
net_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(net_lines)


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
         *args],
        cwd=repo, capture_output=True, check=True, text=True,
    ).stdout.strip()


def _write(repo: Path, path: str, text: str) -> None:
    target = repo / path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)


@pytest.fixture
def repo(tmp_path: Path) -> Path:
    """Two commits: ``parent`` and ``change`` (tagged)."""
    _git(tmp_path, "init", "-q")
    _write(tmp_path, "src/repro/a.py", "one\ntwo\nthree\n")
    _write(tmp_path, "src/repro/sub/b.py", "four\nfive\n")
    _write(tmp_path, "src/other.py", "not\ncounted\n")
    _write(tmp_path, "README", "outside\n")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "parent")
    _git(tmp_path, "tag", "parent")
    # a.py: one line replaced, one added; b.py deleted; c.py added with
    # no final newline (wc -l does not count that line).
    _write(tmp_path, "src/repro/a.py", "one\n2\nthree\nfour\n")
    (tmp_path / "src/repro/sub/b.py").unlink()
    _write(tmp_path, "src/repro/c.py", "x\ny\nz")
    _write(tmp_path, "src/other.py", "still\nnot\ncounted\n")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "change")
    _git(tmp_path, "tag", "change")
    return tmp_path


def test_totals_at_each_ref(repo):
    assert net_lines.count_lines(repo, "parent") == 5
    assert net_lines.count_lines(repo, "change") == 6


def test_numstat_sums_added_and_removed(repo):
    # a.py +2/-1, b.py +0/-2, c.py +3/-0.
    assert net_lines.numstat(repo, "parent", "change") == (5, 3)


def test_working_tree_counts_edits_and_staged_files(repo):
    _write(repo, "src/repro/a.py", "one\n")                # -3 lines
    _write(repo, "src/repro/d.py", "new\nfile\n")          # staged: +2
    _write(repo, "src/repro/untracked.py", "ignored\n")    # not counted
    _git(repo, "add", "src/repro/d.py")
    result = net_lines.net_lines(repo, "change")
    assert result == (6, 5, 2, 3)
    assert result.net == -1


def test_binary_files_count_for_nothing(repo):
    (repo / "src/repro/blob.bin").write_bytes(b"\0\1\2\n")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "binary")
    assert net_lines.numstat(repo, "change", "HEAD") == (0, 0)


def test_main_prints_both_totals_and_the_numstat(repo, monkeypatch,
                                                  capsys):
    monkeypatch.chdir(repo / "src")
    assert net_lines.main(["parent", "change"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "src/repro: 5 lines at parent, 6 at change (net +1)",
        "git diff --numstat: +5/−3",
    ]
