#!/usr/bin/env python3
"""Net line change of ``src/repro`` between two git refs.

Prints the total line count of the files git tracks under ``src/repro``
at the parent ref and at the change, their difference, and the added
and removed lines ``git diff --numstat`` reports between the two.
Without a change ref the working tree is counted: tracked files as they
are on disk, with staged new files included (``git add`` a new file
first, or it is not counted).

Usage (from anywhere inside the repository)::

    python3 scripts/net_lines.py 44d1179          # parent vs working tree
    python3 scripts/net_lines.py 44d1179 HEAD     # parent vs a commit
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple, Optional

PACKAGE = "src/repro"


class NetLines(NamedTuple):
    parent_lines: int
    change_lines: int
    added: int
    removed: int

    @property
    def net(self) -> int:
        return self.change_lines - self.parent_lines


def _git(repo: Path, *args: str, stdin: Optional[bytes] = None) -> bytes:
    return subprocess.run(["git", *args], cwd=repo, input=stdin,
                          capture_output=True, check=True).stdout


def count_lines(repo: Path, ref: Optional[str] = None) -> int:
    """Newlines in every tracked file under ``src/repro`` at ``ref`` (the
    working tree when None), as ``wc -l`` counts them."""
    if ref is None:
        paths = _git(repo, "ls-files", "-z", "--", PACKAGE).split(b"\0")
        files = [repo / p.decode() for p in paths if p]
        return sum(f.read_bytes().count(b"\n") for f in files if f.exists())
    paths = _git(repo, "ls-tree", "-r", "-z", "--name-only", ref, "--",
                 PACKAGE).split(b"\0")
    batch = _git(repo, "cat-file", "--batch", stdin=b"".join(
        f"{ref}:".encode() + p + b"\n" for p in paths if p))
    total, at = 0, 0
    while at < len(batch):
        header_end = batch.index(b"\n", at)
        size = int(batch[at:header_end].split()[2])
        total += batch[header_end + 1:header_end + 1 + size].count(b"\n")
        at = header_end + 1 + size + 1  # the blob and its trailing newline
    return total


def numstat(repo: Path, parent: str,
            change: Optional[str] = None) -> tuple[int, int]:
    """Added and removed lines under ``src/repro`` (binary files count
    for nothing, as ``git diff --numstat`` prints them as ``-``)."""
    refs = [parent] if change is None else [parent, change]
    out = _git(repo, "diff", "--numstat", *refs, "--", PACKAGE).decode()
    added = removed = 0
    for line in out.splitlines():
        plus, minus, _path = line.split("\t", 2)
        if plus != "-":
            added += int(plus)
            removed += int(minus)
    return added, removed


def net_lines(repo: Path, parent: str,
              change: Optional[str] = None) -> NetLines:
    added, removed = numstat(repo, parent, change)
    return NetLines(count_lines(repo, parent), count_lines(repo, change),
                    added, removed)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent commit or ref")
    parser.add_argument("change", nargs="?", default=None,
                        help="the change's commit or ref (default: the "
                             "working tree)")
    args = parser.parse_args(argv)
    repo = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel")
                .decode().strip())
    result = net_lines(repo, args.parent, args.change)
    change = args.change or "working tree"
    print(f"{PACKAGE}: {result.parent_lines} lines at {args.parent}, "
          f"{result.change_lines} at {change} (net {result.net:+d})")
    print(f"git diff --numstat: +{result.added}/−{result.removed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
