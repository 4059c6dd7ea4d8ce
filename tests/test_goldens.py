"""The golden-file mechanism itself (:mod:`tests.goldens`).

Every file under ``tests/golden/`` belongs to a registered case and every
case has its file, so a golden left behind by a dropped case fails here.
A perturbed recording (here: the committed text, which every golden test
holds equal to a fresh one) fails :func:`~tests.goldens.compare` with
the golden's path and the differing line's old and new forms.
"""

import json
import math

import pytest

from tests.goldens import (
    FAMILIES,
    GOLDEN,
    ROOT,
    SEARCH,
    VERDICT,
    compare,
    json_text,
)


def test_goldens_cover_every_case():
    owned = {family.path(case) for family in FAMILIES
             for case in family.cases}
    present = {path for path in GOLDEN.rglob("*") if path.is_file()}
    assert [str(p.relative_to(ROOT)) for p in sorted(present - owned)] == []
    assert [str(p.relative_to(ROOT)) for p in sorted(owned - present)] == []


def test_one_ulp_names_the_explored_candidate():
    path = SEARCH.path(SEARCH.cases[-1])
    lines = path.read_text().split("\n")
    old = lines[3]
    head, estimate = old.rsplit("|", 1)
    bumped = float.fromhex(estimate)
    new = f"{head}|{math.nextafter(bumped, math.inf).hex()}"
    lines[3] = new
    with pytest.raises(AssertionError) as failure:
        compare(path, "\n".join(lines))
    message = str(failure.value)
    assert str(path.relative_to(ROOT)) in message
    assert f"\n-{old}\n" in message and f"\n+{new}\n" in message


def test_dropped_finding_names_its_line():
    path = VERDICT.path("inject/waw-race")
    text = path.read_text()
    verdict = json.loads(text)
    findings = next(p["findings"] for p in verdict["passes"]
                    if p["name"] == "lifetime")
    dropped = findings.pop()
    assert json.dumps(dropped) in text
    with pytest.raises(AssertionError) as failure:
        compare(path, json_text(verdict) + "\n")
    assert f"-    {json.dumps(dropped)}" in str(failure.value)
