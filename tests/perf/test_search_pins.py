"""Pins every configuration Algorithm 1 explores, with its exact estimate.

``bench/golden.json`` and the work-count gate see only a search's winner
and its candidate count, so a change to packing (Algorithm 2), graph
assembly or the Runtime Estimator could move a losing candidate's score,
or swap one candidate for another, without either noticing.  For each
problem, ``tests/golden/search/<problem>.txt`` holds the feasible /
infeasible counts and every explored
``u_f|packs_f|u_b|packs_b|float.hex(estimate)`` in enumeration order.

A speed-up of the planner must leave every file unchanged; a deliberate
change to the search or the cost model shows which candidates moved.
"""

import pytest

from tests.goldens import SEARCH, check


@pytest.mark.parametrize("problem", SEARCH.cases)
def test_explored_search_is_pinned(problem):
    check(SEARCH, problem)
