"""Float reductions whose bits do not depend on the interpreter.

The simulator's facts are pinned by ``float.hex``, so a float reduction
must add in one fixed order.  Builtin ``sum`` does that up to Python
3.11, but from 3.12 on it compensates float sums (Neumaier), which
changes the last bits of about half of all sums.  :func:`ordered_sum` is
the plain left-to-right fold: on 3.10 and 3.11 it is bit-identical to
``sum``, and it stays the same on every later interpreter.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Iterable

__all__ = ["ordered_sum"]


def ordered_sum(values: Iterable[float]) -> float:
    """``((0.0 + v0) + v1) + ...``: the sum of ``values``, left to right."""
    return reduce(add, values, 0.0)
