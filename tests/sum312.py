"""A port of CPython 3.12's builtin ``sum``, for emulating 3.12 on 3.11.

Python 3.12 made ``sum`` compensate float additions (Neumaier's variant
of Kahan summation, CPython gh-100425), so a float reduction written
with builtin ``sum`` can round differently on 3.12 than on 3.11.  This
module ports ``builtin_sum_impl`` from CPython 3.12's
``Python/bltinmodule.c`` path for path, so the 3.12 behaviour can be
swapped in for ``builtins.sum`` on an older interpreter:

- the *int path*: while the running total and every item are exact ints
  (or bools) inside a C ``long``, add them exactly; the first item that
  is not, or that would overflow, is added with ``+`` and ends the path;
- the *float path*: entered when the total (the start value, or what the
  int path left) is an exact float.  Exact float items are added with
  Neumaier compensation; int items inside a C ``long`` are converted and
  added without compensation; the compensation is applied when the
  items run out or an item of another type arrives, and only when it is
  nonzero and finite (keeping ``-0.0`` and infinities intact);
- the *fallback*: every remaining item is added with ``+``.

The C ``long`` bounds are those of a 64-bit Linux build.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

#: ``LONG_MIN`` / ``LONG_MAX`` of a 64-bit Linux build.
LONG_MIN = -(2**63)
LONG_MAX = 2**63 - 1

__all__ = ["sum312"]


def _in_long(value: int) -> bool:
    return LONG_MIN <= value <= LONG_MAX


def sum312(iterable: Iterable[Any], /, start: Any = 0) -> Any:
    """``sum(iterable, start)`` as CPython 3.12 computes it."""
    if isinstance(start, str):
        raise TypeError("sum() can't sum strings [use ''.join(seq) instead]")
    if isinstance(start, bytes):
        raise TypeError("sum() can't sum bytes [use b''.join(seq) instead]")
    if isinstance(start, bytearray):
        raise TypeError(
            "sum() can't sum bytearray [use b''.join(seq) instead]")
    items = iter(iterable)
    result = start

    if type(result) is int and _in_long(result):
        total = result
        for item in items:
            if type(item) in (int, bool) and _in_long(item) \
                    and _in_long(total + item):
                total += int(item)
                continue
            result = total + item
            break
        else:
            return total

    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and _in_long(item):
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total

    for item in items:
        result = result + item
    return result
