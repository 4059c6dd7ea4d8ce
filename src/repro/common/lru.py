"""The bounded least-recently-used lookup behind the process-wide stores."""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

__all__ = ["lru_get"]

_K = TypeVar("_K", bound=Hashable)
_V = TypeVar("_V")


def lru_get(store: OrderedDict[_K, _V], key: _K,
            make: Callable[[], _V], bound: int) -> _V:
    """``store[key]``, made by ``make()`` on a miss.  A hit becomes the
    most recently used entry; past ``bound`` entries a miss evicts the
    least recently used one."""
    value = store.get(key)
    if value is None:
        value = store[key] = make()
        if len(store) > bound:
            store.popitem(last=False)
    else:
        store.move_to_end(key)
    return value
