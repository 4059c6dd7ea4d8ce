"""Per-GPU LRU memory virtualization (the IBM-LMS stand-in).

This is the mechanism the *baselines* rely on: each GPU, in isolation,
transparently swaps tensors to host memory when its working set exceeds
capacity.  Given the sequence of tensor touches a schedule performs, the
manager decides -- deterministically -- which touches hit residency and
which require a swap-in (plus evictions to make room).

Running a schedule's touch trace through this policy is how the baseline
planners derive their swap moves; it reproduces the four inefficiencies of
Section 2 (repeated, unnecessary, CPU-only, and unbalanced swaps) without
hand-coding the volumes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.common.errors import GpuOutOfMemoryError


@dataclass(frozen=True)
class SwapDecision:
    """Outcome of touching one tensor.

    ``swap_in_bytes`` is what must come over PCIe for this touch; every
    evicted tensor adds its size to ``swap_out_bytes`` of write-back
    traffic.
    """

    key: str
    hit: bool
    swap_in_bytes: int
    swap_out_bytes: int
    evicted: tuple[str, ...] = ()


@dataclass
class _Resident:
    nbytes: int
    dirty: bool = False


class LruSwapManager:
    """Least-recently-used virtualization of one GPU's memory.

    Like IBM-LMS, eviction *moves* a tensor to host -- clean copies
    included, rather than dropping them -- the behaviour behind the
    paper's ``(4m+2)N|W|`` DP-Swap weight volume.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise GpuOutOfMemoryError("swap manager needs positive capacity")
        self.capacity = capacity
        self.used = 0
        self._lru: OrderedDict[str, _Resident] = OrderedDict()
        self.total_swap_in = 0
        self.total_swap_out = 0
        self.hits = 0
        self.misses = 0

    # -- policy --------------------------------------------------------------

    def touch(self, key: str, nbytes: int,
              write: bool = False) -> SwapDecision:
        """Access tensor ``key``; swap it in (evicting LRU victims) if absent.

        ``write=True`` marks the resident copy dirty, so a later
        :meth:`flush` writes it back.
        """
        if nbytes > self.capacity:
            raise GpuOutOfMemoryError(
                f"tensor {key!r} ({nbytes} B) exceeds GPU capacity "
                f"({self.capacity} B); no virtualization can help"
            )
        if key in self._lru:
            entry = self._lru[key]
            self._lru.move_to_end(key)
            entry.dirty = entry.dirty or write
            self.hits += 1
            return SwapDecision(key=key, hit=True, swap_in_bytes=0, swap_out_bytes=0)

        evicted, out_bytes = self._make_room(nbytes)
        self._lru[key] = _Resident(nbytes=nbytes, dirty=write)
        self.used += nbytes
        self.misses += 1
        self.total_swap_in += nbytes
        return SwapDecision(
            key=key,
            hit=False,
            swap_in_bytes=nbytes,
            swap_out_bytes=out_bytes,
            evicted=tuple(evicted),
        )

    def produce(self, key: str, nbytes: int) -> SwapDecision:
        """A tensor freshly created on the GPU (no swap-in cost), dirty."""
        if key in self._lru:
            self.discard(key)
        evicted, out_bytes = self._make_room(nbytes)
        self._lru[key] = _Resident(nbytes=nbytes, dirty=True)
        self.used += nbytes
        return SwapDecision(
            key=key, hit=True, swap_in_bytes=0, swap_out_bytes=out_bytes,
            evicted=tuple(evicted),
        )

    def discard(self, key: str) -> None:
        """Drop a tensor without write-back (it is dead, e.g. freed grad)."""
        entry = self._lru.pop(key, None)
        if entry is not None:
            self.used -= entry.nbytes

    def flush(self, key: str) -> int:
        """Write a dirty tensor back to host; returns bytes moved."""
        entry = self._lru.get(key)
        if entry is None or not entry.dirty:
            return 0
        entry.dirty = False
        self.total_swap_out += entry.nbytes
        return entry.nbytes

    def resident(self, key: str) -> bool:
        return key in self._lru

    # -- internals -------------------------------------------------------------

    def _make_room(self, nbytes: int) -> tuple[list[str], int]:
        evicted: list[str] = []
        out_bytes = 0
        while self.used + nbytes > self.capacity:
            victim, entry = self._lru.popitem(last=False)
            self.used -= entry.nbytes
            out_bytes += entry.nbytes
            self.total_swap_out += entry.nbytes
            evicted.append(victim)
        return evicted, out_bytes
