"""GPU memory virtualization substrate.

- :mod:`~repro.memory.swap_manager` -- per-GPU LRU virtualization in the
  style of IBM-LMS; this is what the *baseline* schemes use and whose
  repeated/unnecessary/CPU-only/unbalanced swaps Section 2 dissects.
"""

from repro.memory.swap_manager import LruSwapManager, SwapDecision

__all__ = [
    "LruSwapManager",
    "SwapDecision",
]
