"""Virtual devices: logical plans late-bound onto physical hardware.

``Harmony.plan`` targets *logical* GPUs; :func:`bind` maps the finished
plan onto a physical topology -- identical hardware (bit-identical
execution), fewer devices (deterministic time-slice multiplexing), or a
heterogeneous FLOPs/memory mix (rescaled timing, per-device capacity
re-certification).  See DESIGN.md §15.

    >>> from repro.virt import DeviceBinding
    >>> binding = DeviceBinding.heterogeneous([1.5, 1.5, 0.75, 0.75])
    >>> bound = harmony.bind(binding)          # doctest: +SKIP
    >>> harmony.run(plan=bound)                # doctest: +SKIP
"""

from repro.virt.bind import BoundPlan, bind
from repro.virt.devices import DeviceBinding, PhysicalDevice, VirtualTopology

__all__ = [
    "BoundPlan",
    "DeviceBinding",
    "PhysicalDevice",
    "VirtualTopology",
    "bind",
]
