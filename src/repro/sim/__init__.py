"""Discrete-event simulation substrate.

This package is the stand-in for the CUDA runtime the paper builds on:

- :class:`~repro.sim.engine.Simulator` -- the event loop; processes are
  Python generators that yield :class:`~repro.sim.engine.SimEvent` objects.
- :class:`~repro.sim.stream.Stream` -- a serial in-order work queue, the
  analog of a CUDA stream; :class:`~repro.sim.stream.StreamEvent` mirrors
  ``cudaEvent`` for cross-stream synchronization.
- :class:`~repro.sim.links.Link` -- a bandwidth-arbitrated interconnect
  link; :func:`~repro.sim.links.transfer` moves bytes over a
  :class:`~repro.sim.links.Route`, a path of links.
"""

from repro.sim.engine import Simulator, SimEvent, Timeout, Process, AllOf, Resource
from repro.sim.stream import Stream
from repro.sim.links import Link, Route, transfer

__all__ = [
    "Simulator",
    "SimEvent",
    "Timeout",
    "Process",
    "AllOf",
    "Resource",
    "Stream",
    "Link",
    "Route",
    "transfer",
]
