"""The typed trace event record and its taxonomy.

Every event is either a *span* (``t0 <= t1``: an interval during which a
stream op ran, a transfer held its links, a kernel computed, a migration
move was in flight) or an *instant* (``t0 == t1``: a fault delivery, a
retry, a task-lifecycle tick, a rebind/replan/restart decision).

Categories (``cat``):

========== ======= ====================================================
category   kind    meaning
========== ======= ====================================================
stream     span    one queued op on a CUDA-stream analog (queue view:
                   includes time the op spent waiting inside)
xfer       span    one link-path hold by a transfer (busy view; the
                   ``links`` meta names the hops, ``wait`` the queueing
                   delay before acquisition, faulted holds move 0 bytes)
compute    span    one kernel-group / weight-update attempt's busy time
migration  span    one elastic state-migration move
fault      instant a fault delivery by the chaos injector (name is the
                   :class:`~repro.faults.plan.FaultKind` value)
retry      instant a recovery retry (``transfer`` or ``compute``)
fallback   instant a p2p -> host-staged reroute decision
task       instant task lifecycle: ``mb<i>`` / ``done`` / ``flushed``
rebind     instant a late-binding device rescue at an iteration boundary
replan     instant an elastic re-plan on a survivor subset
restart    instant an iteration-boundary checkpoint restart
service    span    one service request's arrival -> resolution window;
                   instants mark arrivals, planner crashes/timeouts and
                   breaker denials (:mod:`repro.service`)
cluster    span    one per-server compute phase of a cluster iteration;
                   instants mark cluster-level control and fault events
                   (server crash, partition stall/heal, cluster replan,
                   stage shrink, replica restore) -- :mod:`repro.cluster`
fleet      span    one fleet reservation's placement -> release window
                   (meta names the server, devices and bind kind);
                   instants mark placement decisions -- :mod:`repro.fleet`
========== ======= ====================================================

Lanes (``lane``) name the per-device track an event belongs to: the five
stream names (``compute``, ``swap_in``, ``swap_out``, ``p2p_in``,
``p2p_out``), ``cpu`` for host-offloaded updates, ``run`` for run-level
control events (rebind/replan/restart), ``service`` for planning-daemon
request lifecycles, ``cluster`` for cross-server traffic and control
(device ``-1``: the fabric is nobody's GPU), or ``fleet`` for the
multi-tenant placer's capacity holds.  Cross-server ``xfer`` spans
ride the ``cluster`` lane so they never pollute per-server swap/p2p byte
reconciliation.
"""

from __future__ import annotations

from typing import NamedTuple

#: Lanes the per-device timeline knows about, in display order.
LANES = ("compute", "swap_in", "swap_out", "p2p_in", "p2p_out", "cpu", "run",
         "migration", "service", "cluster", "fleet")


class TraceEvent(NamedTuple):
    """One timeline event.  Immutable; ``meta`` is a sorted k/v tuple.

    A named tuple rather than a frozen dataclass: the recorder builds one
    per surviving event each time its events are read, and a tuple is
    filled in one allocation where a frozen dataclass pays
    ``object.__setattr__`` for every field.  Fields stay read-only
    (assignment raises ``AttributeError``); ``_replace`` makes a modified
    copy.
    """

    kind: str                  # "span" | "instant"
    cat: str                   # taxonomy above
    name: str                  # human label (move label, task label, ...)
    t0: float                  # virtual seconds (recorder base applied)
    t1: float                  # == t0 for instants
    device: int = -1           # owning GPU, -1 for host/run-level
    lane: str = ""             # track within the device
    tid: int = -1              # task id, -1 when not task-scoped
    nbytes: int = 0            # bytes actually moved (0 for faulted holds)
    seq: int = 0               # recorder-assigned global sequence number
    meta: tuple = ()           # extra ((key, value), ...), sorted by key

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def meta_dict(self) -> dict:
        return dict(self.meta)

    def canonical(self) -> str:
        """A stable one-line form (golden traces diff these)."""
        return canonical_line(*self[:9], self.meta)


def canonical_line(kind: str, cat: str, name: str, t0: float, t1: float,
                   device: int, lane: str, tid: int, nbytes: int,
                   meta) -> str:
    """The canonical line of an event's fields (``seq`` is not part of it)
    and its key-sorted ``meta`` pairs.

    Times use ``repr`` (shortest round-trip float form, stable since
    CPython 3.1) so the line is bit-stable across runs and versions as
    long as the simulation itself is deterministic.
    """
    items = ",".join([f"{k}={v}" for k, v in meta]) if meta else ""
    return (f"{kind}|{cat}|{name}|dev{device}|{lane}|t{tid}|{nbytes}|"
            f"{t0!r}|{t1!r}|{items}")
