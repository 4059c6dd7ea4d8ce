"""Content-addressed plan cache with near-spec (stale) lookup.

Entries are keyed by :func:`repro.core.harmony.plan_key`, the one content
address every plan memo uses: a digest of the full model content (every
layer's costs and the edge list, the optimizer, sample bytes -- not the
name), the server spec, the minibatch, and every search + schedule
setting plus the seed.  Two requests with the same key share a plan
across tenants and across time; a request differing in *any* of those
misses (the cross-request correctness tests enumerate them).

Each entry is a :class:`PlanRecord`: the plan plus every fact the daemon
derives from it.  Eviction is LRU over a fixed capacity and drops the
whole record, so the capacity bounds what the service keeps per plan.

For the degradation ladder the cache also indexes records by *family*
-- the same key without the server (:func:`family_key`) -- so a
breaker-open request can be served a **near-spec** plan: a cached plan
for the same workload on *fewer* devices, which the daemon packs into the
requested device range with :meth:`repro.virt.DeviceBinding.pack` (the
plan's devices keep their ids; the graph's range widens).  An evicted
record leaves its family index too, so a near-spec lookup can never
resurrect it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.harmony import HarmonyOptions, plan_key
from repro.models.spec import ModelSpec


def family_key(model: ModelSpec, minibatch: int,
               options: HarmonyOptions) -> str:
    """The near-spec grouping: same workload, any server size."""
    return plan_key(model, None, minibatch, options)


@dataclass(eq=False)
class PlanRecord:
    """One cached plan and the facts derived from it."""

    key: str
    family: str
    n_gpus: int
    plan: Any = field(repr=False)
    #: binding fingerprint -> certification verdict
    verdicts: dict[str, bool] = field(default_factory=dict, repr=False)
    #: simulated iteration seconds; None until a run request needs them
    run_seconds: Optional[float] = None


class PlanCache:
    """LRU cache of plan records plus the per-family near-spec index."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._records: OrderedDict[str, PlanRecord] = OrderedDict()
        #: family -> {key: record} for surviving records
        self._families: dict[str, dict[str, PlanRecord]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._records)

    def get(self, key: str) -> Optional[PlanRecord]:
        """Exact lookup; counts hit/miss and refreshes LRU order."""
        record = self._records.get(key)
        if record is None:
            self.misses += 1
            return None
        self._records.move_to_end(key)
        self.hits += 1
        return record

    def put(self, key: str, plan: Any, family: str,
            n_gpus: int) -> PlanRecord:
        """Insert a plan and return its record; evicts LRU past capacity.
        Re-putting a live key replaces its plan and keeps its facts."""
        record = self._records.get(key)
        if record is not None:
            self._records.move_to_end(key)
            record.plan = plan
            return record
        record = self._records[key] = PlanRecord(key, family, n_gpus, plan)
        self._families.setdefault(family, {})[key] = record
        if len(self._records) > self.capacity:
            _, evicted = self._records.popitem(last=False)
            self.evictions += 1
            members = self._families[evicted.family]
            del members[evicted.key]
            if not members:
                del self._families[evicted.family]
        return record

    def near(self, family: str, gpus: int,
             exclude: str = "") -> Optional[PlanRecord]:
        """Best near-spec record: the largest cached plan of this family
        with ``n_gpus <= gpus`` (its graph packs in place into the
        requested device range; a *larger* plan never fits), or None.
        ``exclude`` skips the exact key already probed, and ties break
        on the lexically smallest key so the choice is deterministic.
        """
        best = min(
            ((-record.n_gpus, key)
             for key, record in self._families.get(family, {}).items()
             if key != exclude and record.n_gpus <= gpus),
            default=None,
        )
        if best is None:
            return None
        self._records.move_to_end(best[1])
        return self._records[best[1]]
