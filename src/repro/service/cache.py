"""Content-addressed plan cache with near-spec (stale) lookup.

Entries are keyed by :func:`repro.core.harmony.plan_key`, the one content
address every plan memo uses: a digest of the full model content (every
layer's costs and the edge list, the optimizer, sample bytes -- not the
name), the server spec, the minibatch, and every search + schedule
setting plus the seed.  Two requests with the same key share a plan
across tenants and across time; a request differing in *any* of those
misses (the cross-request correctness tests enumerate them).

For the degradation ladder the cache also indexes plans by *family* --
the same key without the server (:func:`family_key`) -- so a
breaker-open request can be served a **near-spec** plan: a cached plan
for the same workload on *fewer* devices, relabeled onto the requested
device range via :func:`repro.elastic.rebind.relabel_graph`.

Eviction is LRU over a fixed capacity; evicted plans leave their family
index too, so a near-spec lookup can never resurrect an evicted plan.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional

from repro.core.harmony import HarmonyOptions, plan_key
from repro.models.spec import ModelSpec


def family_key(model: ModelSpec, minibatch: int,
               options: HarmonyOptions) -> str:
    """The near-spec grouping: same workload, any server size."""
    return plan_key(model, None, minibatch, options)


class PlanCache:
    """LRU plan cache plus the per-family near-spec index."""

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._plans: OrderedDict[str, Any] = OrderedDict()
        #: family -> {key: n_gpus} for surviving entries
        self._families: dict[str, dict[str, int]] = {}
        #: key -> family, for eviction bookkeeping
        self._member_family: dict[str, str] = {}
        self.hits = 0
        self.misses = 0
        self.stale_hits = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, key: str) -> Optional[Any]:
        """Exact lookup; counts hit/miss and refreshes LRU order."""
        plan = self._plans.get(key)
        if plan is None:
            self.misses += 1
            return None
        self._plans.move_to_end(key)
        self.hits += 1
        return plan

    def put(self, key: str, plan: Any, *, family: Optional[str] = None,
            n_gpus: Optional[int] = None) -> None:
        """Insert (or refresh) a plan; evicts LRU past capacity."""
        if key in self._plans:
            self._plans.move_to_end(key)
            self._plans[key] = plan
            return
        self._plans[key] = plan
        if family is not None and n_gpus is not None:
            self._families.setdefault(family, {})[key] = n_gpus
            self._member_family[key] = family
        if self.capacity is not None and len(self._plans) > self.capacity:
            evicted, _ = self._plans.popitem(last=False)
            self.evictions += 1
            fam = self._member_family.pop(evicted, None)
            if fam is not None:
                members = self._families.get(fam)
                if members is not None:
                    members.pop(evicted, None)
                    if not members:
                        self._families.pop(fam, None)

    def near(self, family: str, gpus: int,
             exclude: str = "") -> Optional[tuple[int, str, Any]]:
        """Best near-spec entry: the largest cached plan of this family
        with ``n_gpus <= gpus`` (its graph relabels injectively onto the
        requested device range; a *larger* plan never fits).  Returns
        ``(n_gpus, key, plan)`` or None.  ``exclude`` skips the exact
        key already probed, and ties break on the lexically smallest key
        so the choice is deterministic.
        """
        members = self._families.get(family)
        if not members:
            return None
        candidates = sorted(
            (-n, key) for key, n in members.items()
            if key != exclude and n <= gpus and key in self._plans
        )
        if not candidates:
            return None
        n_gpus, key = -candidates[0][0], candidates[0][1]
        self.stale_hits += 1
        self._plans.move_to_end(key)
        return n_gpus, key, self._plans[key]
