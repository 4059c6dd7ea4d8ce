"""Elastic re-planning: survive permanent device loss with no spare.

When recovery's cheap tricks run out -- retries exhausted, fallbacks
taken, no idle spare to rebind onto -- this package escalates: re-invoke
the full Harmony scheduler on the surviving device subset
(:mod:`repro.elastic.replanner`), relabel the fresh plan's logical
devices onto the surviving physical GPUs (a
:class:`~repro.virt.DeviceBinding`), and migrate the checkpointed
model/optimizer state from the old packing to the new one over the real
simulated links (:mod:`repro.elastic.migration`), so elasticity's cost
shows up in the run metrics instead of being teleported for free.
"""

from repro.elastic.migration import (
    MigrationMove,
    layer_ownership,
    plan_migration,
)
from repro.elastic.replanner import ElasticPlan, ElasticReplanner

__all__ = [
    "ElasticPlan",
    "ElasticReplanner",
    "MigrationMove",
    "layer_ownership",
    "plan_migration",
]
