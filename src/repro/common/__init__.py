"""Shared helpers: units, errors, seeding and tiny utilities used across
subsystems."""

from repro.common.units import KiB, MiB, GiB, KB, MB, GB, fmt_bytes, fmt_time
from repro.common.rng import seeded_rng, spread, unit
from repro.common.floats import ordered_sum
from repro.common.errors import (
    ReproError,
    GpuOutOfMemoryError,
    HostOutOfMemoryError,
    InfeasibleConfigError,
    GraphError,
    SchedulingError,
    FaultError,
    TransferFaultError,
    TaskCrashError,
    GpuDegradedError,
    UnrecoveredFaultError,
)

__all__ = [
    "KiB",
    "MiB",
    "GiB",
    "KB",
    "MB",
    "GB",
    "fmt_bytes",
    "fmt_time",
    "seeded_rng",
    "spread",
    "unit",
    "ordered_sum",
    "ReproError",
    "GpuOutOfMemoryError",
    "HostOutOfMemoryError",
    "InfeasibleConfigError",
    "GraphError",
    "SchedulingError",
    "FaultError",
    "TransferFaultError",
    "TaskCrashError",
    "GpuDegradedError",
    "UnrecoveredFaultError",
]
