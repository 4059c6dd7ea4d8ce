"""Schema for ``BENCH_*.json`` reports, plus a dependency-free validator.

The benchmark harness promises machines (CI, the perf gate, dashboards) a
*stable* report shape; this module is the contract.  ``BENCH_SCHEMA`` is
the source of truth -- a JSON-Schema-style document restricted to the
subset of keywords :func:`validate` implements (type, properties,
required, additionalProperties, items, enum, minimum) -- and
``scripts/bench_schema.json`` is its checked-in JSON export, kept equal
by a regression test so external tooling can consume the schema without
importing Python.

Bump ``SCHEMA_VERSION`` whenever a field is added, removed or
re-interpreted; the perf gate refuses to compare reports across schema
versions.
"""

from __future__ import annotations

from typing import Any

SCHEMA_VERSION = 4

#: The service-throughput benchmark: one seeded request storm against
#: :class:`repro.service.PlannerService` (virtual latency/shed numbers
#: are deterministic; ``serve_seconds`` is the wall clock of simulating
#: the storm, the one number a hot-path regression moves).
_SERVICE_SCHEMA: dict[str, Any] = {
    "type": "object",
    "additionalProperties": False,
    "required": [
        "requests", "seed", "chaos_intensity", "serve_seconds",
        "requests_per_second", "cache_hit_rate", "shed_rate",
        "p50_latency_virtual", "p99_latency_virtual", "breaker_trips",
    ],
    "properties": {
        "requests": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "chaos_intensity": {"type": "number", "minimum": 0},
        # Wall seconds to serve the whole storm, min over repeats, after
        # any injected slowdown multiplier.
        "serve_seconds": {"type": "number", "minimum": 0},
        "requests_per_second": {"type": "number", "minimum": 0},
        # Deterministic virtual-time facts of the seeded storm.
        "cache_hit_rate": {"type": "number", "minimum": 0},
        "shed_rate": {"type": "number", "minimum": 0},
        "p50_latency_virtual": {"type": "number", "minimum": 0},
        "p99_latency_virtual": {"type": "number", "minimum": 0},
        "breaker_trips": {"type": "integer", "minimum": 0},
    },
}

#: The fleet co-placement benchmark: a clean seeded storm of mixed-width
#: mixed-share jobs co-placed onto a shared fleet
#: (:class:`repro.fleet.FleetPlacer` feeding the service's placement
#: rung).  ``serve_seconds`` is wall clock; everything else is a
#: deterministic virtual-time fact of the seeded storm.
_FLEET_SCHEMA: dict[str, Any] = {
    "type": "object",
    "additionalProperties": False,
    "required": [
        "requests", "seed", "servers", "gpus_per_server",
        "serve_seconds", "requests_per_second", "utilization",
        "placements", "identity", "partitioned", "timesliced",
        "certified", "rejections", "shed_no_capacity",
    ],
    "properties": {
        "requests": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "servers": {"type": "integer", "minimum": 1},
        "gpus_per_server": {"type": "integer", "minimum": 1},
        # Wall seconds to serve the whole storm, min over repeats, after
        # any injected slowdown multiplier.
        "serve_seconds": {"type": "number", "minimum": 0},
        "requests_per_second": {"type": "number", "minimum": 0},
        # Deterministic virtual-time facts of the seeded storm.
        "utilization": {"type": "number", "minimum": 0},
        "placements": {"type": "integer", "minimum": 0},
        "identity": {"type": "integer", "minimum": 0},
        "partitioned": {"type": "integer", "minimum": 0},
        "timesliced": {"type": "integer", "minimum": 0},
        "certified": {"type": "integer", "minimum": 0},
        "rejections": {"type": "integer", "minimum": 0},
        "shed_no_capacity": {"type": "integer", "minimum": 0},
    },
}

_CASE_SCHEMA: dict[str, Any] = {
    "type": "object",
    "additionalProperties": False,
    "required": [
        "model", "mode", "gpus", "minibatch", "iterations",
        "search_seconds", "plan_seconds", "run_seconds",
        "trace_seconds", "trace_overhead_seconds",
        "n_feasible", "n_infeasible", "n_tasks",
        "best_estimate", "iteration_time_sim",
    ],
    "properties": {
        "model": {"type": "string"},
        "mode": {"type": "string", "enum": ["pp", "dp"]},
        "gpus": {"type": "integer", "minimum": 1},
        "minibatch": {"type": "integer", "minimum": 1},
        "iterations": {"type": "integer", "minimum": 1},
        # Wall-clock seconds, min over repeats, after any injected
        # slowdown multiplier.
        "search_seconds": {"type": "number", "minimum": 0},
        "plan_seconds": {"type": "number", "minimum": 0},
        "run_seconds": {"type": "number", "minimum": 0},
        "trace_seconds": {"type": "number", "minimum": 0},
        "trace_overhead_seconds": {"type": "number", "minimum": 0},
        # Planner/simulator facts, for sanity-checking that two reports
        # actually measured the same work.
        "n_feasible": {"type": "integer", "minimum": 0},
        "n_infeasible": {"type": "integer", "minimum": 0},
        "n_tasks": {"type": "integer", "minimum": 1},
        "best_estimate": {"type": "number", "minimum": 0},
        "iteration_time_sim": {"type": "number", "minimum": 0},
    },
}

BENCH_SCHEMA: dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "Harmony reproduction benchmark report",
    "type": "object",
    "additionalProperties": False,
    "required": [
        "schema_version", "suite", "repeats", "calibration_seconds",
        "perf_disabled", "host", "cases", "service", "fleet",
    ],
    "properties": {
        "schema_version": {"type": "integer", "enum": [SCHEMA_VERSION]},
        "suite": {"type": "string"},
        "repeats": {"type": "integer", "minimum": 1},
        # Wall seconds of the fixed pure-Python calibration loop on the
        # measuring machine; the perf gate divides every timing by this,
        # so baselines compare across machines of different speeds.
        "calibration_seconds": {"type": "number", "minimum": 0},
        "perf_disabled": {"type": "boolean"},
        "injected_slowdown": {"type": "number", "minimum": 0},
        "host": {
            "type": "object",
            "additionalProperties": False,
            "required": ["python", "platform", "cpus"],
            "properties": {
                "python": {"type": "string"},
                "platform": {"type": "string"},
                "cpus": {"type": "integer", "minimum": 1},
            },
        },
        "cases": {"type": "array", "items": _CASE_SCHEMA},
        "service": _SERVICE_SCHEMA,
        "fleet": _FLEET_SCHEMA,
    },
}

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "integer": int,
    "number": (int, float),
}


def validate(instance: Any, schema: dict[str, Any] | None = None,
             path: str = "$") -> list[str]:
    """Validate ``instance`` against ``schema`` (default: BENCH_SCHEMA).

    Returns a list of human-readable error strings; empty means valid.
    Implements the keyword subset the bench schema uses -- intentionally
    not a general JSON-Schema engine (no new dependencies).
    """
    if schema is None:
        schema = BENCH_SCHEMA
    errors: list[str] = []

    expected = schema.get("type")
    if expected is not None:
        py_type = _TYPES[expected]
        ok = isinstance(instance, py_type)
        # bool is an int subclass in Python; JSON tells them apart.
        if ok and expected in ("integer", "number") and isinstance(instance, bool):
            ok = False
        if not ok:
            return [f"{path}: expected {expected}, got {type(instance).__name__}"]

    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not one of {schema['enum']!r}")

    if "minimum" in schema and isinstance(instance, (int, float)) \
            and not isinstance(instance, bool) and instance < schema["minimum"]:
        errors.append(f"{path}: {instance!r} below minimum {schema['minimum']}")

    if expected == "object":
        for req in schema.get("required", ()):
            if req not in instance:
                errors.append(f"{path}: missing required property {req!r}")
        props = schema.get("properties", {})
        if schema.get("additionalProperties", True) is False:
            for key in instance:
                if key not in props:
                    errors.append(f"{path}: unexpected property {key!r}")
        for key, sub in props.items():
            if key in instance:
                errors.extend(validate(instance[key], sub, f"{path}.{key}"))

    if expected == "array" and "items" in schema:
        for i, item in enumerate(instance):
            errors.extend(validate(item, schema["items"], f"{path}[{i}]"))

    return errors


def check_report(report: Any) -> None:
    """Raise ``ValueError`` listing every schema violation in ``report``."""
    errors = validate(report)
    if errors:
        raise ValueError(
            "bench report violates the schema:\n  " + "\n  ".join(errors)
        )
