"""One content address for every memo key in the package.

A plan (or a bind, or a placement) is a pure function of its inputs, so
a memo is sound only if its key covers *all* of that content.  This
module is the one way keys are made: :func:`fingerprint` digests a
bit-stable canonical text of arbitrary nested dataclasses, tuples and
scalars -- floats render via ``float.hex`` so no two distinct values
ever share a key through rounding, and every dataclass field is walked,
so a key cannot silently summarize (e.g. aggregate totals in place of
per-layer costs).

The ``repro.lint`` rule ``hash/content-address`` keeps ``hashlib`` out
of every other module except :mod:`repro.common.rng`.
"""

from __future__ import annotations

import dataclasses
import hashlib

__all__ = ["fingerprint"]


def _canon(value: object) -> str:
    """Bit-stable canonical text for fingerprint material."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_canon(v) for v in value) + ")"
    if hasattr(value, "__dataclass_fields__"):
        parts = ",".join(
            f"{f.name}={_canon(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({parts})"
    return repr(value)


def fingerprint(*parts: object) -> str:
    """16-hex sha256 content address of ``parts``."""
    return hashlib.sha256(_canon(parts).encode()).hexdigest()[:16]
