"""One seeded-chaos mechanism for the three fault-plan families.

The runtime (:mod:`repro.faults.plan`), the cluster
(:mod:`repro.cluster.faults`) and the planning service
(:mod:`repro.service.chaos`) each inject faults through a frozen
:class:`ChaosSpec` of rates, a :class:`ChaosPlan` binding it to a seed,
and a :class:`Scripted` plan that spells decisions out.  Every decision
is a stateless hash of ``(seed, *labels)``, never dependent on the order
questions are asked in, so a chaos run reproduces from its seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Generic, TypeVar

from repro.common.rng import unit


def _kind(name: str, accepts: Callable[[float], bool],
          bounds: str) -> Callable[..., Any]:
    def declare(default: float = 0.0) -> Any:
        return field(default=default, metadata={
            "chaos": name, "accepts": accepts, "bounds": bounds,
        })
    return declare


#: The kinds a spec field declares, with the range each accepts.  Only a
#: rate enables a spec; a probability shapes a fault without enabling one.
rate = _kind("rate", lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
probability = _kind("probability", lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
factor = _kind("factor", lambda v: 0.0 < v <= 1.0, "in (0, 1]")
multiplier = _kind("multiplier", lambda v: v >= 1.0, ">= 1")
interval = _kind("interval", lambda v: v > 0, "positive")

SpecT = TypeVar("SpecT", bound="ChaosSpec")


@dataclass(frozen=True)
class ChaosSpec:
    """Base of the fault specs.  Each field declares its kind with
    :func:`rate`, :func:`probability`, :func:`factor`, :func:`multiplier`
    or :func:`interval`; validation, ``any_enabled``, ``none()`` and
    ``describe()`` follow from those declarations."""

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if "accepts" in f.metadata and not f.metadata["accepts"](value):
                raise ValueError(
                    f"{f.name} must be {f.metadata['bounds']}, got {value}"
                )

    @property
    def any_enabled(self) -> bool:
        """Does any rate (of this spec or a nested one) exceed zero?"""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, ChaosSpec):
                if value.any_enabled:
                    return True
            elif f.metadata.get("chaos") == "rate" and value > 0.0:
                return True
        return False

    @classmethod
    def none(cls: type[SpecT]) -> SpecT:
        """All faults off (the zero-overhead baseline)."""
        return cls()

    @staticmethod
    def scaled(intensity: float) -> Callable[[float], float]:
        """The presets' rate scaling: ``r -> min(1, r * intensity)``."""
        if intensity < 0:
            raise ValueError(f"intensity must be >= 0, got {intensity}")
        return lambda r: min(1.0, r * intensity)

    def describe(self) -> str:
        """``Name(field=value, ...)`` over the fields off their default,
        or ``Name(off)``; a nested spec shows only when it is enabled."""
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, ChaosSpec):
                if value.any_enabled:
                    parts.append(f"{f.name}={value.describe()}")
            elif value != f.default:
                parts.append(f"{f.name}={value:g}")
        name = type(self).__name__
        return f"{name}({', '.join(parts)})" if parts else f"{name}(off)"


class ChaosPlan(Generic[SpecT]):
    """A spec bound to a seed; :meth:`draw` is the package's one fault
    draw (``python -m repro.lint`` keeps it so)."""

    def __init__(self, spec: SpecT, seed: int = 0):
        self.spec = spec
        self.seed = seed

    @property
    def enabled(self) -> bool:
        """False for an all-faults-disabled plan (zero-overhead mode)."""
        return self.spec.any_enabled

    def draw(self, *labels: object) -> float:
        """The stateless draw for ``labels`` under this seed, in [0, 1)."""
        return unit(self.seed, *labels)

    def hit(self, rate: float, *labels: object) -> bool:
        """Does the event named by ``labels`` fire at ``rate``?"""
        return self.draw(*labels) < rate

    def scale(self, rate: float, factor: float, *labels: object) -> float:
        """``factor`` if the event named by ``labels`` fires, else 1.0."""
        return factor if self.hit(rate, *labels) else 1.0

    def describe(self) -> str:
        # Named after the family (the class right below ChaosPlan), so a
        # scripted plan describes itself like the seeded one.
        family = next(c for c in type(self).__mro__
                      if ChaosPlan in c.__bases__)
        return f"{family.__name__}(seed={self.seed}, {self.spec.describe()})"


class Scripted:
    """Mixin of scripted plans: every instance attribute besides ``spec``
    and ``seed`` is a script, consulted before the seeded draw."""

    spec: ChaosSpec

    @property
    def enabled(self) -> bool:
        scripts = (v for k, v in vars(self).items()
                   if k not in ("spec", "seed"))
        return any(scripts) or self.spec.any_enabled
