"""Training configurations: the four-tuple the Scheduler searches.

A configuration is ``(U_F, P_F, U_B, P_B)``: forward microbatch size and
layer packs, backward microbatch size and layer packs (Section 4.3.1).
Users specify only the minibatch size; everything else is found by the
Configuration Search Engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.common.errors import SchedulingError


@dataclass(frozen=True, order=True)
class Pack:
    """A contiguous run of layers, inclusive on both ends."""

    __slots__ = ("first", "last")

    first: int
    last: int

    def __post_init__(self) -> None:
        if self.first < 0 or self.last < self.first:
            raise SchedulingError(f"bad pack [{self.first}, {self.last}]")

    @property
    def n_layers(self) -> int:
        return self.last - self.first + 1

    @property
    def layers(self) -> range:
        return range(self.first, self.last + 1)

    def __str__(self) -> str:
        if self.first == self.last:
            return f"L{self.first}"
        return f"L{self.first}-{self.last}"


def validate_packs(packs: Sequence[Pack], n_layers: int) -> None:
    """Packs must partition layers 0..n_layers-1 contiguously, in order."""
    if not packs:
        raise SchedulingError("empty pack list")
    expected_first = 0
    for pack in packs:
        if pack.first != expected_first:
            raise SchedulingError(
                f"pack {pack} does not start at layer {expected_first}; "
                "packs must tile the chain"
            )
        expected_first = pack.last + 1
    if expected_first != n_layers:
        raise SchedulingError(
            f"packs cover layers 0..{expected_first - 1} but the model has "
            f"{n_layers} layers"
        )


def packs_from_boundaries(boundaries: Iterable[int], n_layers: int) -> tuple[Pack, ...]:
    """Build packs from the sorted list of first-layer indices.

    ``boundaries`` must start with 0; e.g. ``[0, 4, 7]`` with 10 layers
    yields packs L0-3, L4-6, L7-9.
    """
    firsts = list(boundaries)
    if not firsts or firsts[0] != 0:
        raise SchedulingError("pack boundaries must start at layer 0")
    packs = []
    for i, first in enumerate(firsts):
        last = (firsts[i + 1] - 1) if i + 1 < len(firsts) else n_layers - 1
        packs.append(Pack(first, last))
    validate_packs(packs, n_layers)
    return tuple(packs)


def even_packs(n_layers: int, n_packs: int) -> tuple[Pack, ...]:
    """Split layers into ``n_packs`` near-equal contiguous packs."""
    if not 1 <= n_packs <= n_layers:
        raise SchedulingError(
            f"cannot split {n_layers} layers into {n_packs} packs"
        )
    base, extra = divmod(n_layers, n_packs)
    packs = []
    first = 0
    for i in range(n_packs):
        size = base + (1 if i < extra else 0)
        packs.append(Pack(first, first + size - 1))
        first += size
    return tuple(packs)


@dataclass(frozen=True)
class Configuration:
    """The four-tuple ``(U_F, P_F, U_B, P_B)``."""

    __slots__ = ("u_f", "packs_f", "u_b", "packs_b")

    u_f: int
    packs_f: tuple[Pack, ...]
    u_b: int
    packs_b: tuple[Pack, ...]

    def __post_init__(self) -> None:
        if self.u_f < 1 or self.u_b < 1:
            raise SchedulingError("microbatch sizes must be >= 1")

    def validate(self, n_layers: int) -> None:
        validate_packs(self.packs_f, n_layers)
        validate_packs(self.packs_b, n_layers)

    @property
    def jit_compute_aligned(self) -> bool:
        """True when the last forward pack equals the last backward pack,
        so the first backward task needs no rematerialization (Alg 1)."""
        return self.packs_f[-1] == self.packs_b[-1]

    def describe(self) -> str:
        return (
            f"U_F={self.u_f} |P_F|={len(self.packs_f)} "
            f"U_B={self.u_b} |P_B|={len(self.packs_b)}"
        )

    def pack_table(self) -> str:
        """Table 5-style rendering of the pack lists."""
        fwd = ", ".join(str(p) for p in self.packs_f)
        bwd = ", ".join(str(p) for p in self.packs_b)
        return f"P_F: {fwd}\nP_B: {bwd}"


def microbatch_group(total: int, size: int) -> tuple[int, ...]:
    """Split ``total`` samples into microbatches of ``size`` (last may be
    smaller), e.g. (10, 4) -> (4, 4, 2)."""
    if total < 1 or size < 1:
        raise SchedulingError(f"bad microbatch split: total={total}, size={size}")
    full, rest = divmod(total, size)
    group = (size,) * full
    if rest:
        group += (rest,)
    return group
