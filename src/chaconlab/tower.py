"""The Chacon transformation: tower layout by stage, and evaluation.

The stage-k tower has h_k = (3^(k+1)-1)/2 levels of width 2*3^-(k+1); the
leftover spacer reservoir is [1 - 3^-(k+1), 1).  The map T translates each
level onto the one above it, and is evaluated at a triadic point by finding
the smallest stage at which the point is neither on the top level nor in
the spacer reservoir.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .triadic import DomainError, TriadicRational, normalize


class DepthExceededError(RuntimeError):
    """The point sits on an edge level at every stage: only T^-1(0) does."""


def height(k: int) -> int:
    """Tower height h_k = (3^(k+1) - 1) // 2."""
    if k < 0:
        raise DomainError(f"stage {k} < 0")
    return (3 ** (k + 1) - 1) // 2


def _level_start(k: int, j: int) -> int:
    """Left endpoint of level j of the stage-k tower, as a numerator over
    3^(k+1): the stage-k stack is the left copy, the middle copy, the
    spacer piece and the right copy of the stage-(k-1) stack."""
    h = height(k)
    if not 0 <= j < h:
        raise DomainError(f"level {j} out of range for stage {k} (h={h})")
    one, start, unit = 3 ** (k + 1), 0, 1  # unit: half a stage-k cell width
    while k > 0:
        h = (h - 1) // 3
        if j >= 2 * h:
            if j == 2 * h:
                return start + one - 3 * unit
            start += 4 * unit
            j -= 2 * h + 1
        elif j >= h:
            start += 2 * unit
            j -= h
        k, unit = k - 1, 3 * unit
    return start


@dataclass(frozen=True)
class TowerAddress:
    """Position of a point in the stage-k tower.

    level is None when the point sits in the spacer reservoir
    [1 - 3^-(k+1), 1); offset is then measured from that interval's start.
    """

    k: int
    level: int | None
    offset: Fraction


def _addresses(x: TriadicRational):
    """Yield (k, h_k, level, offset) for the stages k = 0, 1, 2, ... in turn.

    level is None in the spacer reservoir; offset is an integer over
    3^max(k+1, m) for x = p/3^m, so from stage m on each step refines the
    unit by 3 and the cell width stays 2 units.
    """
    m = x.exponent
    den = 3 ** max(1, m)
    offset = x.numerator * (den // 3 ** m)
    w = 2 * den // 3
    level, offset = (0, offset) if offset < w else (None, offset - w)
    k, h = 0, 1
    while True:
        yield k, h, level, offset
        # to stage k + 1: w becomes its cell width, h is still h_k
        if k + 1 < m:
            w //= 3
        else:
            offset *= 3
        if level is None:
            # the stage-k reservoir splits into the inserted spacer piece and
            # the stage-(k+1) reservoir
            if offset < w:
                level = 2 * h
            else:
                offset -= w
        else:
            third, offset = divmod(offset, w)
            level += (0, h, 2 * h + 1)[third]
        k, h = k + 1, 3 * h + 1


def locate(x: TriadicRational, k: int) -> TowerAddress:
    """Find the stage-k level (or spacer reservoir) containing x."""
    if k < 0:
        raise DomainError(f"stage {k} < 0")
    _, _, level, offset = next(islice(_addresses(x), k, None))
    return TowerAddress(k, level, Fraction(offset, 3 ** max(k + 1, x.exponent)))


def _step(x: TriadicRational, up: int, name: str) -> TriadicRational:
    """x moved one level up (up = 1) or down (up = -1) at the first stage where
    its level has a neighbour that way, in one walk over the stages.

    For x = p/3^m the walk stops by stage max(m, 1).  At a stage k >= max(m, 1)
    the offset of x in its stage-(k-1) cell is 0 or 3^-k, so x lies in the left
    or middle copy, or at the start of the spacer piece: never on the top
    level, which closes the right copy, nor in the reservoir
    [1 - 3^-(k+1), 1).  Level 0 is [0, 2*3^-(k+1)), below every x >= 3^-m,
    so only x = 0 stays on an edge level at every stage, and only for T^-1.
    """
    m = x.exponent
    for k, h, level, offset in islice(_addresses(x), max(m, 1) + 1):
        if level is None or level == (h - 1 if up > 0 else 0):
            continue
        e = max(k + 1, m)
        return normalize(_level_start(k, level + up) * 3 ** (e - k - 1) + offset, e)
    raise DepthExceededError(f"{name}({x}) undefined at every stage")


def apply_T(x: TriadicRational) -> TriadicRational:
    """One forward step of the Chacon transformation at a triadic point."""
    return _step(x, 1, "T")


def apply_T_inverse(x: TriadicRational) -> TriadicRational:
    """One backward step; x = 0 has no preimage and raises DepthExceededError."""
    return _step(x, -1, "T^-1")


def apply_T_power(x: TriadicRational, n: int) -> TriadicRational:
    step = apply_T if n >= 0 else apply_T_inverse
    for _ in range(abs(n)):
        x = step(x)
    return x
