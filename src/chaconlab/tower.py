"""The Chacon transformation: tower layout by stage, and evaluation.

The stage-k tower has h_k = (3^(k+1)-1)/2 levels of width 2*3^-(k+1); the
leftover spacer reservoir is [1 - 3^-(k+1), 1).  The map T translates each
level onto the one above it, so T^n carries level j onto level j + n.  T^n is
evaluated at a triadic point in one walk over the stages: at the first stage
where the point has a level j with 0 <= j + n < h_k, it is one translation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import NamedTuple

from .triadic import DomainError, TriadicRational, normalize


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


class TowerAddress(NamedTuple):
    """Position of a point in the stage-k tower.

    level is None when the point sits in the spacer reservoir
    [1 - 3^-(k+1), 1); offset is then measured from that interval's start.
    """

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
    return TowerAddress(level, Fraction(offset, 3 ** max(k + 1, x.exponent)))


def apply_T_power(x: TriadicRational, n: int) -> TriadicRational:
    """T^n(x) as one translation, found in one walk over the stages.

    T^n carries level j of the stage-k tower onto level j + n whenever
    0 <= j + n < h_k, the same way at every stage, so the walk stops at the
    first stage where x has such a level j.

    Let x = p/3^m and let s be least with h_s >= |n|.  At a stage k >= max(m, 1)
    the offset of x in its stage-(k-1) cell is 0 or 3^-k, so x lies in the left
    copy (offset 0, the same level at every later stage), in the middle copy
    (j >= h_(k-1)) or at the start of the spacer piece (j = 2h_(k-1)).  As
    2h_(k-1) = h_k - h_(k-1) - 1, from stage max(m, 1, s + 1) on, where
    h_k > 3|n|, j + n lies in [0, h_k) unless x is on a level j < -n of the
    left copy.  Then T^-j(x) = 0, and T^-1(0) is undefined at every stage.
    """
    m = x.exponent
    for k, h, level, offset in _addresses(x):
        if level is not None and 0 <= level + n < h:
            e = max(k + 1, m)
            return normalize(_level_start(k, level + n) * 3 ** (e - k - 1) + offset, e)
        if k >= max(m, 1) and h > 3 * abs(n):
            raise DomainError("T^-1(0/3^0) undefined at every stage")


def apply_T(x: TriadicRational) -> TriadicRational:
    """One forward step of the Chacon transformation at a triadic point."""
    return apply_T_power(x, 1)


def apply_T_inverse(x: TriadicRational) -> TriadicRational:
    """One backward step; x = 0 has no preimage and raises DomainError."""
    return apply_T_power(x, -1)
