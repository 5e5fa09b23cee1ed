"""The Chacon transformation: tower layout by stage, evaluation, induced dynamics.

The stage-k tower has h_k = (3^(k+1)-1)/2 levels of width 2*3^-(k+1); the
leftover spacer reservoir is [1 - 3^-(k+1), 1).  The map T translates each
level onto the one above it, and is evaluated at a triadic point by finding
the smallest stage at which the point is neither on the top level nor in
the spacer reservoir.

The induced dynamics on the base cell act on ternary digit words:
first_return, induced_map and lth_return_time implement the digit rules of
the first-return time r, the induced map S and the l-th return time t_l'.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from .triadic import DomainError, TernaryWord, TriadicInterval, TriadicRational, translate

DEFAULT_DEPTH_CAP = 64


class DepthExceededError(RuntimeError):
    """Stage search hit the depth cap: the point is too close to the bad set."""


def height(k: int) -> int:
    """Tower height h_k = (3^(k+1) - 1) // 2."""
    if k < 0:
        raise DomainError(f"stage {k} < 0")
    return (3 ** (k + 1) - 1) // 2


def cell_width(k: int) -> Fraction:
    return Fraction(2, 3 ** (k + 1))


@lru_cache(maxsize=None)
def _level_start(k: int, j: int) -> Fraction:
    """Left endpoint of level j of the stage-k tower."""
    h = height(k)
    if not 0 <= j < h:
        raise DomainError(f"level {j} out of range for stage {k} (h={h})")
    if k == 0:
        return Fraction(0)
    hp = height(k - 1)
    w = cell_width(k)
    if j < hp:
        return _level_start(k - 1, j)
    if j < 2 * hp:
        return _level_start(k - 1, j - hp) + w
    if j == 2 * hp:
        return 1 - Fraction(1, 3 ** k)
    return _level_start(k - 1, j - 2 * hp - 1) + 2 * w


def level_interval(k: int, j: int) -> TriadicInterval:
    a = _level_start(k, j)
    return TriadicInterval(a, a + cell_width(k))


@dataclass(frozen=True)
class TowerAddress:
    """Position of a point in the stage-k tower.

    level is None when the point sits in the spacer reservoir
    [1 - 3^-(k+1), 1); offset is then measured from that interval's start.
    """

    k: int
    level: int | None
    offset: Fraction

    @property
    def in_spacer_remainder(self) -> bool:
        return self.level is None


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


def _step(x: TriadicRational, up: int, depth_cap: int, name: str) -> TriadicRational:
    """x moved one level up (up = 1) or down (up = -1) at the first stage where
    its level has a neighbour that way, in one walk over the stages."""
    for k, h, level, offset in islice(_addresses(x), depth_cap + 1):
        if level is None or level == (h - 1 if up > 0 else 0):
            continue
        target = _level_start(k, level + up) + Fraction(offset, 3 ** max(k + 1, x.exponent))
        return translate(x, target - x.as_fraction())
    raise DepthExceededError(f"{name}({x}) undefined within {depth_cap} stages")


def apply_T(x: TriadicRational, depth_cap: int = DEFAULT_DEPTH_CAP) -> TriadicRational:
    """One forward step of the Chacon transformation at a triadic point."""
    return _step(x, 1, depth_cap, "T")


def apply_T_inverse(x: TriadicRational, depth_cap: int = DEFAULT_DEPTH_CAP) -> TriadicRational:
    """One backward step; x = 0 has no triadic preimage and hits the depth cap."""
    return _step(x, -1, depth_cap, "T^-1")


def apply_T_power(x: TriadicRational, n: int, depth_cap: int = DEFAULT_DEPTH_CAP) -> TriadicRational:
    step = apply_T if n >= 0 else apply_T_inverse
    for _ in range(abs(n)):
        x = step(x, depth_cap)
    return x


def first_return(w: TernaryWord, k: int) -> int:
    """First-return time r_k of the point 0.a1a2... of the rescaled base cell.

    Digit rules: a1 = 0 gives h_k, a1 = 1 gives h_k + 1, a1 = 2 recurses on
    the tail.  The implicit trailing zeros make the recursion terminate.
    """
    h = height(k)
    for d in w.digits:
        if d == 0:
            return h
        if d == 1:
            return h + 1
    return h  # all digits were 2 (or the word is empty): trailing zeros


def induced_map(w: TernaryWord) -> TernaryWord:
    """The induced map S on ternary words; independent of the stage."""
    d = w.digits
    if not d or d[0] == 0:
        return TernaryWord((1,) + d[1:])
    if d[0] == 1:
        return TernaryWord((2,) + d[1:])
    return TernaryWord((0,) + induced_map(TernaryWord(d[1:])).digits)


def lth_return_time(w: TernaryWord, l: int, k: int) -> int:
    """The l-th return time t_l' via the digit recursion on (l, word)."""
    if l < 0:
        raise DomainError(f"l = {l} < 0")
    h = height(k)
    return _tl(w.digits, l, h)


def _tl(d: tuple[int, ...], l: int, h: int) -> int:
    if l == 0:
        return 0
    a1 = d[0] if d else 0
    rest = d[1:]
    q, s = divmod(l, 3)
    if s == 0:
        return 2 * q * h + q + _tl(rest, q, h)
    if s == 1:
        if q == 0:
            # t_1' = r: resolved digit by digit
            if a1 == 0:
                return h
            if a1 == 1:
                return h + 1
            return _tl(rest, 1, h)
        if a1 == 0:
            return (2 * q + 1) * h + q + _tl(rest, q, h)
        if a1 == 1:
            return (2 * q + 1) * h + q + 1 + _tl(rest, q, h)
        return 2 * q * h + q + _tl(rest, q + 1, h)
    # s == 2
    if a1 == 0:
        return (2 * q + 2) * h + q + 1 + _tl(rest, q, h)
    if a1 == 1:
        return (2 * q + 1) * h + q + 1 + _tl(rest, q + 1, h)
    return (2 * q + 1) * h + q + _tl(rest, q + 1, h)


def lth_return_time_orbit(w: TernaryWord, l: int, k: int) -> int:
    """The same t_l' as the orbit sum of first-return times along S-iterates."""
    total = 0
    cur = w
    for _ in range(l):
        total += first_return(cur, k)
        cur = induced_map(cur)
    return total
