"""Independent brute-force ground truth for the recursion engine.

Three unrelated verification devices live here:

* a pushforward simulator that maps a TriadicSet to its image directly
  from the stacking rule, finding each level by its rank in start order
  (no code shared with tower.apply_T), and the correlation of two
  TriadicSets by one resolution rule: stage by stage, each unresolved level
  splits into its three copies one stage deeper, the reservoir adds the
  spacer level, and a copy p resolves as one interval overlap when p + n
  is still a level of that stage; at stage s the overlaps are integer
  lengths on the grid 3^-max(F, s + 2), 3^-F the finest endpoint grid of
  the two sets, and each stage's sum becomes one Fraction (_lv_start gives
  the level starts of stage k as numerators over 3^(k+1)); a copy whose
  source window misses A's hull, or whose target window misses B's, is
  skipped, which is exact because its overlap is 0,
* exhaustive digit-cell enumeration of the return-time distributions via
  the orbit sum of first-return times (no use of the mass recursion), each
  cell's mass an integer over one 2 * 3^D, D the number of base-3 digits
  of l, with one Fraction per returned mass,
* the smoothing-operator polynomials as coefficient tuples, the
  partial-sum order on them, and the lazy-walk polynomials they are
  compared against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import comb
from typing import NamedTuple

from .triadic import DomainError, SizeError, TriadicSet, _pow3_exponent

ORACLE_CAP = 500
FRAGMENT_CAP = 100_000
DEPTH_CAP = 11            # deepest stage a pushforward piece may reach
MAX_EXTRA_STAGES = 80     # stages past m before the correlation chain must settle


class FragmentationError(SizeError):
    """The interval pushforward exceeded the fragment budget.  A SizeError, so
    the command line reports it as a resource cap."""


# ---------------------------------------------------------------------------
# pushforward simulation

def _h(m: int) -> int:
    return (3 ** (m + 1) - 1) // 2


@lru_cache(maxsize=200_000)
def _lv_start(m: int, j: int) -> int:
    """Left endpoint of level j of the stage-m stack, as its numerator over
    3^(m+1), from the construction rule (left copy, middle copy, spacer,
    right copy)."""
    if m == 0:
        return 0
    hp = _h(m - 1)
    if j < hp:
        return 3 * _lv_start(m - 1, j)
    if j < 2 * hp:
        return 3 * _lv_start(m - 1, j - hp) + 2
    if j == 2 * hp:
        return 3 ** (m + 1) - 3
    return 3 * _lv_start(m - 1, j - 2 * hp - 1) + 4


def _level(m: int, i: int) -> int:
    """The stage-m level of rank i in start order, which starts at
    2i/3^(m+1): ranks 3p, 3p+1 and 3p+2 are the left, middle and right
    copies of stage-(m-1) rank p, and rank 3h_(m-1) is the spacer."""
    if m == 0:
        return 0
    hp = _h(m - 1)
    p, r = divmod(i, 3)
    if p == hp:
        return 2 * hp
    return _level(m - 1, p) + (0, hp, 2 * hp + 1)[r]


def _image_pieces(a: Fraction, b: Fraction, k: int,
                  out: list[tuple[Fraction, Fraction]]) -> None:
    """Append the one-step image of [a, b), splitting at stage boundaries."""
    if k > DEPTH_CAP:
        raise FragmentationError(f"piece [{a}, {b}) unresolved at depth {DEPTH_CAP}")
    w = Fraction(2, 3 ** (k + 1))
    top = _h(k) - 1
    i = a // w
    while i <= top and i * w < b:
        s, j = i * w, _level(k, i)
        lo, hi = max(a, s), min(b, s + w)
        if j == top:
            _image_pieces(lo, hi, k + 1, out)
        else:
            d = Fraction(_lv_start(k, j + 1) - 2 * i, 3 ** (k + 1))
            out.append((lo + d, hi + d))
        i += 1
    # spacer remainder [1 - 3^-(k+1), 1)
    res = 1 - Fraction(1, 3 ** (k + 1))
    if b > res:
        _image_pieces(max(a, res), b, k + 1, out)


def pushforward_step(a: TriadicSet) -> TriadicSet:
    """The image T(A) of an interval set, one step forward."""
    out: list[tuple[Fraction, Fraction]] = []
    for lo, hi in a.intervals:
        _image_pieces(lo, hi, 0, out)
    image = TriadicSet.from_endpoints(out)
    if len(image.intervals) > FRAGMENT_CAP:
        raise FragmentationError(f"{len(image.intervals)} fragments in one step")
    return image


def _trace(intervals: tuple[tuple[int, int], ...], lo: int,
           hi: int) -> list[tuple[int, int]]:
    return [(max(a, lo), min(b, hi)) for a, b in intervals
            if max(a, lo) < min(b, hi)]


def _shift_overlap(av: tuple[tuple[int, int], ...], bv: tuple[tuple[int, int], ...],
                   src: int, dst: int, w: int) -> int:
    """measure(((A restricted to [src, src+w)) + dst - src) intersect B
    restricted to [dst, dst+w)), all on one grid."""
    at = _trace(av, src, src + w)
    if not at:
        return 0
    bt = _trace(bv, dst, dst + w)
    if not bt:
        return 0
    d = dst - src
    total = 0
    for pa, pb in at:
        for qa, qb in bt:
            lo, hi = max(pa + d, qa), min(pb + d, qb)
            if lo < hi:
                total += hi - lo
    return total


def _on_grid(intervals: tuple[tuple[Fraction, Fraction], ...],
             g: int) -> tuple[tuple[int, int], ...]:
    """The intervals' endpoints as numerators over 3^g; each denominator
    divides 3^g."""
    scale = 3 ** g
    return tuple((a.numerator * (scale // a.denominator), b.numerator * (scale // b.denominator))
                 for a, b in intervals)


def brute_correlation(a: TriadicSet, b: TriadicSet, n: int) -> Fraction:
    """mu(T^n A intersect B) = mu(A intersect T^-n B), exactly.

    One rule, applied stage by stage from the single stage-0 level: each
    unresolved stage-s level j splits into its stage-(s+1) copies j, j + h_s
    and j + 2h_s + 1, and the spacer reservoir adds the spacer level 2h_s.
    A copy p with p + n < h_(s+1) resolves: T^n translates it onto level
    p + n, so it contributes one direct interval overlap.  Every other copy
    stays unresolved.  Once h_s >= n only the right copy of each unresolved
    level stays, at the same distance from the top, so the unresolved
    remainder shrinks by a factor 3 per stage; its contributions become
    exactly geometric once every nested cell has passed below the resolution
    of A and B, and the tail is summed in closed form after the ratio is
    observed exact on consecutive stages.

    Overlaps are integer lengths: at stage s, A, B, the level starts and
    the width 2/3^(s+2) lie on the grid 3^-G, G = max(F, s + 2) with 3^-F
    the finest endpoint grid of A and B, and each stage's sum becomes one
    Fraction over 3^G.  A resolving copy whose source window misses A's hull
    [min A, max A), or whose target window misses B's, adds nothing and is
    skipped: that set's trace on the window is empty, so the overlap is 0
    exactly.
    """
    if n < 0:
        a, b, n = b, a, -n
    if n > ORACLE_CAP:
        raise FragmentationError(f"n = {n} exceeds oracle cap {ORACLE_CAP}")
    fine = max((_pow3_exponent(q.denominator) for iv in a.intervals + b.intervals for q in iv),
               default=0)
    m = 1
    while _h(m) < n + 2:
        m += 1
    # resolution floor: stages at which all nested cells are finer than any
    # endpoint of A or B
    floor = 4 + max(m, fine)

    unresolved = [0]
    history: list[Fraction] = []   # the overlap resolved at each stage
    stage = 0
    while True:
        grid = max(fine, stage + 2)
        av, bv = _on_grid(a.intervals, grid), _on_grid(b.intervals, grid)
        hs, hn, scale = _h(stage), _h(stage + 1), 3 ** (grid - stage - 2)
        copies = [p for j in unresolved for p in (j, j + hs, j + 2 * hs + 1)] + [2 * hs]
        w = 2 * scale
        # the hulls [a_lo, a_hi) and [b_lo, b_hi); a window that misses one
        # has overlap 0, and an empty set leaves every window missing it
        a_lo, a_hi = (av[0][0], av[-1][1]) if av else (0, 0)
        b_lo, b_hi = (bv[0][0], bv[-1][1]) if bv else (0, 0)
        chi = 0
        unresolved = []
        for p in copies:
            if p + n < hn:
                src = _lv_start(stage + 1, p) * scale
                if src < a_hi and a_lo < src + w:
                    dst = _lv_start(stage + 1, p + n) * scale
                    if dst < b_hi and b_lo < dst + w:
                        chi += _shift_overlap(av, bv, src, dst, w)
            else:
                unresolved.append(p)
        history.append(Fraction(chi, 3 ** grid))
        stage += 1
        if stage >= floor and history[-2] == 3 * history[-1] \
                and history[-3] == 9 * history[-1]:
            break
        if stage > m + MAX_EXTRA_STAGES:
            raise FragmentationError(
                f"chain contributions did not stabilize within {MAX_EXTRA_STAGES} stages")
    return sum(history, Fraction(0)) + history[-1] / 2


# ---------------------------------------------------------------------------
# digit-cell enumeration of return distributions

class EnumeratedDistribution(NamedTuple):
    """d_l' from the digit-cell enumeration: masses on [start, start+len-1]."""

    start: int
    masses: tuple[Fraction, ...]


# the row of remaining index m = 3q + s (s = 1, 2) under next digit a, as
# (x, y, z) in _DL_ROWS[s - 1][a]: the time advances by (2q + x) h + q + y and
# the index becomes q + z
_DL_ROWS = (((1, 0, 0), (1, 1, 0), (0, 0, 1)),
            ((2, 1, 0), (1, 1, 1), (1, 0, 1)))


def brute_dl(k: int, l: int) -> EnumeratedDistribution:
    """Exact d_l' by running the digit rules of the l-th return time over an
    exhaustive cell decomposition of the base.

    Cells carry an undetermined uniform digit tail.  The per-digit rows of
    the return-time recursion rewrite (cell, remaining index, accumulated
    time); cells whose row depends on the next digit split in three.  The
    one infinite regress, the first-return time of a uniform tail, is closed
    in exact form: stripping a leading 2 leaves the law invariant, so the
    time is h with probability 1/2 and h + 1 with probability 1/2.

    Each cell's mass is an integer over den = 2 * 3^D, D the number of
    base-3 digits of l, and one Fraction is built per returned mass.  No
    division drops a remainder.  Every step takes the remaining index m to
    q + z <= ceil(m/3), and splits at most once, only while m >= 2.  If
    m <= 3^t then ceil(m/3) <= 3^(t-1), and l <= 3^D, so after j steps
    m <= 3^(D-j): a cell splits at most D times on its way to m <= 1, where
    the closure halves once.
    """
    if k < 0:
        raise DomainError(f"stage {k} < 0")
    if l < 0:
        raise DomainError(f"l = {l} < 0")
    h = _h(k)
    digits, rest = 0, l
    while rest:
        digits, rest = digits + 1, rest // 3
    den = 2 * 3 ** digits
    dist: dict[int, int] = {}

    def emit(n: int, m: int) -> None:
        dist[n] = dist.get(n, 0) + m

    # states: (next digit or None for a fresh uniform tail, shift, index, mass)
    stack: list[tuple[int | None, int, int, int]] = [(None, 0, l, den)]
    while stack:
        a, shift, m, mass = stack.pop()
        if m == 0:
            emit(shift, mass)
            continue
        q, s = divmod(m, 3)
        if s == 0:
            # row is digit independent; dropping one digit of a uniform
            # tail leaves it uniform
            stack.append((None, shift + 2 * q * h + q, q, mass))
        elif m == 1:
            if a == 0:
                emit(shift + h, mass)
            elif a == 1:
                emit(shift + h + 1, mass)
            else:
                # a == 2 strips to the same state; a is None for the uniform
                # tail, whose geometric closure gives the half-half law
                emit(shift + h, mass // 2)
                emit(shift + h + 1, mass // 2)
        elif a is None:
            stack.extend((d, shift, m, mass // 3) for d in (0, 1, 2))
        else:
            x, y, z = _DL_ROWS[s - 1][a]
            stack.append((None, shift + (2 * q + x) * h + q + y, q + z, mass))

    lo, hi = min(dist), max(dist)
    if set(dist) != set(range(lo, hi + 1)):
        raise DomainError(f"enumerated support of d_{l}' is not an integer interval")
    return EnumeratedDistribution(lo, tuple(Fraction(dist[n], den) for n in range(lo, hi + 1)))


# ---------------------------------------------------------------------------
# smoothing polynomials, partial-sum order, lazy-walk polynomials

def phi_run(l_max: int) -> list[tuple[Fraction, ...]]:
    """The unique smoothing-polynomial representations of the profiles
    D_0 .. D_l_max, as coefficient tuples (c_0, ..., c_m) of sum c_i phi^i,
    phi the half-step smoothing operator.

    D_l for l = 3q + r reads D_q and D_(q+1), both below l once l >= 2, so
    one forward loop builds the run.
    """
    if l_max < 0:
        raise DomainError(f"l = {l_max} < 0")
    run = [(Fraction(1),), (Fraction(0), Fraction(1))]
    for l in range(2, l_max + 1):
        q, r = divmod(l, 3)
        if r == 0:
            run.append(run[q])
        elif r == 1:
            run.append(_mix(run[q], run[q + 1]))
        else:
            run.append(_mix(run[q + 1], run[q]))
    return run[: l_max + 1]


def _mix(shifted: tuple[Fraction, ...], plain: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """(2/3) phi * shifted + (1/3) plain."""
    two_thirds = Fraction(2, 3)
    third = Fraction(1, 3)
    return tuple(two_thirds * x + third * y
                 for x, y in zip_longest((0,) + shifted, plain, fillvalue=0))


def walk_poly(n: int) -> tuple[Fraction, ...]:
    """((1/3) phi + (2/3))^n, the lazy-walk smoothing polynomial F_n."""
    den = 3 ** n
    return tuple(Fraction(comb(n, i) * 2 ** (n - i), den) for i in range(n + 1))


def precedes(f: tuple[Fraction, ...], g: tuple[Fraction, ...]) -> bool:
    """Partial-sum order: every coefficient prefix sum of f is <= that of g.

    For unit-total polynomials this pushes mass toward higher smoothing
    powers, so f precedes g implies center(f) <= center(g).
    """
    sf = sg = Fraction(0)
    for x, y in zip_longest(f, g, fillvalue=0):
        sf += x
        sg += y
        if sf > sg:
            return False
    return True


def center_value(poly: tuple[Fraction, ...]) -> Fraction:
    """Value at the origin of the profile the polynomial represents.

    On cells [j/2, (j+1)/2) the unit box is 1 on cells -1 and 0, and phi
    averages each cell's two neighbours, so phi^i of the box at the origin
    is the chance that a +-1 walk of i steps from cell 0 ends in cell 0 or 1:
    C(i, floor(i/2)) / 2^i.
    """
    return sum((c * Fraction(comb(i, i // 2), 2 ** i) for i, c in enumerate(poly)),
               Fraction(0))
