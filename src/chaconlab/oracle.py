"""Independent brute-force ground truth for the recursion engine.

Three unrelated verification devices live here:

* a pushforward simulator that evaluates the transformation on interval
  sets directly from the stacking rule, finding each level by its rank in
  start order (no code shared with tower.apply_T),
* exhaustive digit-word enumeration of the return-time distributions via
  the orbit sum of first-return times (no use of the mass recursion),
* the smoothing-operator polynomials, the partial-sum order on them, and
  the lazy-walk polynomials they are compared against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .triadic import DomainError, TriadicSet, _pow3_exponent

ORACLE_CAP = 500
FRAGMENT_CAP = 100_000
DEPTH_CAP = 11            # deepest stage a pushforward piece may reach
MAX_EXTRA_STAGES = 80     # stages past m before the correlation chain must settle


class FragmentationError(RuntimeError):
    """The interval pushforward exceeded the fragment budget."""


# ---------------------------------------------------------------------------
# pushforward simulation

def _h(m: int) -> int:
    return (3 ** (m + 1) - 1) // 2


@lru_cache(maxsize=200_000)
def _lv_start(m: int, j: int) -> Fraction:
    """Left endpoint of level j of the stage-m stack, from the construction
    rule (left copy, middle copy, spacer, right copy)."""
    if m == 0:
        return Fraction(0)
    hp = _h(m - 1)
    w = Fraction(2, 3 ** (m + 1))
    if j < hp:
        return _lv_start(m - 1, j)
    if j < 2 * hp:
        return _lv_start(m - 1, j - hp) + w
    if j == 2 * hp:
        return 1 - Fraction(1, 3 ** m)
    return _lv_start(m - 1, j - 2 * hp - 1) + 2 * w


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
            d = _lv_start(k, j + 1) - s
            out.append((lo + d, hi + d))
        i += 1
    # spacer remainder [1 - 3^-(k+1), 1)
    res = 1 - Fraction(1, 3 ** (k + 1))
    if b > res:
        _image_pieces(max(a, res), b, k + 1, out)


@dataclass
class PushforwardState:
    """Current image of an interval set under iterated forward steps."""

    pieces: list[tuple[Fraction, Fraction]]
    steps: int = 0

    @classmethod
    def of(cls, a: TriadicSet) -> "PushforwardState":
        return cls([(iv.start, iv.end) for iv in a.intervals])

    def measure(self) -> Fraction:
        return sum((b - a for a, b in self.pieces), Fraction(0))


def pushforward_step(state: PushforwardState) -> PushforwardState:
    out: list[tuple[Fraction, Fraction]] = []
    for a, b in state.pieces:
        _image_pieces(a, b, 0, out)
    out.sort()
    # coalesce touching pieces to keep fragmentation in check
    merged: list[tuple[Fraction, Fraction]] = []
    for a, b in out:
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    if len(merged) > FRAGMENT_CAP:
        raise FragmentationError(f"{len(merged)} fragments after step {state.steps + 1}")
    return PushforwardState(merged, state.steps + 1)


def _trace(intervals: list[tuple[Fraction, Fraction]], lo: Fraction,
           hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    return [(max(a, lo), min(b, hi)) for a, b in intervals
            if max(a, lo) < min(b, hi)]


def _shift_overlap(av: list[tuple[Fraction, Fraction]],
                   bv: list[tuple[Fraction, Fraction]],
                   src: Fraction, dst: Fraction, w: Fraction) -> Fraction:
    """measure(((A restricted to [src, src+w)) + dst - src) intersect B
    restricted to [dst, dst+w))."""
    at = _trace(av, src, src + w)
    if not at:
        return Fraction(0)
    bt = _trace(bv, dst, dst + w)
    if not bt:
        return Fraction(0)
    d = dst - src
    total = Fraction(0)
    for pa, pb in at:
        for qa, qb in bt:
            lo, hi = max(pa + d, qa), min(pb + d, qb)
            if lo < hi:
                total += hi - lo
    return total


def brute_correlation(a: TriadicSet, b: TriadicSet, n: int) -> Fraction:
    """mu(T^n A intersect B) = mu(A intersect T^-n B), exactly.

    At a stage m with h_m > n + 1, the n-step map is a plain translation of
    level j onto level j + n for every level that stays inside the stack, so
    those contributions are direct interval overlaps.  The levels within n
    of the top, and the spacer reservoir, resolve one stage deeper: two of
    the three thirds of a top-region level land low enough to translate, and
    only the right third stays unresolved, at the same distance from the
    top.  The unresolved remainder thus shrinks by a factor 3 per stage and
    its contributions become exactly geometric once every nested cell has
    passed below the resolution of A and B; the tail is summed in closed
    form after the ratio is observed exact on consecutive stages.
    """
    if n < 0:
        a, b, n = b, a, -n
    if n > ORACLE_CAP:
        raise FragmentationError(f"n = {n} exceeds oracle cap {ORACLE_CAP}")
    av = [(iv.start, iv.end) for iv in a.intervals]
    bv = [(iv.start, iv.end) for iv in b.intervals]
    if n == 0:
        return _shift_overlap(av, bv, 0, 0, 1)

    m = 1
    while _h(m) < n + 2:
        m += 1
    h = _h(m)
    w = Fraction(2, 3 ** (m + 1))
    total = Fraction(0)
    for j in range(h - n):
        total += _shift_overlap(av, bv, _lv_start(m, j), _lv_start(m, j + n), w)

    # resolution floor: stages at which all nested cells are finer than any
    # endpoint of A or B
    floor = 4 + max([m] + [_pow3_exponent(q.denominator) for iv in av + bv for q in iv])

    # unresolved sources: top-region levels, by distance from the top, plus
    # the spacer reservoir; each keeps exactly one child per stage
    jobs = list(range(h - n, h))
    history: list[Fraction] = []
    stage = m
    while True:
        hs, ws = _h(stage), Fraction(2, 3 ** (stage + 2))
        hn = _h(stage + 1)
        chi = Fraction(0)
        new_jobs = []
        for j in jobs:
            for p in (j, j + hs):
                if p + n < hn:
                    chi += _shift_overlap(av, bv, _lv_start(stage + 1, p),
                                          _lv_start(stage + 1, p + n), ws)
            new_jobs.append(j + 2 * hs + 1)
        # reservoir: the spacer level resolves, the deeper reservoir stays
        sp = 2 * hs
        chi += _shift_overlap(av, bv, _lv_start(stage + 1, sp),
                              _lv_start(stage + 1, sp + n), ws)
        history.append(chi)
        jobs = new_jobs
        stage += 1
        if stage >= floor and len(history) >= 3 \
                and history[-2] == 3 * history[-1] \
                and history[-3] == 9 * history[-1]:
            break
        if stage > m + MAX_EXTRA_STAGES:
            raise FragmentationError(
                f"chain contributions did not stabilize within {MAX_EXTRA_STAGES} stages")
    return total + sum(history, Fraction(0)) + history[-1] / 2


# ---------------------------------------------------------------------------
# digit-cell enumeration of return distributions

@dataclass(frozen=True)
class EnumeratedDistribution:
    """d_l' from the digit-cell enumeration: masses on [start, start+len-1]."""

    k: int
    l: int
    start: int
    masses: tuple[Fraction, ...]


def brute_dl(k: int, l: int) -> EnumeratedDistribution:
    """Exact d_l' by running the digit rules of the l-th return time over an
    exhaustive cell decomposition of the base.

    Cells carry an undetermined uniform digit tail.  The per-digit rows of
    the return-time recursion rewrite (cell, remaining index, accumulated
    time); cells whose row depends on the next digit split in three.  The
    one infinite regress, the first-return time of a uniform tail, is closed
    in exact form: stripping a leading 2 leaves the law invariant, so the
    time is h with probability 1/2 and h + 1 with probability 1/2.
    """
    if k < 0:
        raise DomainError(f"stage {k} < 0")
    if l < 0:
        raise DomainError(f"l = {l} < 0")
    h = _h(k)
    half = Fraction(1, 2)
    dist: dict[int, Fraction] = {}

    def emit(n: int, m: Fraction) -> None:
        dist[n] = dist.get(n, Fraction(0)) + m

    # states: (next digit or None for a fresh uniform tail, shift, index, mass)
    stack: list[tuple[int | None, int, int, Fraction]] = [(None, 0, l, Fraction(1))]
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
                emit(shift + h, half * mass)
                emit(shift + h + 1, half * mass)
        elif a is None:
            third = Fraction(1, 3) * mass
            stack.extend((d, shift, m, third) for d in (0, 1, 2))
        elif s == 1:
            if a == 0:
                stack.append((None, shift + (2 * q + 1) * h + q, q, mass))
            elif a == 1:
                stack.append((None, shift + (2 * q + 1) * h + q + 1, q, mass))
            else:
                stack.append((None, shift + 2 * q * h + q, q + 1, mass))
        else:
            if a == 0:
                stack.append((None, shift + (2 * q + 2) * h + q + 1, q, mass))
            elif a == 1:
                stack.append((None, shift + (2 * q + 1) * h + q + 1, q + 1, mass))
            else:
                stack.append((None, shift + (2 * q + 1) * h + q, q + 1, mass))

    lo, hi = min(dist), max(dist)
    if set(dist) != set(range(lo, hi + 1)):
        raise DomainError(f"enumerated support of d_{l}' is not an integer interval")
    return EnumeratedDistribution(k, l, lo, tuple(dist[n] for n in range(lo, hi + 1)))


# ---------------------------------------------------------------------------
# smoothing polynomials, partial-sum order, lazy-walk polynomials

@dataclass(frozen=True)
class PhiPolynomial:
    """Coefficients c_0..c_m of sum c_i phi^i, phi the half-step smoothing operator."""

    coeffs: tuple[Fraction, ...]


_phi_cache: dict[int, PhiPolynomial] = {
    0: PhiPolynomial((Fraction(1),)),
    1: PhiPolynomial((Fraction(0), Fraction(1))),
}


def phi_repr(l: int) -> PhiPolynomial:
    """The unique smoothing-polynomial representation of the profile D_l."""
    if l < 0:
        raise DomainError(f"l = {l} < 0")
    if l in _phi_cache:
        return _phi_cache[l]
    q, r = divmod(l, 3)
    if r == 0:
        poly = phi_repr(q)
    elif r == 1:
        poly = _mix(phi_repr(q), phi_repr(q + 1))
    else:
        poly = _mix(phi_repr(q + 1), phi_repr(q))
    _phi_cache[l] = poly
    return poly


def _mix(shifted: PhiPolynomial, plain: PhiPolynomial) -> PhiPolynomial:
    """(2/3) phi * shifted + (1/3) plain."""
    two_thirds = Fraction(2, 3)
    third = Fraction(1, 3)
    a = (Fraction(0),) + tuple(two_thirds * c for c in shifted.coeffs)
    b = tuple(third * c for c in plain.coeffs)
    n = max(len(a), len(b))
    a += (Fraction(0),) * (n - len(a))
    b += (Fraction(0),) * (n - len(b))
    return PhiPolynomial(tuple(x + y for x, y in zip(a, b)))


def walk_poly(n: int) -> PhiPolynomial:
    """((1/3) phi + (2/3))^n, the lazy-walk smoothing polynomial F_n."""
    third = Fraction(1, 3)
    two_thirds = Fraction(2, 3)
    return PhiPolynomial(tuple(comb(n, i) * third ** i * two_thirds ** (n - i)
                               for i in range(n + 1)))


def precedes(f: PhiPolynomial, g: PhiPolynomial) -> bool:
    """Partial-sum order: every coefficient prefix sum of f is <= that of g.

    For unit-total polynomials this pushes mass toward higher smoothing
    powers, so f precedes g implies center(f) <= center(g).
    """
    n = max(len(f.coeffs), len(g.coeffs))
    sf = sg = Fraction(0)
    for i in range(n):
        sf += f.coeffs[i] if i < len(f.coeffs) else 0
        sg += g.coeffs[i] if i < len(g.coeffs) else 0
        if sf > sg:
            return False
    return True


def center_value(poly: PhiPolynomial) -> Fraction:
    """Value at the origin of the profile the polynomial represents.

    On cells [j/2, (j+1)/2) the unit box is 1 on cells -1 and 0, and phi
    averages each cell's two neighbours, so phi^i of the box at the origin
    is the chance that a +-1 walk of i steps from cell 0 ends in cell 0 or 1:
    C(i, floor(i/2)) / 2^i.
    """
    return sum((c * Fraction(comb(i, i // 2), 2 ** i) for i, c in enumerate(poly.coeffs)),
               Fraction(0))
