"""Return-time distributions, their supports, profiles, and correlation sums.

The normalized l-th return-time distribution d_l' is computed exactly by the
three-branch recursion on l, walked over the ternary digits of l.  One memo
keyed by l holds its stage-free shape; at stage k it starts at l*h_k plus a
stage-free offset.  Support endpoints have a closed form in l, h_k and the
balanced-ternary weight of l, so membership queries never materialize masses
and finding the indices that meet a window of times costs the window's
width, not its offset.  The L1 estimates on the centered profiles D_l are
integer sums over the same numerators.  Nothing here caps the size of its
input: the command line does, before it calls in.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from . import tower
from .triadic import DomainError


# ---------------------------------------------------------------------------
# balanced-ternary weights

def compute_bl(l: int) -> int:
    """Support size b_l = 1 + the number of nonzero balanced-ternary digits of l."""
    if l < 0:
        raise DomainError(f"l = {l} < 0")
    b = 1
    while l:
        # the low digit is l % 3 read as 0, 1 or -1; the rest of l is (l + 1) // 3
        b += l % 3 != 0
        l = (l + 1) // 3
    return b


def support_weights(l_max: int) -> list[int]:
    """[b_0, ..., b_l_max] by b_3q = b_q, b_(3q+1) = b_q + 1 and
    b_(3q+2) = b_(q+1) + 1: each round triples the list b_0..b_(n-1) into
    b_0..b_(3n-2) by three slice assignments."""
    b = [1, 2]
    while len(b) <= l_max:
        up = [x + 1 for x in b]
        tripled = [0] * (3 * len(b) - 1)
        tripled[0::3] = b
        tripled[1::3] = up
        tripled[2::3] = up[1:]
        b = tripled
    return b[:l_max + 1]


# ---------------------------------------------------------------------------
# supports

def support(k: int, l: int) -> tuple[int, int]:
    """Support interval [s_l, t_l] of d_l at stage k, in closed form:
    s_l = l*h + (l - b_l + 1)/2 and t_l = l*h + (l + b_l - 1)/2, h = h_k.

    Proof.  b_0 = 1, b_1 = 2, b_3q = b_q, b_(3q+1) = b_q + 1 and
    b_(3q+2) = b_(q+1) + 1, so by induction |b_(m+1) - b_m| = 1 (the step
    from 3q+1 to 3q+2 is b_(q+1) - b_q) and b_m = m + 1 mod 2.  Induct on l
    along the three-branch recursion of `_step`, where the support of d_l'
    is the hull of its pieces; write d_m + c for d_m' shifted by c, which spans
    [s_m + c, t_m + c].  The form holds at l = 0 and 1.  For l = 3q + r >= 2
    let S, T be the form at l and d = (1 + b_q - b_(q+1))/2, in {0, 1}.
    r = 0: b_l = b_q; the one piece d_q + 2qh + q spans [S, T].
    r = 1: b_l = b_q + 1; the pieces d_q + (2q+1)h + q, d_q + (2q+1)h + q + 1
      and d_(q+1) + 2qh + q span [S, T-1], [S+1, T] and [S+d, T-d].
    r = 2: b_l = b_(q+1) + 1; the pieces d_q + (2q+2)h + q + 1,
      d_(q+1) + (2q+1)h + q + 1 and d_(q+1) + (2q+1)h + q span
      [S+1-d, T-1+d], [S+1, T] and [S, T-1].
    In each case the hull is [S, T].
    """
    return support_span(tower.height(k), l, compute_bl(l))


def support_span(h: int, l: int, b: int) -> tuple[int, int]:
    """[s_l, t_l] from h = h_k, l and b = b_l: the closed form of `support`."""
    return l * h + (l - b + 1) // 2, l * h + (l + b - 1) // 2


def find_Pn(k: int, n: int) -> list[int]:
    """All l with d_l(n) > 0.  The set is a contiguous run of indices."""
    if n < 0:
        raise DomainError(f"n = {n} < 0")
    return list(support_run(k, n, n))


def support_run(k: int, n_lo: int, n_hi: int) -> range:
    """All l whose support [s_l, t_l] meets [n_lo, n_hi], a contiguous run.

    s_l <= l*(2h+1)/2 <= t_l and both rise by h or h + 1 per step, so the
    run starts at most floor(2*n_lo/(2h+1)) + 1 and ends after
    floor(2*n_hi/(2h+1)), each end a few steps from there.
    """
    step = 2 * tower.height(k) + 1
    lo = 2 * n_lo // step + 1
    while lo and support(k, lo - 1)[1] >= n_lo:
        lo -= 1
    hi = 2 * n_hi // step + 1
    while support(k, hi)[0] <= n_hi:
        hi += 1
    return range(lo, hi)


# ---------------------------------------------------------------------------
# mass recursion

@dataclass(frozen=True)
class ReturnDistribution:
    """Exact normalized distribution d_l' on [start, start+len(nums)-1].

    Mass i is nums[i] / (2 * 3^e): every mass of d_l' has a denominator
    dividing 2 * 3^e, so the recursion and the correlation sums over l are
    integer sums.  The un-normalized d_l at stage k is (2 / 3^(k+1)) times
    d_l'.  All masses are positive; they sum to 1.
    """

    start: int
    nums: tuple[int, ...]
    e: int

    @property
    def end(self) -> int:
        return self.start + len(self.nums) - 1

    @property
    def support_size(self) -> int:
        return len(self.nums)

    @property
    def masses(self) -> tuple[Fraction, ...]:
        """The masses as reduced Fractions, built from nums on each read."""
        den = 2 * 3 ** self.e
        return tuple(Fraction(m, den) for m in self.nums)


# (o_l, nums, e) of every d_l' built so far, keyed by l; it lives as long as the process
Shape = tuple[int, tuple[int, ...], int]
_shapes: dict[int, Shape] = {0: (0, (2,), 0), 1: (0, (1, 1), 0)}


def compute_dl(k: int, l: int) -> ReturnDistribution:
    """d_l' at stage k: the memoized shape (o_l, nums, e) of l, starting at l*h_k + o_l."""
    o, nums, e = _shape(l)
    return ReturnDistribution(l * tower.height(k) + o, nums, e)


def _shape(l: int) -> Shape:
    """(o_l, nums, e) of d_l', without recursion: the walk l -> l // 3 stops at
    the first m with m and m + 1 both known (at worst m = 0).  Going back up,
    each pair (3q + r, 3q + r + 1) of the walk is built from the pair (q, q + 1)
    below it."""
    if l < 0:
        raise DomainError(f"l = {l} < 0")
    if l in _shapes:
        return _shapes[l]
    walk = []
    while l not in _shapes or l + 1 not in _shapes:
        walk.append(l)
        l //= 3
    for m in reversed(walk):
        for x in (m, m + 1):
            if x not in _shapes:
                _shapes[x] = _step(x)
    return _shapes[walk[0]]


def _step(l: int) -> Shape:
    """The shape of l = 3q + r >= 2 from the known shapes of q and q + 1.

    The pieces are those of `support`'s proof.  Written as l*h + o, each
    start loses every multiple of h, which leaves the offsets below; o_l is
    the hull of the pieces."""
    q, r = divmod(l, 3)
    o, nums, e = _shapes[q]
    if r == 0:
        return o + q, nums, e
    o1, nums1, e1 = _shapes[q + 1]
    if r == 1:
        return _combine([(o + q, nums, e), (o + q + 1, nums, e), (o1 + q, nums1, e1)])
    return _combine([(o + q + 1, nums, e), (o1 + q + 1, nums1, e1), (o1 + q, nums1, e1)])


def _combine(pieces: Sequence[Shape]) -> Shape:
    """One third of each piece (offset, nums, e_p), summed over their hull: a
    piece of exponent e_p is scaled by 3^(e - e_p) to the common exponent e,
    and the third makes e + 1."""
    e = max(p_e for _, _, p_e in pieces)
    lo = min(o for o, _, _ in pieces)
    acc = [0] * (max(o + len(nums) for o, nums, _ in pieces) - lo)
    for o, nums, p_e in pieces:
        scale = 3 ** (e - p_e)
        for i, m in enumerate(nums, o - lo):
            acc[i] += m * scale
    return lo, tuple(acc), e + 1


# ---------------------------------------------------------------------------
# correlations

def mu_Ak(k: int) -> Fraction:
    """Measure of the base cell A_k."""
    if k < 0:
        raise DomainError(f"stage {k} < 0")
    return Fraction(2, 3 ** (k + 1))


def correlation_series(k: int, n_lo: int, n_hi: int) -> list[Fraction]:
    """[c_k(n) for n in n_lo..n_hi], exactly, in one pass."""
    nums, p = series_numerators(k, n_lo, n_hi)
    den = 3 ** p
    return [Fraction(a, den) for a in nums]


def series_numerators(k: int, n_lo: int, n_hi: int) -> tuple[list[int], int]:
    """Integers a_n and p with c_k(n) = a_n / 3^p for n in n_lo..n_hi.

    c_k(n) = mu(A_k) * sum of d_l'(n) over l in P_n.  Every d_l' whose
    support meets the window is scattered into one integer array over the
    largest exponent E among them, so that p = E + k + 1.
    """
    if n_lo < 0:
        raise DomainError(f"n = {n_lo} < 0")
    dists = [compute_dl(k, l) for l in support_run(k, n_lo, n_hi)]
    e_max = max((d.e for d in dists), default=0)
    acc = [0] * (n_hi - n_lo + 1)
    for d in dists:
        scale = 3 ** (e_max - d.e)
        lo = max(d.start, n_lo)
        for i, m in enumerate(d.nums[lo - d.start:n_hi - d.start + 1], lo - n_lo):
            acc[i] += m * scale
    return acc, e_max + k + 1


def autocorrelation(k: int, n: int) -> Fraction:
    """mu(A_k intersect T^-n A_k), exactly, via the integer sum over P_n."""
    n = abs(n)
    return correlation_series(k, n, n)[0]


def cell_correlation(cells_a: Iterable[int], cells_b: Iterable[int], k: int, n: int) -> Fraction:
    """mu(A intersect T^-n B) for A, B finite unions of stage-k tower cells.

    Cells are given by their level numbers m, i.e. A = union of T^m A_k.
    """
    cells_a, cells_b = list(cells_a), list(cells_b)
    h = tower.height(k)
    for m in cells_a + cells_b:
        if not 0 <= m < h:
            raise DomainError(f"cell {m} outside stage-{k} tower")
    return sum((autocorrelation(k, n + m1 - m2) for m1 in cells_a for m2 in cells_b),
               Fraction(0))


def cesaro_totals(k: int, big_n: int) -> tuple[Iterator[int], int]:
    """Integers T_1, ..., T_N and den with C_M = T_M / (den * M).

    Every check runs, and the series is computed, at the call; the running
    sums are formed as the iterator is read.
    """
    if big_n < 1:
        raise DomainError(f"N = {big_n} < 1")
    mu = mu_Ak(k)
    corr, p = series_numerators(k, 0, big_n - 1)
    # every term over den = 3^max(p, 2k+2), so the running sum is an integer
    den = 3 ** max(p, 2 * k + 2)
    scale = den // 3 ** p
    target = int(mu ** 2 * den)
    return accumulate(abs(scale * c - target) for c in corr), den


# ---------------------------------------------------------------------------
# profiles

def profile_gap(family: Iterable[tuple[int, int]]) -> Fraction:
    """Integral of max - min over the profiles D_l(. - i/2), (l, i) in family.

    D_l is the even step function of d_l' re-centered about the origin on
    half-width cells [j/2, (j+1)/2): each mass covers two consecutive cells,
    and at every stage the first cell of D_l(. - i/2) is 2*o_l - l - 1 + i.
    Over the largest exponent e in the family every cell value is an integer
    over 2 * 3^e, so the cell sum is an integer and the integral is that sum
    over 4 * 3^e.  For two profiles this is their L1 distance.
    """
    members = []
    for l, i in family:
        o, nums, e = _shape(l)
        members.append((nums, e, 2 * o - l - 1 + i))
    e_max = max(e for _, e, _ in members)
    lo = min(first for _, _, first in members)
    hi = max(first + 2 * len(nums) for nums, _, first in members)
    rows = []
    for nums, e, first in members:
        scale = 3 ** (e_max - e)
        cells = [v for m in nums for v in (m * scale,) * 2]
        rows.append([0] * (first - lo) + cells + [0] * (hi - first - len(cells)))
    return Fraction(sum(max(col) - min(col) for col in zip(*rows)), 4 * 3 ** e_max)


def H_value(l: int) -> Fraction:
    """Peak height H_l = D_l(0), the mass of d_l' at (l + 1 - 2*o_l) // 2."""
    o, nums, e = _shape(l)
    return Fraction(nums[(l + 1 - 2 * o) // 2], 2 * 3 ** e)
