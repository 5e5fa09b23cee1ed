"""Return-time distributions, their supports, profiles, and correlation sums.

The normalized l-th return-time distribution d_l' is computed exactly by the
three-branch recursion on l.  Its masses and an offset o_l do not depend on
the stage: at stage k it starts at l*h_k + o_l.  A contiguous run of these
shapes is built at once, level by level up from the run of the l // 3 below
it, with each shape's masses packed into one integer, one limb per mass, so
that a piece of the recursion and a term of a correlation sum are each one
shifted add.  Nothing is kept once the call returns.  Support endpoints
have a closed form in l, h_k and the balanced-ternary weight of l, so
membership queries never materialize masses and finding the indices that
meet a window of times costs the window's width, not its offset.  The
deviations |c_k(n) - mu(A_k)^2| have one reader, `deviation_blocks`, for
the Cesaro totals and the checks' block maxima.  `blocks` cuts a window
into blocks of BLOCK times, one series each, for it and for the corr and dl
rows, so what any of them holds at once is set by the block, not by the
window.  The L1 estimates on the centered profiles D_l are integer sums over
the numerators of one stage-0 run.  Nothing here caps the size of its
input: the command line does, before it calls in.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from itertools import accumulate, chain
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import tower
from .triadic import DomainError

# times per block of a streamed window: `deviation_blocks` and the corr command
# read a window BLOCK times at a time, and the dl command BLOCK // 27 indices,
# each of which holds a few masses; a block's series, rows and value table,
# not the window, set what a command holds at once
BLOCK = 3 ** 8


# ---------------------------------------------------------------------------
# balanced-ternary weights

def _six_digit_weights() -> bytes:
    """NZ6: byte v is the number of nonzero digits of v - 364 in six
    balanced-ternary digits, for v = 0..728.  Built digit by digit: d + 1
    digits write t*3^d + m, with t in {-1, 0, 1} the top digit and m one of
    the d-digit values, which fill [-(3^d - 1)/2, (3^d - 1)/2]; so in order
    of value the table for d + 1 digits is that for d digits with one
    added, then as it is, then with one added again."""
    table = b"\0"
    for _ in range(6):
        up = bytes(c + 1 for c in table)
        table = up + table + up
    return table


NZ6 = _six_digit_weights()


def compute_bl(l: int) -> int:
    """Support size b_l = 1 + the number of nonzero balanced-ternary digits of l,
    read six digits per step.

    Proof.  Six balanced digits write 3^6 = 729 distinct integers, each of
    size at most 1 + 3 + ... + 3^5 = 364, so they write exactly
    [-364, 364], one value for each residue mod 729.  If l has low six
    digits worth r and the rest worth m, then l = r + 729m, so r is the
    residue of l in [-364, 364], r = ((l + 364) mod 729) - 364, and
    m = (l - r) / 729 = (l + 364) // 729; the digits of l above the sixth
    are those of m, since a balanced-ternary expansion is unique.  So l
    has NZ6[(l + 364) % 729] nonzero digits below 3^6 and those of
    (l + 364) // 729 above.
    """
    if l < 0:
        raise DomainError(f"l = {l} < 0")
    b = 1
    while l:
        l += 364
        b += NZ6[l % 729]
        l //= 729
    return b


# ---------------------------------------------------------------------------
# supports

def support(k: int, l: int) -> tuple[int, int]:
    """Support interval [s_l, t_l] of d_l at stage k, in closed form:
    s_l = l*h + (l - b_l + 1)/2 and t_l = l*h + (l + b_l - 1)/2, h = h_k.

    Proof.  b_0 = 1, b_1 = 2, b_3q = b_q, b_(3q+1) = b_q + 1 and
    b_(3q+2) = b_(q+1) + 1, so by induction |b_(m+1) - b_m| = 1 (the step
    from 3q+1 to 3q+2 is b_(q+1) - b_q) and b_m = m + 1 mod 2.  Induct on l
    along the three-branch recursion of `_shape_run`, where the support of d_l'
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


def support_run(k: int, n_lo: int, n_hi: int) -> range:
    """All l whose support [s_l, t_l] meets [n_lo, n_hi], a contiguous run.

    s_l = l*(2h+1)/2 - (b_l - 1)/2 and t_l = l*(2h+1)/2 + (b_l - 1)/2, with
    h = h_k, and both rise by h or h + 1 per step, so the run starts at most
    floor(2*n_lo/(2h+1)) + 1 and ends after floor(2*n_hi/(2h+1)).  Each end
    walks from there, one weight per step.  Down, every l the walk reaches
    has t_l >= n_lo, so l >= (2*n_lo - b_l + 1)/(2h+1); up, every l it
    passes has s_l <= n_hi, so l <= (2*n_hi + b_l - 1)/(2h+1).  So each end
    takes at most about (b_max - 1)/(2h + 1) steps, with b_max the largest
    weight walked: near 3^300 at k = 1, b_l reaches about 215 and 2h + 1 = 9,
    so a point evaluates about 47 weights, 24 or so at each end.
    """
    h = tower.height(k)
    lo = 2 * n_lo // (2 * h + 1) + 1
    while lo and support_span(h, lo - 1, compute_bl(lo - 1))[1] >= n_lo:
        lo -= 1
    hi = 2 * n_hi // (2 * h + 1) + 1
    while support_span(h, hi, compute_bl(hi))[0] <= n_hi:
        hi += 1
    return range(lo, hi)


# ---------------------------------------------------------------------------
# mass recursion

class ReturnDistribution(NamedTuple):
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


# (o_l, packed, e_l, len_l): d_l' starts at l*h_k + o_l at every stage k, and
# its mass i is limb i of packed (bits i*w to (i+1)*w - 1) over 2 * 3^e_l
Shape = tuple[int, int, int, int]


def _shape_run(a: int, b: int) -> tuple[list[Shape], int]:
    """The shapes of d_a', ..., d_b' and their limb width w, without recursion.

    The run [a, b] is built from the run [a // 3, ceil(b / 3)], which holds
    the q and q + 1 that each l = 3q + r reads, and so on down to a run
    inside the bases l = 0, 1 (l = 1 = 3*0 + 1 would read itself).  The
    pieces and the hull are those of `support`'s proof: with
    d = o_(q+1) - o_q in {0, 1}, the pieces of r = 1 start 0, 1 and d limbs
    above o_l = o_q + q, and those of r = 2 start 1 - d, 1 and 0 limbs above
    o_l = o_(q+1) + q, so each piece is one shifted add.  The pieces are
    scaled to the larger exponent e of q and q + 1, and a third of each
    makes e + 1.  So e rises by at most 1 per level, and every mass, and
    every sum of masses that `series_numerators` forms, is at most
    2 * 3^levels: w is that many bits, rounded up to a multiple of 64.  Only
    two levels of shapes are held at a time.
    """
    runs = [(a, b)]
    while b > 1:
        a, b = a // 3, -(-b // 3)
        runs.append((a, b))
    w = -(-(2 * 3 ** (len(runs) - 1)).bit_length() // 64) * 64
    base = [(0, 2, 0, 1), (0, 1 + (1 << w), 0, 2)]
    lo, hi = runs.pop()
    shapes = base[lo:hi + 1]
    for a, b in reversed(runs):
        level = []
        for l in range(a, b + 1):
            q, r = divmod(l, 3)
            o, p, e, n = shapes[q - lo]
            if r == 0:
                level.append((o + q, p, e, n))
                continue
            if l == 1:
                level.append(base[1])
                continue
            o1, p1, e1, n1 = shapes[q + 1 - lo]
            if e > e1:
                p1 *= 3 ** (e - e1)
            elif e1 > e:
                p, e = p * 3 ** (e1 - e), e1
            if r == 1:
                level.append((o + q, p + (p << w) + (p1 << w * (o1 - o)), e + 1, n + 1))
            else:
                level.append((o1 + q, (p << w * (1 + o - o1)) + p1 + (p1 << w), e + 1, n1 + 1))
        shapes, lo = level, a
    return shapes, w


def _limbs(packed: int, first: int, count: int, w: int) -> list[int]:
    """Limbs first .. first + count - 1 of packed, w bits each, lowest first;
    a limb below limb 0 reads 0."""
    if first < 0:
        packed, first = packed << w * -first, 0
    size = w // 8
    end = (first + count) * size
    raw = memoryview(packed.to_bytes(max(end, (packed.bit_length() + 7) // 8), "little"))
    raw = raw[first * size:end]
    if w > 64:
        return [int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)]
    limbs = array("Q")
    limbs.frombytes(raw)
    if sys.byteorder == "big":
        limbs.byteswap()
    return limbs.tolist()


def dl_run(k: int, a: int, b: int) -> list[ReturnDistribution]:
    """[d_a', ..., d_b'] at stage k, built as one run: d_l' starts at l*h_k + o_l."""
    if a < 0:
        raise DomainError(f"l = {a} < 0")
    h = tower.height(k)
    if b < a:
        return []
    shapes, w = _shape_run(a, b)
    return [ReturnDistribution(l * h + o, tuple(_limbs(p, 0, n, w)), e)
            for l, (o, p, e, n) in enumerate(shapes, a)]


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

    c_k(n) = mu(A_k) * sum of d_l'(n) over l in P_n.  The run of every d_l'
    whose support meets the window is built at once; each packed shape is
    scaled to the largest exponent E of the run, so that p = E + k + 1, and
    the shapes are summed pairwise, as a balanced tree of shifted adds, over
    the limbs of their times.  Each limb sum is at most 2 * 3^E, since
    c_k(n) <= mu(A_k), so no limb carries into the next.
    """
    if n_lo < 0:
        raise DomainError(f"n = {n_lo} < 0")
    width = n_hi - n_lo + 1
    run = support_run(k, n_lo, n_hi)
    if not run:
        return [0] * width, k + 1
    pieces, w = _shape_run(run[0], run[-1])
    h = tower.height(k)
    e_max = max(e for _, _, e, _ in pieces)
    # (first time, masses over 2 * 3^E) of each shape, bound to the same name
    # so that the shapes are freed before the pairwise sums of neighbours
    pieces = [(l * h + o, p * 3 ** (e_max - e)) for l, (o, p, e, _) in enumerate(pieces, run[0])]
    while len(pieces) > 1:
        merged = [(s, p + (p1 << w * (s1 - s)))
                  for (s, p), (s1, p1) in zip(pieces[::2], pieces[1::2])]
        pieces = merged + pieces[len(merged) * 2:]
    (start, total), = pieces
    return _limbs(total, n_lo - start, width, w), e_max + k + 1


def autocorrelation(k: int, n: int) -> Fraction:
    """mu(A_k intersect T^-n A_k), exactly, via the integer sum over P_n."""
    n = abs(n)
    (a,), p = series_numerators(k, n, n)
    return Fraction(a, 3 ** p)


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


def blocks(window: range, size: int) -> Iterator[range]:
    """window in consecutive pieces of at most size values."""
    return (window[i:i + size] for i in range(0, len(window), size))


def deviation_blocks(k: int, n_lo: int, n_hi: int) -> tuple[Iterator[list[int]], int]:
    """Lists of at most BLOCK consecutive d_n, in order, and den: integers with
    |c_k(n) - mu(A_k)^2| = d_n / den for n in n_lo..n_hi.  Every check runs
    and den is fixed at the call; each list is one `series_numerators` call,
    made as the iterator reaches it; its numerators are gone before it is read.

    den = 3^max(L + k + 1, 2k + 2), with L = 0 for an empty support run and
    else L(l_top), l_top its last index, L(m) = 0 for m <= 1 and
    1 + L(ceil(m/3)) otherwise.  A block's series is over 3^(E + k + 1), E the
    largest e_l of its run, which lies inside the window's: so it and
    mu(A_k)^2 = 4 / 3^(2k + 2) are integers over den once every e_l <= L(l_top).

    Proof.  L is nondecreasing, since ceil(m/3) is.  `_shape_run` gives
    e_0 = e_1 = 0, and for l = 3q + r >= 2, e_l = e_q if r = 0 and
    max(e_q, e_(q+1)) + 1 otherwise.  Induct on l: for r = 0,
    e_l = e_q <= L(q) <= L(l); for r > 0, q + 1 = ceil(l/3), so
    e_l <= L(q + 1) + 1 = L(l).  Then e_l <= L(l) <= L(l_top).
    """
    mu = mu_Ak(k)
    if n_lo < 0:
        raise DomainError(f"n = {n_lo} < 0")
    top, levels = (support_run(k, n_lo, n_hi) or [0])[-1], 0
    while top > 1:
        top, levels = -(-top // 3), levels + 1
    den = 3 ** max(levels + k + 1, 2 * k + 2)
    target = int(mu ** 2 * den)

    def read(block: range) -> list[int]:
        nums, p = series_numerators(k, block[0], block[-1])
        scale = den // 3 ** p
        return [abs(scale * c - target) for c in nums]

    return map(read, blocks(range(n_lo, n_hi + 1), BLOCK)), den


def cesaro_totals(k: int, big_n: int) -> tuple[Iterator[int], int]:
    """Integers T_1, ..., T_N and den with C_M = T_M / (den * M): the running
    sums of `deviation_blocks(k, 0, N - 1)`, with its den and its checks."""
    if big_n < 1:
        raise DomainError(f"N = {big_n} < 1")
    devs, den = deviation_blocks(k, 0, big_n - 1)
    return accumulate(chain.from_iterable(devs)), den


# ---------------------------------------------------------------------------
# profiles

def profile_gap(family: Iterable[tuple[int, int]], run: Sequence[ReturnDistribution]) -> Fraction:
    """Integral of max - min over the profiles D_l(. - i/2), (l, i) in family.

    D_l is the even step function of d_l' re-centered about the origin on
    half-width cells [j/2, (j+1)/2): each mass covers two consecutive cells,
    and at every stage the first cell of D_l(. - i/2) is 2*o_l - l - 1 + i.
    Over the largest exponent e in the family every cell value is an integer
    over 2 * 3^e, so the cell sum is an integer and the integral is that sum
    over 4 * 3^e.  For two profiles this is their L1 distance.  The doubled,
    scaled cells of each distinct l are built once, as one row padded with
    the family's width of zeros on both sides, and each member (l, i) reads
    its cells as a slice of that row.  run is `dl_run(0, 0, L)` for an L no
    less than any l of the family.
    """
    # at stage 0, h = 1, so o_l = start - l
    members = [(l, 2 * run[l].start - 3 * l - 1 + i) for l, i in family]
    e_max = max(run[l].e for l, _ in members)
    lo = min(first for _, first in members)
    width = max(first + 2 * len(run[l].nums) for l, first in members) - lo
    padded = {}
    for l in {l for l, _ in members}:
        scale = 3 ** (e_max - run[l].e)
        padded[l] = [0] * width + [v for m in run[l].nums for v in (m * scale,) * 2] + [0] * width
    # a member's cells begin first - lo cells into its row
    rows = [padded[l][width + lo - first:2 * width + lo - first] for l, first in members]
    # rows[0] again changes no max or min, and lets a family of one profile map
    return Fraction(sum(map(max, rows[0], *rows)) - sum(map(min, rows[0], *rows)),
                    4 * 3 ** e_max)


def envelope_gaps(l: int, p_bound: int, run: Sequence[ReturnDistribution]) -> list[Fraction]:
    """[gap(l, p) for p = 1..p_bound], where gap(l, p) is the `profile_gap` of
    the family D_(l+j)(. - i/2), 0 <= j <= 2, |i| <= p, read from three rows.

    The doubled, scaled cells of D_l, D_(l+1) and D_(l+2) are laid on one
    half-cell grid, padded by p_bound zero cells on each side; E_0 is their
    cellwise max.  The family's max at cell x is E_p(x), the max of E_0 over
    [x - p, x + p]: E_1 is the max of E_0 at x - 1, x and x + 1, and for
    p >= 2, E_p(x) = max(E_(p-1)(x - 1), E_(p-1)(x + 1)), since those two
    windows are [x - p, x + p - 2] and [x - p + 2, x + p], whose union is
    [x - p, x + p] once x + p - 2 >= x - p + 1, that is p >= 2.  The min
    envelope is the same steps with min.  Every row is 0 off its support, so
    both envelopes are 0 more than p cells outside the rows' hull, which the
    padding covers for every p <= p_bound, and a cell shifted in from beyond
    the grid reads 0.  As in `profile_gap`, each gap is the cell sum of max
    - min over 4 * 3^e, e the largest exponent of the three.  run is
    `dl_run(0, 0, L)` for an L >= l + 2.
    """
    dists = run[l:l + 3]
    e_max = max(d.e for d in dists)
    # at stage 0 the first cell of D_m is 2*start - 3m - 1, as in `profile_gap`
    firsts = [2 * d.start - 3 * m - 1 for m, d in enumerate(dists, l)]
    lo = min(firsts) - p_bound
    width = max(first + 2 * len(d.nums) for first, d in zip(firsts, dists)) + p_bound - lo
    rows = []
    for first, d in zip(firsts, dists):
        scale = 3 ** (e_max - d.e)
        row = [0] * width
        row[first - lo:first - lo + 2 * len(d.nums)] = [v for m in d.nums for v in (m * scale,) * 2]
        rows.append(row)
    # the cell sums of E_1 .. E_p_bound, for max and then for min
    sums = []
    for pick in (max, min):
        env = list(map(pick, *rows))
        env = list(map(pick, [0] + env[:-1], env, env[1:] + [0]))
        sums.append([sum(env)])
        for _ in range(p_bound - 1):
            env = list(map(pick, [0] + env[:-1], env[1:] + [0]))
            sums[-1].append(sum(env))
    return [Fraction(top - bottom, 4 * 3 ** e_max) for top, bottom in zip(*sums)]


def H_value(l: int, run: Sequence[ReturnDistribution]) -> Fraction:
    """Peak height H_l = D_l(0), the mass of d_l' at (l + 1 - 2*o_l) // 2;
    run is `dl_run(0, 0, L)` for an L >= l, as for `profile_gap`."""
    d = run[l]
    return Fraction(d.nums[(3 * l + 1 - 2 * d.start) // 2], 2 * 3 ** d.e)
