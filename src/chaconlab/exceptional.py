"""Exceptional-set machinery: the generic extractor, the explicit
constructions for the Chacon transformation and the zero-correlation times.
The growth bound on their counts and the block maxima off J_k are checks,
in `checks`.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import tower
from .correlation import support
# InputError is defined beside DomainError, and importable from here too
from .triadic import DomainError, InputError


# largest x that HFunction.inverse_ceil searches
INVERSE_BOUND = 2.0 ** 512


# ---------------------------------------------------------------------------
# integer interval sets

class IntegerIntervalSet:
    """Sorted disjoint union of inclusive integer intervals [a, b].

    The constructor takes its intervals in order of their starts and merges
    them in one pass: [a, b] opens a new piece when a > hi + 1, for the open
    piece [lo, hi], and otherwise extends it to max(hi, b), so touching,
    overlapping and nested neighbours become one piece.  Empty intervals
    (a > b) are skipped; a start below lo raises DomainError.
    """

    __slots__ = ("intervals", "_starts", "_cum")

    def __init__(self, intervals: Iterable[tuple[int, int]] = ()):
        pieces: list[tuple[int, int]] = []
        lo = hi = None
        for a, b in intervals:
            if a > b:
                continue
            if hi is None or a > hi + 1:
                if hi is not None:
                    pieces.append((lo, hi))
                lo, hi = a, b
            elif a < lo:
                raise DomainError(f"interval [{a}, {b}] starts below the piece [{lo}, {hi}]")
            elif b > hi:
                hi = b
        if hi is not None:
            pieces.append((lo, hi))
        self.intervals: tuple[tuple[int, int], ...] = tuple(pieces)
        self._starts = [a for a, _ in self.intervals]
        self._cum = list(accumulate((b - a + 1 for a, b in self.intervals), initial=0))

    def __contains__(self, n: int) -> bool:
        i = bisect_right(self._starts, n) - 1
        return i >= 0 and n <= self.intervals[i][1]

    def __len__(self) -> int:
        return self._cum[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegerIntervalSet) and self.intervals == other.intervals

    def count(self, n: int) -> int:
        """|set intersect [0, n]| (the set never holds negatives here)."""
        i = bisect_right(self._starts, n) - 1
        if i < 0:
            return 0
        a, b = self.intervals[i]
        return self._cum[i] + min(n, b) - a + 1

    def counted(self) -> Iterator[tuple[int, int, int]]:
        """(a, b, count(b)) for each piece [a, b], in order, read from the
        running counts in one pass."""
        return ((a, b, c) for (a, b), c in zip(self.intervals, islice(self._cum, 1, None)))

    def clip(self, lo: int, hi: int) -> "IntegerIntervalSet":
        return IntegerIntervalSet(
            (max(a, lo), min(b, hi)) for a, b in self.intervals if b >= lo and a <= hi
        )

    def iter_points(self):
        for a, b in self.intervals:
            yield from range(a, b + 1)

    def __repr__(self) -> str:
        return f"IntegerIntervalSet({list(self.intervals)!r})"


# ---------------------------------------------------------------------------
# growth-function handles

class HFunction:
    """An increasing continuous function on the positive reals that diverges.

    Named families: linear, log, loglog, power:<alpha>, or a piecewise-linear
    table.  Provides float evaluation and an integer-ceiling inverse by
    doubling plus bisection.
    """

    def __init__(self, name: str, fn: Callable[[float], float]):
        self.name = name
        self._fn = fn

    def __call__(self, x: float) -> float:
        """h(x), or +inf where the increasing h overflows a float."""
        try:
            return self._fn(x)
        except OverflowError:
            return math.inf

    @classmethod
    def linear(cls) -> "HFunction":
        return cls("linear", lambda x: x)

    @classmethod
    def log(cls) -> "HFunction":
        return cls("log", lambda x: math.log(x) if x > 0 else -math.inf)

    @classmethod
    def loglog(cls) -> "HFunction":
        return cls("loglog", lambda x: math.log(math.log(x)) if x > 1 else -math.inf)

    @classmethod
    def power(cls, alpha: float) -> "HFunction":
        if not 0 < alpha < math.inf:
            raise DomainError(f"power exponent must be finite and positive, got {alpha}")
        return cls(f"power:{alpha:g}", lambda x: x ** alpha if x >= 0 else -math.inf)

    @classmethod
    def table(cls, points: Sequence[tuple[float, float]]) -> "HFunction":
        if not all(math.isfinite(v) for p in points for v in p):
            raise DomainError("table entries must be finite")
        pts = sorted(points)
        if len(pts) < 2:
            raise DomainError("table needs at least two points")
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        if any(x2 == x1 for x1, x2 in zip(xs, xs[1:])):
            raise DomainError("table x values must be distinct")
        if any(y2 <= y1 for y1, y2 in zip(ys, ys[1:])):
            raise DomainError("table values must be strictly increasing")

        def fn(x: float) -> float:
            i = min(max(bisect_left(xs, x), 1), len(xs) - 1)
            x0, x1, y0, y1 = xs[i - 1], xs[i], ys[i - 1], ys[i]
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

        return cls("table", fn)

    @classmethod
    def parse(cls, spec: str) -> "HFunction":
        if spec == "linear":
            return cls.linear()
        if spec == "log":
            return cls.log()
        if spec == "loglog":
            return cls.loglog()
        if spec.startswith("power:"):
            return cls.power(float(spec.split(":", 1)[1]))
        if spec.startswith("table:"):
            path = spec.split(":", 1)[1]
            points = []
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line or line.startswith("#") or line.lower().startswith("x,"):
                        continue
                    xs, ys = line.split(",")[:2]
                    points.append((float(xs), float(ys)))
            return cls.table(points)
        raise DomainError(f"unknown growth function {spec!r}")

    def inverse_ceil(self, y: float) -> int:
        """Smallest integer x >= 1 with h(x) >= y; OverflowError past INVERSE_BOUND."""
        hi = 1
        while self(hi) < y:
            hi *= 2
            if hi > INVERSE_BOUND:
                raise OverflowError(f"h^-1({y}) exceeds {INVERSE_BOUND}")
        lo = hi // 2 if hi > 1 else 0
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if self(mid) >= y:
                hi = mid
            else:
                lo = mid
        return hi


def g_cutoff(h: HFunction, k: int) -> int:
    """g(k): the integer ceiling of h^-1(3^(2k+2))."""
    # 3^647 is the least power of 3 past the largest float, and every larger
    # one overflows with the same message, so no layer builds a longer power
    return h.inverse_ceil(float(3 ** min(2 * k + 2, 647)))


# ---------------------------------------------------------------------------
# generic extractor

class ExtractionResult(NamedTuple):
    exceptional: IntegerIntervalSet
    thresholds: list[int]          # l_k for k = 1 .. len(thresholds)
    level_sets: list[IntegerIntervalSet]  # J_k for the same k range


class Column(NamedTuple):
    """A sequence of rationals as two integer lists: term i is num[i] / den[i],
    with den[i] > 0 and the pair not necessarily in lowest terms."""
    num: list[int]
    den: list[int]


# the extractor's largest level k
K_MAX = 32


def extract_exceptional(a: Column, b: Column, c: Column, n_max: int) -> ExtractionResult:
    """Construct the exceptional set from a deviation sequence and its rates.

    a_j for j <= n_max is the nonnegative deviation sequence, b_n a bound on
    its running Cesaro average, c_n a decreasing null sequence; each Column
    holds exactly the terms 0..n_max.  The level sets are {j : a_j > 1/k} for
    k = 1 .. K_MAX; each threshold l_k is the minimal window start from which
    the normalized count stays below 1/k (certified on the finite window
    only).

    Every comparison is made on integers.  a_j = p/q > 1/k exactly when
    k >= q//p + 1, so one sort of a gives every level set.  For n >= 1 with
    c_n > 0, c_n * cnt * k <= n * b_n exactly when
    cnt * k <= floor(n * b_n / c_n), because cnt * k is an integer; c_n <= 0
    always passes, since n * b_n >= 0 once the Cesaro bound holds.  At n = 0
    the test is cnt == 0.

    No pair needs to be in lowest terms, because every test reads a term only
    through a quantity that scaling its pair (p, q) to (g p, g q), g > 0,
    leaves unchanged.  The sign of a_j and of c_n is the sign of p, since
    q > 0.  The Cesaro test S > n * b_n is S_num * b_den > n * b_num * S_den,
    and c_n > c_(n-1) is c_num[n] * c_den[n-1] > c_num[n-1] * c_den[n]:
    scaling one term's pair multiplies both sides by g, which keeps the
    order.  The cap n * b_num * c_den // (b_den * c_num) is floor(n * b_n / c_n):
    scaling b's pair by g and c's by h multiplies its numerator and its
    denominator by g * h.  And q // p + 1 is floor(q / p) + 1.  The running
    sum S is a Fraction, built only at the terms with a_j != 0, and the
    Cesaro error prints it and b_n in lowest terms.
    """
    if len(a.num) != n_max + 1 or len(b.num) != n_max + 1 or len(c.num) != n_max + 1:
        raise InputError(f"sequences must cover indices 0..{n_max}")
    (a_num, a_den), (b_num, b_den), (c_num, c_den) = a, b, c
    if any(p < 0 for p in a_num):
        raise InputError("deviation sequence has a negative entry")
    running = Fraction(0)
    s_num, s_den = 0, 1
    for n in range(1, n_max + 1):
        if a_num[n - 1]:
            running += Fraction(a_num[n - 1], a_den[n - 1])
            s_num, s_den = running.numerator, running.denominator
        if s_num * b_den[n] > n * b_num[n] * s_den:
            raise InputError(f"Cesaro bound violated at n={n}: mean {running / n} > "
                             f"{Fraction(b_num[n], b_den[n])}")
    for n in range(1, n_max + 1):
        if c_num[n] * c_den[n - 1] > c_num[n - 1] * c_den[n]:
            raise InputError(f"c is not decreasing at n={n}")

    # cap_0 = 0 turns cnt * k <= cap_0 into cnt == 0
    caps = [0] + [n * b_num[n] * c_den[n] // (b_den[n] * c_num[n]) if c_num[n] > 0 else math.inf
                  for n in range(1, n_max + 1)]
    # (first k with a_j * k > 1, j) for every j that enters some level set, in j order
    firsts = [(a_den[j] // p + 1, j) for j, p in enumerate(a_num) if p]

    thresholds: list[int] = []
    level_sets: list[IntegerIntervalSet] = []
    jk = IntegerIntervalSet()
    prev_l = 0
    for k in range(1, K_MAX + 1):
        members = [j for first, j in firsts if first <= k]     # J_k, increasing
        if len(members) > len(jk):
            jk = IntegerIntervalSet((j, j) for j in members)
        # minimal start so the normalized count stays <= 1/k through the
        # window: walk the members down from the top; cnt = |J_k ∩ [0, n]|
        # is constant on [members[cnt - 1], hi], and cnt = 0 always passes
        ok_from = 0
        hi = n_max
        for cnt in range(len(members), 0, -1):
            lo = members[cnt - 1]
            bound = cnt * k
            if min(caps[lo:hi + 1]) < bound:
                ok_from = next(n for n in range(hi, lo - 1, -1) if caps[n] < bound) + 1
                break
            hi = lo - 1
        if ok_from > n_max:
            break
        lk = max(ok_from, prev_l)
        thresholds.append(lk)
        level_sets.append(jk)
        prev_l = lk

    # J is the union of J_k clipped to [l_k, l_(k+1)] (the last to n_max); the
    # level sets are nested, so j is in J exactly when it is in J_K for the
    # largest K with l_K <= j
    exceptional = IntegerIntervalSet(
        (j, j) for first, j in firsts if first <= bisect_right(thresholds, j))
    return ExtractionResult(exceptional, thresholds, level_sets)


# ---------------------------------------------------------------------------
# Chacon-specific constructions


def _weight_runs(c: int, lo: int, hi: int) -> Iterator[tuple[int, int, int, int]]:
    """(i, j, b_i, b_j) for each maximal run i..j of indices in [lo, hi],
    lo >= 0, with b_l - 1 <= c, in order, by one explicit-stack walk over
    the balanced-ternary digit tree.  A node fixes the digits of l above the
    m lowest, pw of them nonzero.  Node bound: it covers 3^m consecutive
    indices, whose weights b_l - 1 fill [pw, pw + m], with pw + m at both
    edges.  Proof.  The free digits add each integer of [-(3^m - 1)/2,
    (3^m - 1)/2] once and hold 0 to m nonzero digits, all -1 at the lower
    edge and all +1 at the upper.  So a node is skipped when pw > c, taken
    whole when pw + m <= c inside [lo, hi], reduced to its centre (free
    digits 0) when pw = c, and split into its three children otherwise.
    """
    powers = [1]
    while powers[-1] // 2 < hi:
        powers.append(3 * powers[-1])
    stack = [(-(powers[-1] // 2), len(powers) - 1, 0)]     # (lower edge, m, pw)
    run = None
    while stack:
        a, m, pw = stack.pop()
        b = a + powers[m] - 1
        if b < lo or a > hi or pw > c:
            continue
        if pw < c and (pw + m > c or a < lo or b > hi):
            m -= 1
            stack += ((a + 2 * powers[m], m, pw + 1), (a + powers[m], m, pw), (a, m, pw + 1))
            continue
        if pw + m > c:
            a = b = a + powers[m] // 2
            m = 0
            if not lo <= a <= hi:
                continue
        if run and run[1] + 1 == a:
            run = (run[0], b, run[2], 1 + pw + m)
        else:
            if run:
                yield run
            run = (a, b, 1 + pw + m, 1 + pw + m)
    if run:
        yield run


def _steps(p: int, b: int, end: int) -> Iterator[tuple[int, int, int]]:
    """(l, b_l, b_(l+1)) for l = p .. end - 1, from b = b_p, by the weight
    step: b_(l+1) = b_l + 1 when the lowest digit of l that is not +1 is 0,
    else b_l - 1.  Proof.  Adding 1 turns each trailing +1 into -1 and
    raises the next digit: 0 to +1 adds a nonzero digit, -1 to 0 drops one.
    The low digit is l % 3 read as 0, 1 or -1; above a +1 stands l // 3.
    """
    for p in range(p, end):
        q = p
        while q % 3 == 1:
            q //= 3
        after = b + 1 - q % 3
        yield p, b, after
        b = after


def _layers(h: HFunction, hk: int, n_max: int) -> Iterator[tuple[int, int, int]]:
    """(lo, hi, c) for each index layer [3^N, 3^(N+1)] of stage k, where J_k
    selects the indices with b_l < (log N)^2 h(N), that is b_l - 1 <= c.

    Natural logarithm; the N = 1 layer has threshold 0 (nan for loglog) and
    selects nothing.  The layers stop at the last index whose support can
    meet [0, n_max]: only l <= n_max // h_k can, since s_l >= l*h_k, and
    there b_l - 1 is at most the bit length B of n_max // h_k, so
    s_l = l*h_k + (l - b_l + 1)/2 <= n_max needs l*(2h_k + 1) <= 2*n_max + B.
    """
    l_max = (2 * n_max + (n_max // hk).bit_length()) // (2 * hk + 1)
    big_n = 1
    while 3 ** big_n <= l_max:
        threshold = math.log(big_n) ** 2 * h(big_n)
        if threshold > 0:
            lo = 3 ** big_n
            # an integer b < threshold exactly when b - 1 <= ceil(threshold) - 2;
            # every b_l of the layer is at most N + 3 (N + 2 digits), so the
            # clamp, which keeps an infinite threshold out of ceil, selects alike
            yield lo, min(3 * lo, l_max), math.ceil(min(threshold, big_n + 4)) - 2
        big_n += 1


def build_Jk(k: int, h: HFunction, n_max: int) -> IntegerIntervalSet:
    """Exceptional times for the base cell at stage k, on the window [0, n_max].

    Each maximal run i..j of selected indices (see `_layers` and
    `_weight_runs`) is split by the gap identity, for h = h_k and l >= 0:

        s_(l+1) - t_l - 1 = h + 1 - max(b_l, b_(l+1)).

    Proof.  By the closed form of `correlation.support`,
    s_(l+1) - t_l - 1 = h + (1 - b_l - b_(l+1))/2, and |b_l - b_(l+1)| = 1
    gives b_l + b_(l+1) = 2*max(b_l, b_(l+1)) - 1.

    So a gap stands between the supports of l and l + 1 exactly where both
    weights are <= h: where l and l + 1 share a run of the walk at
    c = min(h - 1, c_N), inside a selected run; `_steps` gives b at each
    split.  Between splits the supports meet or overlap, so they form the
    one interval [s_i, t_j].  s_l rises strictly with l, so the pieces come
    in the start order that IntegerIntervalSet merges in one pass.
    """
    hk = tower.height(k)
    if k < 1:
        raise DomainError(f"stage k must be >= 1, got {k}")

    def pieces():
        for lo, hi, c in _layers(h, hk, n_max):
            gaps = _weight_runs(min(hk - 1, c), lo, hi)
            gap = next(gaps, None)
            for i, j, bi, bj in _weight_runs(c, lo, hi):
                while gap and gap[0] <= j:
                    for p, b, after in _steps(gap[0], gap[2], gap[1]):
                        yield i * hk + (i - bi + 1) // 2, p * hk + (p + b - 1) // 2
                        i, bi = p + 1, after
                    gap = next(gaps, None)
                yield i * hk + (i - bi + 1) // 2, j * hk + (j + bj - 1) // 2

    return IntegerIntervalSet(pieces()).clip(0, n_max)


class GlobalJ(NamedTuple):
    """The global exceptional set on a finite window, layer by layer."""

    jset: IntegerIntervalSet
    layers: dict[int, IntegerIntervalSet]
    skipped: list[tuple[int, str]]     # (k, reason) for layers empty on the window


def build_J(k_max: int, h: HFunction, n_max: int) -> GlobalJ:
    """Union over stages of the stage sets J_k, each widened by h_k on both
    sides and cut to [g(k), n_max].

    A time of [g(k), n_max] within h_k of a selected support is within h_k
    of one that starts at most n_max + h_k, so each layer reads the
    selected runs of that window.  Fattening lemma: a run i..j of selected
    indices widens to the one interval [s_i - h_k, t_j + h_k].  Proof.  By
    the gap identity of `build_Jk`, the gap between the supports of l and
    l + 1 is at most h_k - 1, because the larger of two weights that differ
    by 1 is at least 2; widening both by h_k closes it.  So a layer costs
    one step per run of `_weight_runs`, which gives b at both ends.  The
    layers' intervals meet the constructor in start order by one heap merge.
    """
    layers: dict[int, IntegerIntervalSet] = {}
    skipped: list[tuple[int, str]] = []
    for k in range(1, k_max + 1):
        try:
            g = g_cutoff(h, k)
        except OverflowError as exc:
            skipped.append((k, f"cutoff beyond overflow bound: {exc}"))
            continue
        if g > n_max:
            skipped.append((k, f"cutoff g({k}) = {g} beyond window"))
            continue
        hk = tower.height(k)
        hulls = ((i * hk + (i - bi + 1) // 2 - hk, j * hk + (j + bj - 1) // 2 + hk)
                 for lo, hi, c in _layers(h, hk, n_max + hk)
                 for i, j, bi, bj in _weight_runs(c, lo, hi))
        layers[k] = IntegerIntervalSet(hulls).clip(g, n_max)
    total = IntegerIntervalSet(heapq.merge(*(layer.intervals for layer in layers.values())))
    return GlobalJ(total, layers, skipped)


def enumerate_Ek(k: int, l_max: int) -> tuple[IntegerIntervalSet, int]:
    """Times with zero autocorrelation, as the gaps between supports.

    Returns the gap set for indices l < l_max together with the covered
    range bound (gaps are complete below s_{l_max}).  By the gap identity
    of `build_Jk`, s_(l+1) - t_l - 1 = h_k + 1 - max(b_l, b_(l+1)), the gap
    [t_l + 1, s_(l+1) - 1] is nonempty exactly where l and l + 1 share a
    run of `_weight_runs` at c = h_k - 1, along which `_steps` gives b.
    """
    if l_max < 0:
        raise DomainError(f"l = {l_max} < 0")
    hk = tower.height(k)
    # [t_p + 1, s_(p+1) - 1] for each gap; b_(p+1) has the parity of p
    gaps = ((p * hk + (p + b + 1) // 2, (p + 1) * hk + (p - after) // 2)
            for i, j, bi, _ in _weight_runs(hk - 1, 0, l_max)
            for p, b, after in _steps(i, bi, j))
    return IntegerIntervalSet(gaps), support(k, l_max)[0]
