"""Exceptional-set machinery: the generic extractor, the explicit
constructions for the Chacon transformation, the zero-correlation times,
and evaluation of the growth bounds against exact window counts.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import tower
from .correlation import autocorrelation, mu_Ak, support_span, support_weights
from .triadic import DomainError


# largest x that HFunction.inverse_ceil searches
INVERSE_BOUND = 2.0 ** 512


class InputError(ValueError):
    """A precondition on extractor input data failed; carries a witness."""


# ---------------------------------------------------------------------------
# integer interval sets

class IntegerIntervalSet:
    """Sorted disjoint union of inclusive integer intervals [a, b]."""

    __slots__ = ("intervals", "_starts", "_cum")

    def __init__(self, intervals: Iterable[tuple[int, int]] = ()):
        merged: list[list[int]] = []
        for a, b in sorted(intervals):
            if a > b:
                continue
            if merged and a <= merged[-1][1] + 1:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        self.intervals: tuple[tuple[int, int], ...] = tuple((a, b) for a, b in merged)
        self._starts = [a for a, _ in self.intervals]
        cum = [0]
        for a, b in self.intervals:
            cum.append(cum[-1] + b - a + 1)
        self._cum = cum

    @classmethod
    def from_points(cls, points: Iterable[int]) -> "IntegerIntervalSet":
        return cls((p, p) for p in points)

    def __contains__(self, n: int) -> bool:
        i = bisect_right(self._starts, n) - 1
        return i >= 0 and n <= self.intervals[i][1]

    def __len__(self) -> int:
        return self._cum[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegerIntervalSet) and self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def count(self, n: int) -> int:
        """|set intersect [0, n]| (the set never holds negatives here)."""
        i = bisect_right(self._starts, n) - 1
        if i < 0:
            return 0
        a, b = self.intervals[i]
        return self._cum[i] + min(n, b) - a + 1

    def fatten(self, radius: int) -> "IntegerIntervalSet":
        """Close under n -> n + i for |i| <= radius, clipped at 0."""
        return IntegerIntervalSet((max(a - radius, 0), b + radius) for a, b in self.intervals)

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
        return self._fn(x)

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
    return h.inverse_ceil(float(3 ** (2 * k + 2)))


# ---------------------------------------------------------------------------
# generic extractor

@dataclass
class ExtractionResult:
    exceptional: IntegerIntervalSet
    thresholds: list[int]          # l_k for k = 1 .. len(thresholds)
    level_sets: list[IntegerIntervalSet]  # J_k for the same k range


def _fractions(xs: Sequence) -> list[Fraction]:
    return [x if isinstance(x, Fraction) else Fraction(x) for x in xs]


def extract_exceptional(a: Sequence, b: Sequence, c: Sequence, n_max: int,
                        k_max: int = 32) -> ExtractionResult:
    """Construct the exceptional set from a deviation sequence and its rates.

    a[j] for j <= n_max is the nonnegative deviation sequence, b[n] a bound
    on its running Cesaro average, c[n] a decreasing null sequence.  The
    level sets are {j : a_j > 1/k}; each threshold l_k is the minimal window
    start from which the normalized count stays below 1/k (certified on the
    finite window only).

    Every comparison is made on integers.  a_j = p/q > 1/k exactly when
    k >= q//p + 1, so one sort of a gives every level set.  For n >= 1 with
    c_n > 0, c_n * cnt * k <= n * b_n exactly when
    cnt * k <= floor(n * b_n / c_n), because cnt * k is an integer; c_n <= 0
    always passes, since n * b_n >= 0 once the Cesaro bound holds.  At n = 0
    the test is cnt == 0.
    """
    av = _fractions(a[: n_max + 1])
    bv = _fractions(b[: n_max + 1])
    cv = _fractions(c[: n_max + 1])
    if len(av) != n_max + 1 or len(bv) != n_max + 1 or len(cv) != n_max + 1:
        raise InputError(f"sequences must cover indices 0..{n_max}")
    if any(x.numerator < 0 for x in av):
        raise InputError("deviation sequence has a negative entry")
    b_num = [x.numerator for x in bv]
    b_den = [x.denominator for x in bv]
    running = Fraction(0)
    for n in range(1, n_max + 1):
        if av[n - 1]:
            running += av[n - 1]
        if running.numerator * b_den[n] > n * b_num[n] * running.denominator:
            raise InputError(f"Cesaro bound violated at n={n}: mean {running / n} > {bv[n]}")
    c_num = [x.numerator for x in cv]
    c_den = [x.denominator for x in cv]
    for n in range(1, n_max + 1):
        if c_num[n] * c_den[n - 1] > c_num[n - 1] * c_den[n]:
            raise InputError(f"c is not decreasing at n={n}")

    # cap_0 = 0 turns cnt * k <= cap_0 into cnt == 0
    caps = [0] + [n * b_num[n] * c_den[n] // (b_den[n] * c_num[n]) if c_num[n] > 0 else math.inf
                  for n in range(1, n_max + 1)]
    # (first k with a_j * k > 1, j) for every j that enters some level set,
    # popped from the end in increasing order
    entries = sorted(((x.denominator // x.numerator + 1, j)
                      for j, x in enumerate(av) if x.numerator), reverse=True)

    thresholds: list[int] = []
    level_sets: list[IntegerIntervalSet] = []
    members: list[int] = []        # J_k, increasing
    jk = IntegerIntervalSet()
    prev_l = 0
    for k in range(1, k_max + 1):
        fresh = []
        while entries and entries[-1][0] <= k:
            fresh.append(entries.pop()[1])
        if fresh:
            members = sorted(members + fresh)
            jk = IntegerIntervalSet.from_points(members)
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

    pieces: list[tuple[int, int]] = []
    for i, jk in enumerate(level_sets):
        lo = thresholds[i]
        hi = thresholds[i + 1] if i + 1 < len(thresholds) else n_max
        pieces.extend(jk.clip(lo, hi).intervals)
    return ExtractionResult(IntegerIntervalSet(pieces), thresholds, level_sets)


# ---------------------------------------------------------------------------
# Chacon-specific constructions

def build_Jk(k: int, h: HFunction, n_max: int) -> IntegerIntervalSet:
    """Exceptional times for the base cell at stage k, on the window [0, n_max].

    Over each index layer [3^N, 3^(N+1)], the supports of all indices whose
    balanced-ternary weight stays under (log N)^2 h(N) are collected.
    Natural logarithm; the N = 1 layer has threshold 0 (nan for loglog) and
    contributes nothing.  Since s_l >= l*h_k, only l <= n_max // h_k can meet
    the window.

    s_l and t_l both rise strictly with l, so one pass in index order merges
    each selected support into the interval [lo, hi] it extends, or closes
    that interval and opens the next.
    """
    hk = tower.height(k)
    if k < 1:
        raise DomainError(f"stage k must be >= 1, got {k}")
    l_max = n_max // hk
    weights = support_weights(l_max)
    pieces: list[tuple[int, int]] = []
    lo, hi = 0, -2         # an empty interval that no support s_l >= 0 joins
    big_n = 1
    while 3 ** big_n <= l_max:
        threshold = math.log(big_n) ** 2 * h(big_n)
        if threshold > 0:
            for l in range(3 ** big_n, min(3 ** (big_n + 1), l_max) + 1):
                b = weights[l]
                if b < threshold:
                    s, t = support_span(hk, l, b)
                    if s > hi + 1:
                        pieces.append((lo, hi))
                        lo = s
                    hi = t
        big_n += 1
    pieces.append((lo, hi))
    return IntegerIntervalSet(pieces[1:]).clip(0, n_max)   # without that empty interval


@dataclass
class GlobalJ:
    """The global exceptional set on a finite window, layer by layer."""

    jset: IntegerIntervalSet
    layers: dict[int, IntegerIntervalSet]
    skipped: list[tuple[int, str]]     # (k, reason) for layers empty on the window


def build_J(k_max: int, h: HFunction, n_max: int) -> GlobalJ:
    """Union over stages of the fattened, cutoff-truncated stage sets."""
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
        layers[k] = build_Jk(k, h, n_max + hk).fatten(hk).clip(g, n_max)
    total = IntegerIntervalSet(iv for layer in layers.values() for iv in layer.intervals)
    return GlobalJ(total, layers, skipped)


def enumerate_Ek(k: int, l_max: int) -> tuple[IntegerIntervalSet, int]:
    """Times with zero autocorrelation, as the gaps between supports.

    Returns the gap set for indices l < l_max together with the covered
    range bound (gaps are complete below s_{l_max}).
    """
    if l_max < 0:
        raise DomainError(f"l = {l_max} < 0")
    hk = tower.height(k)
    pieces = []
    t_prev = -1
    for l, b in enumerate(support_weights(l_max)):
        s, t = support_span(hk, l, b)
        if t_prev + 1 < s:
            pieces.append((t_prev + 1, s - 1))
        t_prev = t
    return IntegerIntervalSet(pieces), s


# ---------------------------------------------------------------------------
# bounds and verification reports

@dataclass(frozen=True)
class BoundSpec:
    """An evaluable growth bound with explicit constants.

    Forms: 'upper'  C * [h(n)] * (log n)^((log log n)^2 h(n))
           'lower'  C * (log n)^t
    """

    form: str
    constant: float
    h: HFunction | None = None
    include_h_factor: bool = False
    exponent: float = 0.0        # t of the lower form
    provenance: str = "unspecified"

    def evaluate(self, n: int) -> float:
        """Binary64 value of the bound; +inf on overflow."""
        if n < 3:
            raise DomainError(f"bounds need n >= 3, got n = {n}")
        ln = math.log(n)
        try:
            if self.form == "upper":
                if self.h is None:
                    raise DomainError("upper form needs a growth function")
                expo = math.log(ln) ** 2 * self.h(float(n))
                log_value = expo * math.log(ln)
                if log_value > 700:
                    return math.inf
                value = self.constant * math.exp(log_value)
                if self.include_h_factor:
                    value *= self.h(float(n))
                return value
            if self.form == "lower":
                return self.constant * ln ** self.exponent
        except OverflowError:
            return math.inf
        raise DomainError(f"unknown bound form {self.form!r}")


def verify_count(iset: IntegerIntervalSet, spec: BoundSpec, grid: Sequence[int],
                 direction: str = "upper") -> dict:
    """Compare exact window counts against the bound over a grid of n.

    direction 'upper' checks count <= bound, 'lower' checks count >= bound.
    Overflowed upper bounds pass trivially and are flagged.
    """
    rows = []
    all_pass = True
    for n in grid:
        bound = spec.evaluate(n)
        cnt = iset.count(n)
        overflow = math.isinf(bound)
        ok = cnt <= bound if direction == "upper" else cnt >= bound
        all_pass &= ok
        rows.append({"n": n, "count": cnt, "bound": bound, "pass": ok,
                     "overflow": overflow})
    return {"form": spec.form, "constant": spec.constant,
            "provenance": spec.provenance, "direction": direction,
            "grid": rows, "pass": all_pass}


@dataclass(frozen=True)
class BlockDeviation:
    N: int
    lo: int
    hi: int
    max_dev: Fraction | None      # None when the block sits inside J_k
    excluded: int


def convergence_report(k: int, h: HFunction, n_range: Iterable[int]) -> list[BlockDeviation]:
    """Per-block maxima of |c_k(n) - mu(A_k)^2| over times outside J_k.

    Blocks are [3^N, 3^(N+1)] for N in n_range.
    """
    target = mu_Ak(k) ** 2
    rows = []
    for big_n in n_range:
        lo, hi = 3 ** big_n, 3 ** (big_n + 1)
        jk = build_Jk(k, h, hi)
        best: Fraction | None = None
        excluded = 0
        for n in range(lo, hi + 1):
            if n in jk:
                excluded += 1
                continue
            dev = abs(autocorrelation(k, n) - target)
            if best is None or dev > best:
                best = dev
        rows.append(BlockDeviation(big_n, lo, hi, best, excluded))
    return rows
