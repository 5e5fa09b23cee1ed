"""Output checkers.  Each returns a list of problems; an empty list passes.

The checkers compare program output with ground truth that shares no code
with the engine: `chaconlab.oracle` (brute-force correlations and digit-cell
enumeration of d_l'), plus the small helpers below (balanced-ternary weight,
tower level starts by the cutting-and-stacking rule, the extractor contract
in integer form).  Checking happens after timing and is never timed.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

from chaconlab import correlation, oracle
from chaconlab.triadic import TriadicSet


# ---------------------------------------------------------------------------
# independent helpers

def bt_weight(l: int) -> int:
    """Support size of d_l': 1 + number of nonzero balanced-ternary digits."""
    w = 1
    while l:
        r = l % 3
        if r:
            w += 1
        l = (l + (1 if r == 2 else 0)) // 3
    return w


def tower_height(k: int) -> int:
    return (3 ** (k + 1) - 1) // 2


def level_start(k: int, j: int) -> Fraction:
    """Left end of level j of the stage-k stack: left copy, middle copy,
    spacer, right copy of the stage-(k-1) stack."""
    start = Fraction(0)
    while k > 0:
        hp = tower_height(k - 1)
        w = Fraction(2, 3 ** (k + 1))
        if j < hp:
            pass
        elif j < 2 * hp:
            start += w
            j -= hp
        elif j == 2 * hp:
            return start + 1 - Fraction(1, 3 ** k)
        else:
            start += 2 * w
            j -= 2 * hp + 1
        k -= 1
    return start


def base_cell(k: int) -> TriadicSet:
    return TriadicSet.from_endpoints([(Fraction(0), Fraction(2, 3 ** (k + 1)))])


def cell_union(k: int, levels) -> TriadicSet:
    w = Fraction(2, 3 ** (k + 1))
    return TriadicSet.from_endpoints([(level_start(k, m), level_start(k, m) + w) for m in levels])


def parse_csv(text: str) -> tuple[dict, list[str], list[list[str]]]:
    """(meta from the '# seed=...' line, header, rows) of a CSV output."""
    lines = text.split("\n")
    if not lines or not lines[0].startswith("# ") or lines[-1] != "":
        raise ValueError("missing comment line or trailing newline")
    meta = dict(item.split("=", 1) for item in lines[0][2:].split(" "))
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:-1]]
    return meta, header, rows


def _decimal_ok(dec: str, q: Fraction) -> bool:
    x = q.numerator / q.denominator
    return abs(float(dec) - x) <= 1e-11 * max(abs(x), 1e-300)


def _guard(fn):
    """A checker that crashes on malformed output reports it as a problem."""
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
            return [f"{fn.__name__}: malformed output ({type(exc).__name__}: {exc})"]
    checked.__name__ = fn.__name__
    return checked


# ---------------------------------------------------------------------------
# series

@_guard
def check_corr(text: str, k: int, first: int, count: int, rng: random.Random,
               values: dict[int, Fraction], samples: int = 6) -> list[str]:
    """corr rows: the requested window in order, values in [0, mu(A_k)],
    decimals consistent, and sampled n <= 500 equal to the oracle.  The
    values read are left in `values` for the Cesaro check."""
    meta, header, rows = parse_csv(text)
    problems = []
    if header != ["n", "num", "den", "decimal"] or meta.get("command") != "corr":
        problems.append("corr: wrong header")
    mu = Fraction(2, 3 ** (k + 1))
    for i, (n, num, den, dec) in enumerate(rows):
        c = Fraction(int(num), int(den))
        values[int(n)] = c
        if int(n) != first + i or not 0 <= c <= mu or not _decimal_ok(dec, c):
            problems.append(f"corr: bad row {i}: {n},{num},{den},{dec}")
            break
    if len(rows) != count:
        problems.append(f"corr: {len(rows)} rows, expected {count}")
    small = [n for n in values if n <= 500]
    a = base_cell(k)
    for n in sorted(rng.sample(small, min(samples, len(small)))):
        if oracle.brute_correlation(a, a, n) != values[n]:
            problems.append(f"corr: c_{k}({n}) = {values[n]} disagrees with the oracle")
    return problems


@_guard
def check_cesaro(text: str, k: int, n_max: int, corr: dict[int, Fraction]) -> list[str]:
    """Each row N is the running mean of |c_k(n) - mu(A_k)^2| over n < N,
    recomputed from the corr output (and, below its first row, from
    autocorrelation)."""
    meta, header, rows = parse_csv(text)
    if header != ["N", "num", "den", "decimal"] or len(rows) != n_max:
        return [f"cesaro: wrong header or {len(rows)} rows, expected {n_max}"]
    target = Fraction(2, 3 ** (k + 1)) ** 2
    total = Fraction(0)
    for n, (big_n, num, den, dec) in enumerate(rows):
        c = corr[n] if n in corr else correlation.autocorrelation(k, n)
        total += abs(c - target)
        mean = total / (n + 1)
        if int(big_n) != n + 1 or Fraction(int(num), int(den)) != mean \
                or not _decimal_ok(dec, mean):
            return [f"cesaro: row N={n + 1} is {num}/{den}, expected {mean}"]
    return []


@_guard
def check_dl(text: str, k: int, lo: int, hi: int, rng: random.Random,
             samples: int = 5) -> list[str]:
    """dl rows: every l in [lo, hi] has bt_weight(l) contiguous positive
    masses summing to 1, and sampled l equal the digit-cell oracle."""
    meta, header, rows = parse_csv(text)
    if header != ["l", "n", "num", "den", "decimal"]:
        return ["dl: wrong header"]
    by_l: dict[int, list[tuple[int, Fraction]]] = {}
    problems = []
    for l, n, num, den, dec in rows:
        m = Fraction(int(num), int(den))
        if not _decimal_ok(dec, m):
            problems.append(f"dl: decimal {dec} for {m}")
        by_l.setdefault(int(l), []).append((int(n), m))
    if sorted(by_l) != list(range(lo, hi + 1)):
        return problems + [f"dl: indices are not exactly {lo}..{hi}"]
    for l, cells in by_l.items():
        ns = [n for n, _ in cells]
        if len(cells) != bt_weight(l) or ns != list(range(ns[0], ns[0] + len(ns))) \
                or sum(m for _, m in cells) != 1 or min(m for _, m in cells) <= 0:
            problems.append(f"dl: d_{l}' is not a {bt_weight(l)}-point distribution")
            break
    for l in rng.sample(range(lo, hi + 1), min(samples, hi - lo + 1)):
        ref = oracle.brute_dl(k, l)
        got = by_l[l]
        if got[0][0] != ref.start or tuple(m for _, m in got) != ref.masses:
            problems.append(f"dl: d_{l}' disagrees with the digit-cell oracle")
    return problems


# ---------------------------------------------------------------------------
# probe

def parse_triadic(text: str) -> Fraction:
    """A point printed as 'p/3^e'."""
    num, exp = text.split("/3^")
    return Fraction(int(num), 3 ** int(exp))


def check_probe_corr(queries: list, values: list[str], rng: random.Random,
                     samples: int = 6) -> list[int]:
    """Indices of failed autocorrelation queries: every value must lie in
    [0, mu(A_k)]; sampled queries with n <= 500 must equal the oracle."""
    bad = set(range(len(values), len(queries)))
    for i, ((k, n), v) in enumerate(zip(queries, values)):
        if not 0 <= Fraction(v) <= Fraction(2, 3 ** (k + 1)):
            bad.add(i)
    small = [i for i, (k, n) in enumerate(queries) if n <= 500 and i < len(values)]
    for i in rng.sample(small, min(samples, len(small))):
        k, n = queries[i]
        if oracle.brute_correlation(base_cell(k), base_cell(k), n) != Fraction(values[i]):
            bad.add(i)
    return sorted(bad)


def check_cells(queries: list, values: list[str]) -> list[int]:
    """Indices of failed cell_correlation queries, against the oracle."""
    bad = set(range(len(values), len(queries)))
    for i, ((k, cells_a, cells_b, n), v) in enumerate(zip(queries, values)):
        ref = oracle.brute_correlation(cell_union(k, cells_a), cell_union(k, cells_b), n)
        if ref != Fraction(v):
            bad.add(i)
    return sorted(bad)


def check_points(queries: list, values: list) -> list[int]:
    """Indices of failed point queries: T^-m T^m x must give back x, and
    locate must put x inside the level (or spacer reservoir) it names, at
    the offset it names."""
    bad = set(range(len(values), len(queries)))
    for i, ((num, den, m, k), (image, back, level, offset)) in enumerate(zip(queries, values)):
        x = Fraction(num, den)
        off = Fraction(offset)
        if level is None:           # spacer reservoir [1 - 3^-(k+1), 1)
            ok = x - (1 - Fraction(1, 3 ** (k + 1))) == off
            width = Fraction(1, 3 ** (k + 1))
        else:
            ok = 0 <= level < tower_height(k) and x - level_start(k, level) == off
            width = Fraction(2, 3 ** (k + 1))
        if not (ok and 0 <= off < width and parse_triadic(back) == x
                and 0 <= parse_triadic(image) < 1):
            bad.add(i)
    return sorted(bad)


# ---------------------------------------------------------------------------
# exceptional

@_guard
def check_extract(text: str, a: list[Fraction], b: list[Fraction],
                  c: list[Fraction]) -> list[str]:
    """The extractor contract on the series the program was given: past each
    threshold l_k every n with a_n > 1/k is exceptional, and on
    [l_k, l_(k+1)) the normalized count obeys c_n * count(n) * k <= n * b_n.
    Since count(n) * k is an integer, the second test compares it with the
    integer floor(n b_n / c_n)."""
    meta, header, rows = parse_csv(text)
    n_max = len(a) - 1
    thresholds = [int(y) for kind, x, y in rows if kind == "l_k"]
    intervals = [(int(x), int(y)) for kind, x, y in rows if kind == "interval"]
    if [int(x) for kind, x, y in rows if kind == "l_k"] != list(range(1, len(thresholds) + 1)):
        return ["extract: threshold rows out of order"]
    if not thresholds or thresholds != sorted(thresholds):
        return ["extract: thresholds missing or decreasing"]
    member = bytearray(n_max + 1)
    for lo, hi in intervals:
        member[lo:hi + 1] = b"\x01" * (hi - lo + 1)
    cum = [0] * (n_max + 1)
    run = 0
    for n in range(n_max + 1):
        run += member[n]
        cum[n] = run
    if int(meta["count"]) != run or int(meta["n_max"]) != n_max:
        return ["extract: count or n_max in the comment line is wrong"]
    floor_ = [0] + [math.floor(n * b[n] / c[n]) for n in range(1, n_max + 1)]
    for k in range(1, len(thresholds) + 1):
        lk = thresholds[k - 1]
        hi = thresholds[k] if k < len(thresholds) else n_max + 1
        for n in range(lk, n_max + 1):
            if not member[n] and a[n] * k > 1:
                return [f"extract: n={n} has a_n > 1/{k} past l_{k}={lk} but is not exceptional"]
        for n in range(max(lk, 1), hi):
            if cum[n] * k > floor_[n]:
                return [f"extract: count bound fails at n={n} for k={k}"]
    return []


@_guard
def check_interval_rows(text: str, command: str, n_max: int | None = None) -> list[str]:
    """lo,hi,count_cum rows: sorted, disjoint, non-adjacent, inside
    [0, n_max], with the cumulative count right and equal to meta count."""
    meta, header, rows = parse_csv(text)
    if header != ["lo", "hi", "count_cum"] or meta.get("command") != command:
        return [f"{command}: wrong header"]
    prev_hi, cum = -2, 0
    for lo, hi, count in rows:
        lo, hi, count = int(lo), int(hi), int(count)
        cum += hi - lo + 1
        if lo <= prev_hi + 1 or hi < lo or count != cum or lo < 0 \
                or (n_max is not None and hi > n_max):
            return [f"{command}: bad interval row {lo},{hi},{count}"]
        prev_hi = hi
    if int(meta["count"]) != cum:
        return [f"{command}: count {meta['count']} but intervals hold {cum}"]
    return []


@_guard
def check_eset(text: str, k: int, rng: random.Random, samples: int = 20,
               oracle_samples: int = 3) -> list[str]:
    """Structure, every point below `covered`, zero correlation at sampled
    points (the small ones also by the oracle)."""
    problems = check_interval_rows(text, "eset")
    if problems:
        return problems
    meta, _, rows = parse_csv(text)
    covered = int(meta["covered"])
    intervals = [(int(lo), int(hi)) for lo, hi, _ in rows]
    if not intervals or intervals[-1][1] >= covered:
        return ["eset: empty, or a point at or past the covered bound"]
    points = [rng.randint(lo, hi) for lo, hi in rng.sample(intervals, min(samples, len(intervals)))]
    for n in points:
        if correlation.autocorrelation(k, n) != 0:
            return [f"eset: c_{k}({n}) is not 0"]
    small = [lo for lo, hi in intervals if hi <= 500]
    a = base_cell(k)
    for n in rng.sample(small, min(oracle_samples, len(small))):
        if oracle.brute_correlation(a, a, n) != 0:
            return [f"eset: oracle gives c_{k}({n}) != 0"]
    return []


# ---------------------------------------------------------------------------
# verify

@_guard
def check_verify(text: str, rc: int) -> list[str]:
    report = json.loads(text)
    if rc != 0 or report.get("pass") is not True or \
            not all(c.get("pass") is True for c in report.get("checks", [])) or \
            not report.get("checks"):
        return [f"verify: exit {rc}, pass={report.get('pass')}"]
    return []
