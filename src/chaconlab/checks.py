"""Checks of the computed objects against their defining properties, the
oracles and the paper's bounds.

One function per property, window as a parameter: `chacon verify` runs SUITE
on small windows, the acceptance tests call the same functions on full ones.
The growth bound on the count of J and the block maxima off J_k are checks
that only the acceptance criteria run, outside SUITE.  Engine and oracles are
called as module attributes, never imported by name.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import constants, correlation, exceptional, oracle, tower
from .triadic import DomainError, TriadicRational, TriadicSet

# d_l' at stage 1 for l <= 3: l -> (start, masses)
SMALL_DL_TABLE = {0: (0, (Fraction(1),)), 1: (4, (Fraction(1, 2), Fraction(1, 2))),
                  2: (8, (Fraction(1, 6), Fraction(2, 3), Fraction(1, 6))),
                  3: (13, (Fraction(1, 2), Fraction(1, 2)))}


def small_dl_table() -> bool:
    dists = correlation.dl_run(1, 0, max(SMALL_DL_TABLE))
    return {l: (dists[l].start, dists[l].masses) for l in SMALL_DL_TABLE} == SMALL_DL_TABLE


def dl_matches_oracle(ks, l_max: int) -> bool:
    """Digit-cell enumeration agrees with the recursion for l <= l_max."""
    pairs = ((oracle.brute_dl(k, l), d)
             for k in ks for l, d in enumerate(correlation.dl_run(k, 0, l_max)))
    return all((b.start, b.masses) == (d.start, d.masses) for b, d in pairs)


def corr_matches_oracle(ks, n_max: int) -> bool:
    """Level bookkeeping on A_k agrees with the recursion for n <= n_max."""
    cell = {k: TriadicSet.from_endpoints([(Fraction(0), correlation.mu_Ak(k))]) for k in ks}
    series = {k: correlation.correlation_series(k, 0, n_max) for k in ks}
    return all(oracle.brute_correlation(cell[k], cell[k], n) == series[k][n]
               for k in ks for n in range(n_max + 1))


def dl_normalized_unimodal(l_bound: int) -> bool:
    """Each d_l' at stage 1, l < l_bound, sums to 1, is palindromic and unimodal,
    read on its numerators over their one denominator 2 * 3^e."""
    for d in correlation.dl_run(1, 0, l_bound - 1):
        m = d.nums
        peak = max(range(len(m)), key=m.__getitem__)
        if not (sum(m) == 2 * 3 ** d.e and m == m[::-1]
                and all(x <= y for x, y in zip(m[:peak], m[1:peak + 1]))
                and all(x >= y for x, y in zip(m[peak:], m[peak + 1:]))):
            return False
    return True


def support_sizes(dl_bound: int, index_bound: int) -> bool:
    """At stage 1, |supp d_l'| = b_l for l < dl_bound; for l < index_bound the closed-form
    support is the mass recursion's [start, end] and |b_l - b_(l+1)| = 1."""
    bl = correlation.compute_bl
    dists = correlation.dl_run(1, 0, max(dl_bound, index_bound) - 1)
    return (all(dists[l].support_size == bl(l) for l in range(dl_bound))
            and all(correlation.support(1, l) == (dists[l].start, dists[l].end)
                    and abs(bl(l) - bl(l + 1)) == 1 for l in range(index_bound)))


def bijective(rng, samples: int) -> bool:
    """T^-1 T = id on random triadic points."""
    for _ in range(samples):
        e = rng.randint(1, 8)
        x = TriadicRational.from_fraction(Fraction(rng.randrange(3 ** e), 3 ** e))
        if tower.apply_T_inverse(tower.apply_T(x)) != x:
            return False
    return True


def measure_preserved(rng, samples: int) -> bool:
    """One pushforward step keeps the measure of random intervals."""
    for _ in range(samples):
        e = rng.randint(2, 6)
        a = rng.randrange(3 ** e - 1)
        b = rng.randrange(a + 1, 3 ** e)
        if a <= 2 * 3 ** (e - 1) <= b:
            # an interval whose closure meets 2/3 has an infinite image
            continue
        image = oracle.pushforward_step(
            TriadicSet.from_endpoints([(Fraction(a, 3 ** e), Fraction(b, 3 ** e))]))
        if sum((hi - lo for lo, hi in image.intervals), Fraction(0)) != Fraction(b - a, 3 ** e):
            return False
    return True


def majorized(l_max: int) -> bool:
    """phi_l precedes, and peaks no higher than, the (b_l - 1)-step lazy walk,
    for 1 <= l <= l_max.  Each walk and its peak are built once per distinct
    weight b_l - 1, at most the balanced-ternary digit count of l_max."""
    phis = oracle.phi_run(l_max)
    weights = {l: correlation.compute_bl(l) - 1 for l in range(1, l_max + 1)}
    walks = {w: oracle.walk_poly(w) for w in set(weights.values())}
    peaks = {w: oracle.center_value(walk) for w, walk in walks.items()}
    return all(oracle.precedes(phis[l], walks[w]) and oracle.center_value(phis[l]) <= peaks[w]
               for l, w in weights.items())


def frozen_constants_reproduce() -> bool:
    fr = constants.FROZEN
    sweeps = (constants.sweep_c1_sq(fr.sweep_l_bound), constants.sweep_c2_sq(fr.sweep_l_bound),
              constants.sweep_c3_sq(fr.sweep_envelope_l, fr.sweep_p))
    return [m * fr.headroom_sq for m, _ in sweeps] == [fr.c1_sq, fr.c2_sq, fr.c3_sq]


def zero_correlation_times(l_max: int, rng, samples: int) -> bool:
    """c_1 vanishes on E_1 and, at `samples` random covered times, only there."""
    ek, covered = exceptional.enumerate_Ek(1, l_max)
    corr, _ = correlation.series_numerators(1, 0, covered - 1)
    ok = all(corr[n] == 0 for n in ek.iter_points())
    for _ in range(samples):
        n = rng.randrange(covered)
        if n not in ek and corr[n] == 0:
            return False
    return ok


def power_of_two_series(n_max: int) -> tuple[exceptional.Column, ...]:
    """a_n = 1 at powers of two, b_n = (floor(log2 n) + 2)/n, c_n = 1/log(n + 2),
    as integer Columns; b_n is not reduced and b_0 = 1."""
    a = exceptional.Column([int(n > 0 and n & (n - 1) == 0) for n in range(n_max + 1)],
                           [1] * (n_max + 1))
    b = exceptional.Column([1] + [n.bit_length() + 1 for n in range(1, n_max + 1)],
                           [1] + list(range(1, n_max + 1)))
    ratios = [(1 / math.log(n + 2)).as_integer_ratio() for n in range(n_max + 1)]
    c = exceptional.Column([p for p, _ in ratios], [q for _, q in ratios])
    return a, b, c


def contract_holds(res, a, b, c, n_max: int) -> bool:
    """From l_k on, a_n > 1/k is exceptional and c_n * count(n) * k <= n * b_n.

    a, b and c are Columns.  Both inequalities are cross-multiplied on their
    numerators and positive denominators, so no Fraction is built per step.

    One pass over n, carrying k = the number of thresholds <= n and the
    running count of exceptional points, checks both at that one k.  This
    needs nondecreasing thresholds, which extract_exceptional makes: then the
    k with l_k <= n are 1..k, a_n * k > 1 is monotone in k, so the largest k
    decides the first inequality, and the ranges [l_k, l_(k+1)) partition the
    window, so the second reads exactly this k at n.
    """
    thresholds, exceptional = res.thresholds, res.exceptional
    if any(lo > hi for lo, hi in zip(thresholds, thresholds[1:])):
        raise DomainError(f"thresholds {thresholds} are not nondecreasing")
    k = count = 0
    for n in range(n_max + 1):
        while k < len(thresholds) and thresholds[k] <= n:
            k += 1
        member = n in exceptional
        count += member
        if k and (a.num[n] * k > a.den[n] and not member
                  or n and c.num[n] * count * k * b.den[n] > n * b.num[n] * c.den[n]):
            return False
    return True


def extractor_contract(n_max: int) -> bool:
    a, b, c = power_of_two_series(n_max)
    res = exceptional.extract_exceptional(a, b, c, n_max)
    return len(res.thresholds) >= 2 and contract_holds(res, a, b, c, n_max)


def growth_bound_holds(iset: exceptional.IntegerIntervalSet, c: float,
                       h: exceptional.HFunction, grid) -> tuple[bool, bool]:
    """Whether |iset ∩ [0, n]| <= c h(n) (ln n)^((ln ln n)^2 h(n)) at every n of
    grid, and whether the bound overflowed at some n of it.

    The bound is a binary64 value.  It is +inf where its logarithm passes 700
    or a step overflows, and any count passes there.  It needs ln ln n > 0, so
    n < 3 raises DomainError.
    """
    holds, overflow = True, False
    for n in grid:
        if n < 3:
            raise DomainError(f"bounds need n >= 3, got n = {n}")
        lnln = math.log(math.log(n))
        try:
            hn = h(float(n))
            log_bound = lnln ** 2 * hn * lnln
            bound = math.inf if log_bound > 700 else c * math.exp(log_bound) * hn
        except OverflowError:
            bound = math.inf
        holds &= iset.count(n) <= bound
        overflow |= math.isinf(bound)
    return holds, overflow


def block_maxima_off_Jk(k: int, h: exceptional.HFunction, blocks) -> list[Fraction | None]:
    """max |c_k(n) - mu(A_k)^2| over the times n of [3^N, 3^(N+1)] outside
    J_k, for each N of blocks, from one `deviation_numerators` series per
    block; None where J_k covers the block."""
    maxima = []
    for big_n in blocks:
        lo, hi = 3 ** big_n, 3 ** (big_n + 1)
        jk = exceptional.build_Jk(k, h, hi)
        devs, den = correlation.deviation_numerators(k, lo, hi)
        best = max((d for n, d in enumerate(devs, lo) if n not in jk), default=None)
        maxima.append(None if best is None else Fraction(best, den))
    return maxima


# (name, detail, check) in run order; every check is handed the suite's rng
SUITE = (
    ("small-distribution-table", "k=1, l<=3", lambda rng: small_dl_table()),
    ("distribution-oracle", "enumeration vs recursion, k<=2, l<=60",
     lambda rng: dl_matches_oracle((1, 2), 60)),
    ("correlation-oracle", "level bookkeeping vs recursion, k=1, n<=60",
     lambda rng: corr_matches_oracle((1,), 60)),
    ("normalization-shape", "sum 1, palindromic, unimodal, l<81",
     lambda rng: dl_normalized_unimodal(81)),
    ("support-size", "balanced-ternary weight, l<243", lambda rng: support_sizes(243, 243)),
    ("bijectivity", "T^-1 T = id on 200 random triadic points", lambda rng: bijective(rng, 200)),
    ("measure-preservation", "one pushforward step on random intervals",
     lambda rng: measure_preserved(rng, 25)),
    ("majorization", "smoothing order and peak comparison, l<=100", lambda rng: majorized(100)),
    ("frozen-constants", "re-sweep reproduces the frozen values",
     lambda rng: frozen_constants_reproduce()),
    ("zero-correlation-times", "gap set matches vanishing correlation",
     lambda rng: zero_correlation_times(200, rng, 100)),
    ("extractor-contract", "synthetic power-of-two series, window 4096",
     lambda rng: extractor_contract(4096)),
)

