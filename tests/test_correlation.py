import ast
import importlib
import pkgutil
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaconlab import checks, cli, constants, correlation as co
from chaconlab.correlation import (
    BLOCK,
    autocorrelation,
    cell_correlation,
    cesaro_totals,
    compute_bl,
    correlation_series,
    deviation_numerators,
    dl_run,
    envelope_gaps,
    mu_Ak,
    profile_gap,
    support,
    H_value,
    series_numerators,
    support_run,
)
from chaconlab.tower import height
from chaconlab.triadic import DomainError


def balanced_ternary(l):
    """Digits a_i in {-1, 0, +1} with l = sum a_i * 3^i, low order first."""
    digits = []
    while l:
        r = (l + 1) % 3 - 1
        digits.append(r)
        l = (l - r) // 3
    return tuple(digits)


class TestBalancedTernary:
    def test_examples(self):
        assert balanced_ternary(0) == ()
        assert balanced_ternary(2) == (-1, 1)
        assert balanced_ternary(5) == (-1, -1, 1)
        assert (compute_bl(0), compute_bl(2), compute_bl(5)) == (1, 3, 4)

    def test_digits_reconstruct_the_integer(self):
        for l in range(3000):
            digits = balanced_ternary(l)
            assert all(d in (-1, 0, 1) for d in digits)
            assert sum(d * 3 ** i for i, d in enumerate(digits)) == l
            assert not digits or digits[-1] != 0

    def test_weight_recursions(self):
        for l in range(2000):
            assert compute_bl(3 * l) == compute_bl(l) if l else True
            assert compute_bl(3 * l + 1) == compute_bl(l) + 1
            assert compute_bl(3 * l + 2) == compute_bl(l + 1) + 1

    def test_weight_counts_nonzero_digits(self):
        for l in range(3 ** 8 + 1):
            assert compute_bl(l) == 1 + sum(map(abs, balanced_ternary(l)))
        with pytest.raises(DomainError):
            compute_bl(-1)

    def test_weight_ratio_bounds(self):
        for l in range(3, 3 ** 8):
            assert compute_bl(l) <= 4 * compute_bl(l // 3)
            assert compute_bl(l) <= 4 * compute_bl(l // 3 + 1)


def recursive_dl(k, l, memo):
    """(start, nums, e) of d_l' at stage k by the three-branch recursion on
    (k, l) with its shifts in h_k, memoized in memo: the build the
    stage-free digit walk replaced."""
    if (k, l) in memo:
        return memo[k, l]
    h = height(k)
    if l < 2:
        memo[k, l] = (l * h, (2,) if l == 0 else (1, 1), 0)
        return memo[k, l]
    q, r = divmod(l, 3)
    if r == 0:
        start, nums, e = recursive_dl(k, q, memo)
        memo[k, l] = (start + 2 * q * h + q, nums, e)
        return memo[k, l]
    if r == 1:
        pieces = [(q, (2 * q + 1) * h + q), (q, (2 * q + 1) * h + q + 1), (q + 1, 2 * q * h + q)]
    else:
        pieces = [(q, (2 * q + 2) * h + q + 1), (q + 1, (2 * q + 1) * h + q + 1),
                  (q + 1, (2 * q + 1) * h + q)]
    placed = [(recursive_dl(k, m, memo), shift) for m, shift in pieces]
    e = max(p[2] for p, _ in placed)
    lo = min(p[0] + shift for p, shift in placed)
    hi = max(p[0] + len(p[1]) + shift for p, shift in placed)
    acc = [0] * (hi - lo)
    for (start, nums, p_e), shift in placed:
        for i, m in enumerate(nums, start + shift - lo):
            acc[i] += m * 3 ** (e - p_e)
    memo[k, l] = (lo, tuple(acc), e + 1)
    return memo[k, l]


class TestComputeDl:
    """d_l' one index at a time, each read as the run dl_run(k, l, l)."""

    def test_base_cases(self):
        d0, d1 = dl_run(1, 0, 1)
        assert (d0.start, d0.masses) == (0, (Fraction(1),))
        assert (d1.start, d1.masses) == (4, (Fraction(1, 2), Fraction(1, 2)))
        assert repr(d1) == "ReturnDistribution(start=4, nums=(1, 1), e=0)"

    def test_small_table(self):
        for k in (1, 2):
            h = height(k)
            d2, d3, d4 = dl_run(k, 2, 4)
            assert (d2.start, d2.masses) == (
                2 * h, (Fraction(1, 6), Fraction(2, 3), Fraction(1, 6)))
            assert (d3.start, d3.masses) == (3 * h + 1, (Fraction(1, 2), Fraction(1, 2)))
            assert (d4.start, d4.masses) == (
                4 * h + 1, (Fraction(2, 9), Fraction(5, 9), Fraction(2, 9)))

    def test_rejects_bad_index(self):
        with pytest.raises(DomainError):
            dl_run(1, -1, -1)

    def test_far_index_needs_no_cap(self):
        # d_3q' is d_q' moved by q: at l = 3^1000 it is d_1' on its closed-form support
        l = 3 ** 1000
        d = dl_run(1, l, l)[0]
        assert (d.nums, d.e) == ((1, 1), 0)
        assert (d.start, d.end) == support(1, l)

    def test_normalization_and_shape(self):
        assert checks.dl_normalized_unimodal(500)
        assert all(m > 0 for d in dl_run(1, 0, 499) for m in d.masses)

    def test_matches_recursive_build(self):
        rng = random.Random(16)
        memo = {}
        for k in (0, 1, 2, 3, 5):
            for l, d in enumerate(dl_run(k, 0, 3 ** 7 - 1)):
                assert (d.start, d.nums, d.e) == recursive_dl(k, l, memo), (k, l)
            for l in [rng.randrange(3 ** 40) for _ in range(200)]:
                d = dl_run(k, l, l)[0]
                assert (d.start, d.nums, d.e) == recursive_dl(k, l, memo), (k, l)

    def test_no_cache_outlives_a_call(self, tmp_path, capsys):
        # what a call builds lives only as long as the call, in every module;
        # the oracle keeps one cache by design, an lru_cache
        modules = [importlib.import_module(f"chaconlab.{info.name}")
                   for info in pkgutil.iter_modules([str(Path(co.__file__).parent)])]

        def held():
            return {f"{m.__name__}.{name}": len(value)
                    for m in modules for name, value in vars(m).items()
                    if not name.startswith("__") and isinstance(value, (dict, list, set))}

        series = tmp_path / "series.csv"
        a, b, c = checks.power_of_two_series(300)
        series.write_text("n,a,b,c\n" + "".join(
            f"{n}," + ",".join(f"{col.num[n]}/{col.den[n]}" for col in (a, b, c)) + "\n"
            for n in range(301)), encoding="utf-8")
        before = held()
        series_numerators(1, 0, 3 ** 9)
        for l in (0, 1, 2, 5, 3 ** 7 + 4, 3 ** 30 + 17):
            assert dl_run(1, l, l)[0].nums == dl_run(3, l, l)[0].nums
        for argv in (["verify", "--suite", "all", "--seed", "7"],
                     ["jset", "--k", "2", "--global", "--N-max", "3000"],
                     ["eset", "--k", "1", "--l", "300"],
                     ["extract", str(series)]):
            assert cli.main(argv) == cli.EXIT_OK, argv
        capsys.readouterr()
        grown = {name for name, size in held().items() if size != before.get(name)}
        assert not grown, grown
        assert [f"{m.__name__}.{name}" for m in modules for name, value in vars(m).items()
                if hasattr(value, "cache_info")] == ["chaconlab.oracle._lv_start"]

    def test_no_function_calls_itself(self):
        # a build that recursed once per ternary digit of l ran past the
        # interpreter's recursion limit near l = 3^1000; these oracle
        # functions are independent ground truth and keep their recursive form
        by_design = {"oracle.py:_lv_start", "oracle.py:_level", "oracle.py:_image_pieces"}
        recursive = []
        for path in sorted(Path(co.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            recursive += [
                f"{path.name}:{fn.name}" for fn in ast.walk(tree)
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id == fn.name for call in ast.walk(fn))]
        assert [name for name in recursive if name not in by_design] == []


@contextmanager
def recursion_limit(limit):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def recursive_run(k, a, b, memo):
    return [recursive_dl(k, l, memo) for l in range(a, b + 1)]


class TestDlRun:
    def test_runs_straddling_powers_of_three(self):
        # l = 3^m - 1 = 3q + 2 reads q + 1 = 3^(m-1), the first index of one more digit
        memo = {}
        for k in (0, 1, 2, 3):
            for m in range(1, 16):
                run = dl_run(k, 3 ** m - 2, 3 ** m + 1)
                assert [(d.start, d.nums, d.e) for d in run] == recursive_run(
                    k, 3 ** m - 2, 3 ** m + 1, memo), (k, m)

    def test_far_runs_need_wide_limbs(self):
        # l = (3^(m+1) - 1)/2 has every ternary digit 1, so e_l = m, and its
        # peak mass passes 64 bits at m = 43; a run near 3^1000 is a thousand
        # levels above the bases
        all_ones = (3 ** 44 - 1) // 2
        memo = {}
        with recursion_limit(10_000):
            for centre in (3 ** 40, all_ones, 3 ** 1000, 3 ** 1000 + all_ones):
                for k in (1, 2):
                    run = dl_run(k, centre - 2, centre + 2)
                    assert [(d.start, d.nums, d.e) for d in run] == recursive_run(
                        k, centre - 2, centre + 2, memo), (k, centre)
        assert max(dl_run(1, all_ones, all_ones)[0].nums) >= 2 ** 64

    def test_empty_and_bad_runs(self):
        assert dl_run(1, 5, 4) == []
        with pytest.raises(DomainError):
            dl_run(1, -1, 3)
        with pytest.raises(DomainError):
            dl_run(-1, 0, 3)


class TestSupport:
    def test_examples(self):
        for k in (1, 2, 3):
            h = height(k)
            assert support(k, 1) == (h, h + 1)
            assert support(k, 3) == (3 * h + 1, 3 * h + 2)
            assert support(k, 4) == (4 * h + 1, 4 * h + 3)

    def test_matches_mass_recursion(self):
        for k in (1, 2):
            for l, d in enumerate(dl_run(k, 0, 299)):
                assert support(k, l) == (d.start, d.end)
                assert d.support_size == compute_bl(l)

    def test_increments(self):
        for k in (1, 2):
            h = height(k)
            for l in range(3 ** 8):
                (s0, t0), (s1, t1) = support(k, l), support(k, l + 1)
                assert s1 - s0 in (h, h + 1)
                assert t1 - t0 in (h, h + 1)

    def test_matches_endpoint_recursion(self):
        # the support-endpoint recursion the closed form replaced: each
        # support is the hull of the shifted supports of its pieces
        for k in (0, 1, 2, 3, 5):
            h = height(k)
            s, t = [0, h], [0, h + 1]
            for m in range(2, 3 ** 10 + 1):
                q, r = divmod(m, 3)
                if r == 0:
                    s.append(s[q] + 2 * q * h + q)
                    t.append(t[q] + 2 * q * h + q)
                elif r == 1:
                    s.append(min(s[q] + (2 * q + 1) * h + q, s[q + 1] + 2 * q * h + q))
                    t.append(max(t[q] + (2 * q + 1) * h + q + 1, t[q + 1] + 2 * q * h + q))
                else:
                    s.append(min(s[q] + (2 * q + 2) * h + q + 1,
                                 s[q + 1] + (2 * q + 1) * h + q))
                    t.append(max(t[q] + (2 * q + 2) * h + q + 1,
                                 t[q + 1] + (2 * q + 1) * h + q + 1))
            assert [support(k, l) for l in range(3 ** 10 + 1)] == list(zip(s, t))

    def test_rejects_negative_index(self):
        with pytest.raises(DomainError):
            support(1, -1)


class TestSupportRun:
    def test_examples(self):
        for k in (1, 2):
            assert list(support_run(k, 0, 0)) == [0]
            assert list(support_run(k, height(k), height(k))) == [1]
        assert list(support_run(1, 11, 11)) == []

    def test_membership_and_contiguity(self):
        for k in (1, 2):
            for n in range(2000):
                pn = list(support_run(k, n, n))
                assert pn == list(range(pn[0], pn[-1] + 1)) if pn else True
                for l in pn:
                    s, t = support(k, l)
                    assert s <= n <= t
                if pn:
                    s, t = support(k, pn[0] - 1) if pn[0] else (0, 0)
                    assert pn[0] == 0 or not s <= n <= t

    def test_matches_closed_form_condition(self):
        # P_n = {l : |2n - l(2h_k+1)| <= b_l - 1}: each l can only be in P_n
        # for the n within b_l of l(2h_k+1)/2, and b_l <= 12 for l < 3^10
        n_max = 3 ** 9
        for k in (1, 2):
            h = height(k)
            pn = {n: [] for n in range(n_max + 1)}
            for l in range(2 * n_max // (2 * h + 1) + 4):
                b, mid = compute_bl(l), l * (2 * h + 1) // 2
                for n in range(max(mid - b, 0), min(mid + b, n_max) + 1):
                    if abs(2 * n - l * (2 * h + 1)) <= b - 1:
                        pn[n].append(l)
            assert all(list(support_run(k, n, n)) == pn[n] for n in range(n_max + 1))

    def test_far_runs_match_mass_recursion(self):
        # near 3^30 the run holds exactly the l whose d_l' covers n
        rng = random.Random(30)
        for _ in range(50):
            k = rng.choice((0, 1, 2, 3))
            n = 3 ** 30 + rng.randrange(3 ** 20)
            run = co.support_run(k, n, n)
            before, *inside, after = dl_run(k, run.start - 1, run.stop)
            assert all(d.start <= n <= d.end for d in inside)
            assert before.end < n < after.start

    def test_size_upper_bound(self):
        # |P_n| < b_m / (h_k - 1/2) + 1 for every m in P_n
        for k in (1, 2):
            h = Fraction(height(k))
            for n in range(20_000):
                pn = list(support_run(k, n, n))
                for m in pn:
                    assert len(pn) < compute_bl(m) / (h - Fraction(1, 2)) + 1

    def test_size_lower_bound_counterexample(self):
        # the matching lower bound (b_m - 1)/(h_k + 3/2) < |P_n| fails: at
        # k=1, n=548 the only index is m=122 with b_m = 7, and 6/5.5 > 1.
        # Frozen so any change in this behavior is noticed.
        assert list(support_run(1, 548, 548)) == [122]
        assert compute_bl(122) == 7
        assert support(1, 121) == (542, 547)
        assert support(1, 123) == (551, 556)
        b, h = Fraction(7), Fraction(4)
        assert not (b - 1) / (h + Fraction(3, 2)) < 1


class TestAutocorrelation:
    def test_examples(self):
        for k in (1, 2):
            assert autocorrelation(k, 0) == mu_Ak(k)
        assert autocorrelation(1, 4) == Fraction(1, 9)
        assert autocorrelation(1, 7) == 0

    def test_symmetric_in_time(self):
        for n in (0, 4, 9, 13):
            assert autocorrelation(1, -n) == autocorrelation(1, n)

    def test_far_point_needs_no_cap(self):
        n = 3 ** 30 + 7
        h = height(2)
        assert autocorrelation(2, n) == reference_correlation(2, n) == sum(
            autocorrelation(3, n + b - a) for a in (0, h, 2 * h + 1) for b in (0, h, 2 * h + 1))

    def test_rejects_negative_stage(self):
        with pytest.raises(DomainError):
            autocorrelation(-2, 3)
        with pytest.raises(DomainError):
            mu_Ak(-2)


def reference_correlation(k, n):
    """c_k(n) as a per-n Fraction sum over the masses of each d_l' covering n."""
    pn = support_run(k, n, n)
    run = dl_run(k, pn[0], pn[-1]) if pn else []
    return mu_Ak(k) * sum((d.masses[n - d.start] for d in run), Fraction(0))


class TestCorrelationSeries:
    def test_matches_reference_loop(self):
        for k in (1, 2, 3):
            assert correlation_series(k, 0, 3 ** 8) == [
                reference_correlation(k, n) for n in range(3 ** 8 + 1)]

    def test_window_starting_in_a_gap(self):
        for k in (1, 2, 3):
            gap = next(n for n in range(1000, 3 ** 8) if not support_run(k, n, n))
            assert correlation_series(k, gap, gap + 400) == [
                reference_correlation(k, n) for n in range(gap, gap + 401)]
            assert correlation_series(k, gap, gap) == [0]

    def test_far_window_and_domain(self):
        # each value satisfies the stage-renormalization identity
        # c_1(n) = sum of c_2(n + b - a) over a, b in {0, h_1, 2h_1 + 1}
        n0, h = 3 ** 100, height(1)
        shifts = [b - a for a in (0, h, 2 * h + 1) for b in (0, h, 2 * h + 1)]
        lo = n0 + min(shifts)
        c2 = correlation_series(2, lo, n0 + 20 + max(shifts))
        series = correlation_series(1, n0, n0 + 20)
        assert series == [sum(c2[n + s - lo] for s in shifts) for n in range(n0, n0 + 21)]
        assert any(series)
        n = 3_000_000
        assert correlation_series(1, n, n) == [reference_correlation(1, n)]
        with pytest.raises(DomainError):
            correlation_series(1, -1, 10)


def fraction_series(k, n_lo, n_hi):
    """c_k(n) for n in n_lo..n_hi as a per-l Fraction sum over the recursive
    build of every d_l' near the window."""
    memo, step = {}, 2 * height(k) + 1
    total = [Fraction(0)] * (n_hi - n_lo + 1)
    for l in range(max(0, (2 * n_lo - 200) // step), (2 * n_hi + 200) // step + 2):
        start, nums, e = recursive_dl(k, l, memo)
        for n, m in enumerate(nums, start):
            if n_lo <= n <= n_hi:
                total[n - n_lo] += Fraction(m, 2 * 3 ** e)
    return [mu_Ak(k) * t for t in total]


class TestSeriesAgainstFractionSum:
    def test_window_inside_a_gap(self):
        for k, l in ((1, 1), (1, 3 ** 20), (2, 3 ** 20 + 3), (3, 3 ** 40)):
            lo, hi = support(k, l)[1] + 1, support(k, l + 1)[0] - 1
            assert lo <= hi and co.support_run(k, lo, hi) == range(0)
            expected = fraction_series(k, lo, hi)
            assert correlation_series(k, lo, hi) == expected and not any(expected)

    def test_window_starting_mid_support(self):
        for k, l in ((1, 4), (1, 3 ** 20 + 5), (2, (3 ** 31 - 1) // 2), (3, 3 ** 40 + 13)):
            s, t = support(k, l)
            assert t - s >= 2
            assert correlation_series(k, s + 1, s + 60) == fraction_series(k, s + 1, s + 60)

    def test_window_of_width_one(self):
        for k, n in ((1, 0), (1, 4), (1, 3 ** 20 + 7), (2, 3 ** 41), (3, 3 ** 50 + 2)):
            assert correlation_series(k, n, n) == fraction_series(k, n, n)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 4), st.one_of(st.integers(0, 3 ** 9), st.integers(3 ** 30, 3 ** 45)),
           st.integers(1, 120))
    def test_any_window(self, k, n_lo, width):
        assert correlation_series(k, n_lo, n_lo + width - 1) == fraction_series(
            k, n_lo, n_lo + width - 1)


class TestCellCorrelation:
    def test_reduces_to_autocorrelation(self):
        for n in range(10):
            assert cell_correlation([0], [0], 1, n) == autocorrelation(1, n)

    def test_conjugation_shift(self):
        # mu(T A_k intersect T^-n A_k) = c_k(n + 1)
        h = height(1)
        assert cell_correlation([1], [0], 1, h - 1) == autocorrelation(1, h)
        assert autocorrelation(1, h) == mu_Ak(1) / 2
        for n in range(10):
            assert cell_correlation([1], [0], 1, n) == autocorrelation(1, n + 1)
            assert cell_correlation([0], [1], 1, n) == autocorrelation(1, n - 1)

    def test_two_cell_sum(self):
        assert cell_correlation([0, 1], [0], 1, 4) == (
            autocorrelation(1, 4) + autocorrelation(1, 5))

    def test_rejects_cells_outside_tower(self):
        with pytest.raises(DomainError):
            cell_correlation([4], [0], 1, 0)


def cesaro_last(k, big_n):
    """C_N = T_N / (den * N), the last running average of cesaro_totals."""
    totals, den = cesaro_totals(k, big_n)
    return Fraction(list(totals)[-1], den * big_n)


class TestCesaro:
    def test_single_term(self):
        for k in (1, 2):
            assert cesaro_last(k, 1) == mu_Ak(k) * (1 - mu_Ak(k))

    def test_five_terms_exact(self):
        # n=1..3 have zero correlation, n=4 contributes |1/9 - 4/81|
        assert cesaro_last(1, 5) == Fraction(31, 405)

    def test_nonnegative(self):
        for big_n in (1, 3, 10):
            assert cesaro_last(1, big_n) >= 0

    def test_rejects_empty_average(self):
        with pytest.raises(DomainError):
            cesaro_totals(1, 0)

    def test_running_sums_of_the_deviations(self):
        for k in (1, 2, 3):
            totals, den = cesaro_totals(k, 400)
            running = accumulate(abs(c - mu_Ak(k) ** 2) for c in correlation_series(k, 0, 399))
            assert [Fraction(t, den) for t in totals] == list(running), k


def test_cesaro_totals_carry_across_blocks():
    # the blocks of these windows differ in p, and each block's deviations
    # join the running sum over the one den fixed before the first block
    big_n = 30000
    for k in (1, 2):
        ps = {series_numerators(k, lo, min(lo + BLOCK, big_n) - 1)[1]
              for lo in range(0, big_n, BLOCK)}
        assert len(ps) > 1, k
        totals, den = cesaro_totals(k, big_n)
        running = accumulate(abs(c - mu_Ak(k) ** 2) for c in correlation_series(k, 0, big_n - 1))
        assert [Fraction(t, den) for t in totals] == list(running), k

class TestDeviationNumerators:
    def test_matches_fraction_reference(self):
        # at the origin, from inside a gap of the supports, and near 3^30
        for k in (1, 2, 3):
            gap = next(n for n in range(1000, 3 ** 8) if not support_run(k, n, n))
            for lo, hi in ((0, 400), (gap, gap + 400), (3 ** 30, 3 ** 30 + 400)):
                devs, den = deviation_numerators(k, lo, hi)
                _, p = series_numerators(k, lo, hi)
                assert den == 3 ** max(p, 2 * k + 2)
                assert [Fraction(d, den) for d in devs] == [
                    abs(c - mu_Ak(k) ** 2) for c in correlation_series(k, lo, hi)], (k, lo)

    def test_checks_run_at_the_call(self):
        with pytest.raises(DomainError):
            deviation_numerators(-1, 0, 3)
        with pytest.raises(DomainError):
            deviation_numerators(1, -1, 3)


class TestProfiles:
    def test_base_profile_is_unit_box(self):
        run = dl_run(0, 0, 0)
        d = dl_run(1, 0, 0)[0]
        assert (d.start, d.masses) == (0, (Fraction(1),))
        assert H_value(0, run) == 1
        # height 1, width 1: shifted by a whole unit it no longer overlaps itself
        assert profile_gap([(0, 0), (0, 2)], run) == 2

    def test_three_step_profile(self):
        assert H_value(2, dl_run(0, 0, 2)) == Fraction(2, 3)
        assert dl_run(1, 2, 2)[0].masses == (Fraction(1, 6), Fraction(2, 3), Fraction(1, 6))

    def test_index_tripling_fixes_profile(self):
        run = dl_run(0, 0, 297)
        for l in range(1, 100):
            assert profile_gap([(3 * l, 0), (l, 0)], run) == 0

    def test_adjacent_l1_distance(self):
        assert profile_gap([(1, 0), (0, 0)], dl_run(0, 0, 1)) == 1

    def test_even_and_normalized(self):
        h = height(1)
        for l, d in enumerate(dl_run(1, 0, 299)):
            assert sum(d.masses) == 1
            assert d.masses == tuple(reversed(d.masses))
            # centered: D_l lives on [2 start - 1 - (2h+1) l, 2 end + 1 - (2h+1) l] / 2,
            # which is symmetric about the origin
            assert d.start + d.end == (2 * h + 1) * l

    def test_half_shift_bounded_by_peak(self):
        run = dl_run(0, 0, 3 ** 5 - 1)
        for l in range(3 ** 5):
            assert profile_gap([(l, 0), (l, 1)], run) <= H_value(l, run)

    def test_envelope_contains_intermediate_profiles(self):
        # max - min over the family grows on a cell exactly where D_q leaves
        # the envelope, so the gaps are equal iff D_q lies inside it everywhere
        run = dl_run(0, 0, 3 ** 8 - 1)
        for l in range(3 ** 4):
            for p in range(1, 5):
                family = [(l + j, i) for j in range(2) for i in range(-p, p + 1)]
                gap = profile_gap(family, run)
                for q in range(l * 3 ** p, (l + 1) * 3 ** p):
                    assert profile_gap(family + [(q, 0)], run) == gap

    def test_envelope_gaps_match_profile_gap(self):
        # every envelope family of l < 3^5, each p_bound read against the
        # general definition; one run serves every l
        run = dl_run(0, 0, 3 ** 5 + 1)
        for l in range(3 ** 5):
            gaps = [profile_gap([(l + j, i) for j in range(3) for i in range(-p, p + 1)], run)
                    for p in range(1, 7)]
            for p_bound in range(1, 7):
                assert envelope_gaps(l, p_bound, run) == gaps[:p_bound]

    def test_sweeps_pinned(self):
        # the values and first argmaxes recorded beside constants.FROZEN; the
        # argmax is the first key in the sweep's order that attains the max
        assert constants.sweep_c1_sq(3 ** 5) == (Fraction(980, 729), 16)
        assert constants.sweep_c2_sq(3 ** 5) == (Fraction(16, 9), 5)
        assert constants.sweep_c3_sq(3 ** 4, 4) == (Fraction(605, 36), (16, 1))

    def test_gap_matches_reference_cells(self):
        def reference_gap(k, dists, family):
            h = height(k)
            profiles = []
            for l, i in family:
                d = dists[l]
                first = 2 * d.start - 1 - (2 * h + 1) * l + i
                vals = [v for m in d.masses for v in (m, m)]
                profiles.append({first + j: v for j, v in enumerate(vals)})
            lo = min(min(f) for f in profiles)
            hi = max(max(f) for f in profiles)
            total = Fraction(0)
            for j in range(lo, hi + 1):
                vals = [f.get(j, Fraction(0)) for f in profiles]
                total += max(vals) - min(vals)
            return total / 2

        run = dl_run(0, 0, 244)
        for k in (1, 2):
            dists = dl_run(k, 0, 244)
            for l in range(243):
                families = [[(l + 1, 0), (l, 0)]]
                families += [[(l + j, i) for j in range(3) for i in range(-p, p + 1)]
                             for p in (1, 2, 3, 4)]
                for family in families:
                    # one profile serves every stage
                    assert profile_gap(family, run) == reference_gap(k, dists, family)


def test_only_input_parsing_raises_size_error():
    # resource caps live where outside input enters: the command line and the
    # parsing of a point; the library computes whatever it is asked
    raisers = []
    for path in sorted(Path(co.__file__).parent.glob("*.py")):
        if path.name in ("cli.py", "triadic.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        raisers += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and node.exc is not None
            and any(isinstance(name, ast.Name) and name.id == "SizeError"
                    or isinstance(name, ast.Attribute) and name.attr == "SizeError"
                    for name in ast.walk(node.exc))]
    assert raisers == []
