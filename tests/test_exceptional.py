import heapq
import itertools
import math
import random
import tracemalloc
from bisect import bisect_right
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from chaconlab import checks, constants
from chaconlab.correlation import (
    autocorrelation,
    compute_bl,
    correlation_series,
    dl_run,
    series_numerators,
    support,
    support_span,
)
from chaconlab.exceptional import (
    K_MAX,
    Column,
    ExtractionResult,
    HFunction,
    InputError,
    IntegerIntervalSet,
    _fattened,
    _layers,
    _steps,
    _weight_runs,
    build_J,
    build_Jk,
    column_terms,
    counted,
    cut,
    enumerate_Ek,
    extract_exceptional,
    g_cutoff,
)
from chaconlab.tower import height
from chaconlab.triadic import DomainError


class TestIntegerIntervalSet:
    def test_merge_and_count(self):
        s = IntegerIntervalSet([(1, 2), (5, 7), (8, 10), (20, 20)])
        assert s.intervals == ((1, 2), (5, 10), (20, 20))
        assert len(s) == 9
        assert s.count(0) == 0
        assert s.count(6) == 4
        assert s.count(100) == 9

    def test_membership(self):
        s = IntegerIntervalSet([(3, 5), (9, 9)])
        assert 3 in s and 5 in s and 9 in s
        assert 2 not in s and 6 not in s and 10 not in s

    def test_from_points(self):
        assert IntegerIntervalSet((p, p) for p in [2, 3, 4, 8]).intervals == ((2, 4), (8, 8))

    def test_fatten_truncate_clip(self):
        s = IntegerIntervalSet([(2, 3), (10, 11)])
        assert tuple(cut(s, 3, 11)) == ((3, 3), (10, 11))
        assert tuple(cut(s, 3, 10)) == ((3, 3), (10, 10))
        assert IntegerIntervalSet([(2, 3), (4, 9), (10, 11)]).intervals == ((2, 11),)

    def test_truncation_only_changes_the_prefix(self):
        s = IntegerIntervalSet([(2, 8), (15, 20), (30, 31)])
        t = IntegerIntervalSet(cut(s, 16, 40))
        for n in range(16, 40):
            assert (n in s) == (n in t)
        assert t.count(40) == s.count(40) - s.count(15)

    def test_iter_points(self):
        s = IntegerIntervalSet([(1, 3), (7, 7)])
        assert list(s.iter_points()) == [1, 2, 3, 7]

    def test_counted_matches_count(self):
        s = IntegerIntervalSet([(1, 2), (5, 7), (8, 10), (20, 20)])
        assert list(counted(s)) == [(a, b, s.count(b)) for a, b in s.intervals] == [
            (1, 2, 2), (5, 10, 8), (20, 20, 9)]
        assert list(counted(IntegerIntervalSet())) == []

    def test_cut_stops_at_the_first_piece_past_its_end(self):
        # an endless stream of pieces: cut reads one piece past hi, no more
        pieces = ((3 * i, 3 * i + 1) for i in itertools.count())
        assert tuple(cut(pieces, 4, 10)) == ((4, 4), (6, 7), (9, 10))
        assert next(pieces) == (15, 16)

    def test_one_merge_matches_point_sets(self):
        # seeded intervals in start order, against the set of their points;
        # top is the end of the open piece, the largest end so far
        rng = random.Random(57)
        kinds = dict.fromkeys(("nested", "touching", "overlapping", "empty", "negative"), 0)
        for _ in range(500):
            intervals, points, top = [], set(), None
            a = rng.randint(-25, 15)
            for _ in range(rng.randint(0, 10)):
                a += rng.choice((0, 1, 2, 4, 9))
                b = a + rng.randint(-2, 10)
                if top is not None and a <= top + 1 and rng.random() < 0.4:
                    a = top + 1               # touch the open piece
                    b = a + rng.randint(0, 4)
                if b < a:
                    kinds["empty"] += 1
                elif top is not None and a == top + 1:
                    kinds["touching"] += 1
                elif top is not None and a <= top:
                    kinds["nested" if b < top else "overlapping"] += 1
                kinds["negative"] += a < 0 <= b
                intervals.append((a, b))
                points.update(range(a, b + 1))
                if a <= b:
                    top = b if top is None else max(top, b)
            s = IntegerIntervalSet(intervals)
            pieces = s.intervals
            assert all(a <= b for a, b in pieces)
            assert all(b + 1 < a2 for (_, b), (a2, _) in zip(pieces, pieces[1:]))
            assert set(s.iter_points()) == points
            assert len(s) == len(points)
            window = range(-30, (top or 0) + 4)
            assert [n in s for n in window] == [n in points for n in window]
            nonneg = IntegerIntervalSet(cut(s, 0, (top or 0) + 3))
            assert [nonneg.count(n) for n in window] == [
                sum(0 <= p <= n for p in points) for n in window]
            for _ in range(3):
                lo = rng.randint(-30, (top or 0) + 3)
                hi = rng.randint(lo - 2, (top or 0) + 5)
                part = IntegerIntervalSet(cut(s, lo, hi))
                assert set(part.iter_points()) == {p for p in points if lo <= p <= hi}
                assert part == IntegerIntervalSet((p, p) for p in sorted(part.iter_points()))
        assert all(kinds.values()), kinds

    def test_start_below_the_open_piece_is_rejected(self):
        for intervals in ([(5, 9), (3, 4)], [(0, 3), (6, 8), (5, 5)], [(-2, -1), (-4, 0)]):
            with pytest.raises(DomainError):
                IntegerIntervalSet(intervals)
        # a start inside the open piece is in order, wherever it ends
        assert IntegerIntervalSet([(0, 10), (3, 4), (2, 12)]).intervals == ((0, 12),)


class TestHFunction:
    def test_parse_families(self):
        assert HFunction.parse("linear")(5.0) == 5.0
        assert HFunction.parse("log")(math.e) == pytest.approx(1.0)
        assert HFunction.parse("loglog")(math.exp(math.e)) == pytest.approx(1.0)
        assert HFunction.parse("power:0.5")(16.0) == pytest.approx(4.0)
        for bad in ("cubic", "power:nan", "power:inf"):
            with pytest.raises(DomainError):
                HFunction.parse(bad)

    def test_table_interpolation(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("# growth table\nx,y\n1,1\n10,2\n100,3\n", encoding="utf-8")
        h = HFunction.parse(f"table:{path}")
        assert h(1.0) == pytest.approx(1.0)
        assert h(5.5) == pytest.approx(1.5)
        assert h(1000.0) == pytest.approx(13.0)  # linear continuation

    def test_table_rejects_non_increasing(self):
        with pytest.raises(DomainError):
            HFunction.table([(1, 1), (2, 1)])

    def test_table_rejects_repeated_x_and_non_finite_values(self):
        for rows in ([(1, 1), (1, 2)], [(1, math.nan), (2, 3)], [(1, 1), (math.inf, 2)]):
            with pytest.raises(DomainError):
                HFunction.table(rows)

    def test_diverges_on_doubling_grid(self):
        for spec in ("linear", "log", "loglog", "power:0.3"):
            h = HFunction.parse(spec)
            x, prev = 4.0, -math.inf
            for _ in range(40):
                val = h(x)
                assert val > prev
                prev = val
                x *= 2

    def test_inverse_ceil(self):
        assert HFunction.linear().inverse_ceil(81) == 81
        assert HFunction.power(0.5).inverse_ceil(3) == 9
        with pytest.raises(OverflowError):
            HFunction.log().inverse_ceil(3 ** 6)

    def test_g_cutoff_linear(self):
        assert g_cutoff(HFunction.linear(), 1) == 81
        assert g_cutoff(HFunction.linear(), 2) == 729

    def test_g_cutoff_matches_uncapped_power(self):
        # g_cutoff builds no power past 3^647, the first past the largest
        # float; 3^(2k+2) itself gives the same value or the same overflow
        def outcome(cutoff, h, k):
            try:
                return cutoff(h, k)
            except OverflowError as exc:
                return str(exc)

        def uncapped(h, k):
            return h.inverse_ceil(float(3 ** (2 * k + 2)))

        for spec in ("linear", "log", "loglog", "power:0.5", "power:1e-300"):
            h = HFunction.parse(spec)
            for k in (159, 160, 161, 322, 323, 646, 647, 20000):
                assert outcome(g_cutoff, h, k) == outcome(uncapped, h, k), (spec, k)


def columns(*seqs):
    """Each sequence of ints, Fractions or floats as a Column, every term read
    through Fraction, so a float stands for its exact binary64 value."""
    fracs = ([Fraction(x) for x in xs] for xs in seqs)
    return [Column([x.numerator for x in xs], [x.denominator for x in xs]) for xs in fracs]


def extract(a, b, c, n_max):
    """The extractor on three Columns, zipped into its stream of terms."""
    return extract_exceptional(column_terms(a, b, c, n_max))


class TestExtractor:
    def test_zero_sequence(self):
        n_max = 300
        a = [Fraction(0)] * (n_max + 1)
        b = [Fraction(1, n + 1) for n in range(n_max + 1)]
        c = [Fraction(1, n + 2) for n in range(n_max + 1)]
        a, b, c = columns(a, b, c)
        res = extract(a, b, c, n_max)
        assert len(res.exceptional) == 0
        assert all(lk == 0 for lk in res.thresholds)
        assert checks.contract_holds(res, a, b, c, n_max)

    def test_power_of_two_series_terms(self):
        # the integer Columns hold the terms of the series' Fraction definition
        n_max = 2 ** 12
        a, b, c = checks.power_of_two_series(n_max)
        assert all(len(col.num) == len(col.den) == n_max + 1 for col in (a, b, c))
        assert all(col.den[n] > 0 for col in (a, b, c) for n in range(n_max + 1))
        for n in range(n_max + 1):
            assert Fraction(a.num[n], a.den[n]) == (1 if n and 2 ** int(math.log2(n)) == n else 0)
            assert Fraction(b.num[n], b.den[n]) == (
                Fraction(math.floor(math.log2(n)) + 2, n) if n else 1)
            assert Fraction(c.num[n], c.den[n]) == Fraction(1 / math.log(n + 2))

    def test_power_of_two_spikes(self):
        n_max = 2 ** 12
        a, b, c = checks.power_of_two_series(n_max)
        res = extract(a, b, c, n_max)
        assert len(res.thresholds) >= 2
        l2 = res.thresholds[1]
        assert all(2 ** e in res.exceptional
                   for e in range(13) if 2 ** e >= l2)
        assert checks.contract_holds(res, a, b, c, n_max)

    def test_contract_fails_without_an_exceptional_point(self):
        # a_16 = 1 > 1/2 from l_2 on, so dropping 16 breaks the first inequality
        n_max = 2 ** 12
        a, b, c = checks.power_of_two_series(n_max)
        res = extract(a, b, c, n_max)
        assert res.thresholds[1] <= 16
        kept = IntegerIntervalSet((p, p) for p in res.exceptional.iter_points() if p != 16)
        res = ExtractionResult(kept, res.thresholds, res.level_sets)
        assert not checks.contract_holds(res, a, b, c, n_max)

    def test_contract_fails_with_thresholds_at_zero(self):
        # every power of two stays exceptional, but at n = 1 the count bound
        # of the last k reads c_1 * 1 * 8 = 8/log 3 > 1 * b_1 = 2
        n_max = 2 ** 12
        a, b, c = checks.power_of_two_series(n_max)
        res = extract(a, b, c, n_max)
        res = ExtractionResult(res.exceptional, [0] * len(res.thresholds), res.level_sets)
        assert not checks.contract_holds(res, a, b, c, n_max)

    def test_vanishing_sequence_gives_finite_level_sets(self):
        n_max = 800
        a = [Fraction(1, j + 1) for j in range(n_max + 1)]
        run, b = Fraction(0), [Fraction(1)]
        for n in range(1, n_max + 1):
            run += a[n - 1]
            b.append(run / n)
        c = [Fraction(1, n + 2) for n in range(n_max + 1)]
        a, b, c = columns(a, b, c)
        res = extract(a, b, c, n_max)
        for k in range(1, len(res.level_sets) + 1):
            assert set(res.level_sets[k - 1].iter_points()) == set(range(k - 1))
        assert checks.contract_holds(res, a, b, c, n_max)

    def test_rejects_negative_deviation(self):
        with pytest.raises(InputError):
            extract(*columns([-1], [1], [1]), 0)

    def test_rejects_cesaro_violation_with_witness(self):
        a = [Fraction(1)] * 4
        b = [Fraction(1), Fraction(1), Fraction(1, 10), Fraction(1)]
        c = [Fraction(1, n + 2) for n in range(4)]
        with pytest.raises(InputError, match="n=2"):
            extract(*columns(a, b, c), 3)

    def test_rejects_increasing_c(self):
        a = [Fraction(0)] * 4
        b = [Fraction(1)] * 4
        c = [Fraction(1), Fraction(2), Fraction(1), Fraction(1)]
        with pytest.raises(InputError, match="not decreasing"):
            extract(*columns(a, b, c), 3)

    def test_rejects_short_sequences(self):
        # the Column-to-stream zip refuses a column that misses a term, and
        # truncates none
        with pytest.raises(InputError, match=r"cover indices 0\.\.5"):
            column_terms(*columns([0], [1], [1]), 5)
        a, b, c = columns([0] * 6, [1] * 6, [1] * 6)
        for short in (Column(a.num, a.den[:5]), Column(a.num[:5], a.den)):
            with pytest.raises(InputError):
                column_terms(short, b, c, 5)
            with pytest.raises(InputError):
                column_terms(b, c, short, 5)


def reference_contract_holds(res, a, b, c, n_max: int) -> bool:
    """The per-threshold contract check of commit 70e1755, verbatim: one scan
    of the window per threshold, the reference for the one-pass check."""
    for k in range(1, len(res.thresholds) + 1):
        lk = res.thresholds[k - 1]
        hi = res.thresholds[k] if k < len(res.thresholds) else n_max + 1
        if any(a.num[n] * k > a.den[n] and n not in res.exceptional
               for n in range(lk, n_max + 1)):
            return False
        if any(c.num[n] * res.exceptional.count(n) * k * b.den[n]
               > n * b.num[n] * c.den[n] for n in range(max(lk, 1), hi)):
            return False
    return True


class TestContractMatchesReference:
    def check(self, res, a, b, c, n_max):
        expected = reference_contract_holds(res, a, b, c, n_max)
        assert checks.contract_holds(res, a, b, c, n_max) == expected, (res.thresholds, n_max)
        return expected

    def test_power_of_two_series(self):
        for n_max in (0, 1, 2 ** 6, 2 ** 12):
            a, b, c = checks.power_of_two_series(n_max)
            assert self.check(extract(a, b, c, n_max), a, b, c, n_max)

    def test_edited_thresholds(self):
        n_max = 2 ** 6
        a, b, c = checks.power_of_two_series(n_max)
        res = extract(a, b, c, n_max)
        k = len(res.thresholds)
        verdicts = set()
        for thresholds in ([0] * k, [0, 10, 10, 27], [0, 0, 27, 27], [0, 0, 10, n_max],
                           [n_max] * k, [0, 0, n_max, n_max], [0, 1, 1, 2]):
            edited = ExtractionResult(res.exceptional, thresholds, res.level_sets)
            verdicts.add(self.check(edited, a, b, c, n_max))
        assert verdicts == {True, False}

    def test_count_bound_starts_at_one(self):
        # an exceptional point at n = 0 is counted from n = 1 on, where
        # c_n * 1 * 1 = 1/(n + 2) <= n * b_n = n/(n + 1)
        n_max = 40
        a, b, c = columns([0] * (n_max + 1), [Fraction(1, n + 1) for n in range(n_max + 1)],
                          [Fraction(1, n + 2) for n in range(n_max + 1)])
        res = ExtractionResult(IntegerIntervalSet([(0, 0)]), [0], [IntegerIntervalSet()])
        assert self.check(res, a, b, c, n_max)

    def test_seeded_results_with_a_point_dropped_or_a_threshold_lowered(self):
        # every exceptional point is needed, so a dropped one always fails;
        # a lowered threshold passes, fails the first inequality or fails
        # only the count bound
        rng = random.Random(47)
        verdicts = {"dropped": set(), "lowered": set()}
        for case in range(80):
            n_max = rng.randint(3, 200)
            a, b, c = columns(*random_series(rng, n_max))
            res = extract(a, b, c, n_max)
            assert self.check(res, a, b, c, n_max)
            points = list(res.exceptional.iter_points())
            if points:
                gone = rng.choice(points)
                kept = IntegerIntervalSet((p, p) for p in points if p != gone)
                verdicts["dropped"].add(self.check(
                    ExtractionResult(kept, res.thresholds, res.level_sets), a, b, c, n_max))
            # lower one threshold l_k to a value in [l_(k-1), l_k)
            raised = [k for k, lk in enumerate(res.thresholds, 1)
                      if lk > ([0] + res.thresholds)[k - 1]]
            if raised:
                k = rng.choice(raised)
                thresholds = list(res.thresholds)
                lk = rng.randrange(([0] + thresholds)[k - 1], thresholds[k - 1])
                thresholds[k - 1] = lk
                holds = self.check(
                    ExtractionResult(res.exceptional, thresholds, res.level_sets), a, b, c, n_max)
                first = all(a.num[n] * k <= a.den[n] or n in res.exceptional
                            for n in range(lk, n_max + 1))
                verdicts["lowered"].add("holds" if holds else "count" if first else "first")
        assert verdicts == {"dropped": {False}, "lowered": {"holds", "count", "first"}}

    def test_rejects_decreasing_thresholds(self):
        a, b, c = checks.power_of_two_series(2 ** 6)
        res = extract(a, b, c, 2 ** 6)
        res = ExtractionResult(res.exceptional, [0, 10, 0, 27], res.level_sets)
        with pytest.raises(DomainError, match="nondecreasing"):
            checks.contract_holds(res, a, b, c, 2 ** 6)


def reference_extract(a, b, c, n_max: int, k_max: int = 32) -> ExtractionResult:
    """The Fraction extractor of commit 28b6eb4, verbatim: the reference for the
    integer one."""
    av = [Fraction(x) for x in a[: n_max + 1]]
    bv = [Fraction(x) for x in b[: n_max + 1]]
    cv = [Fraction(x) for x in c[: n_max + 1]]
    if len(av) != n_max + 1 or len(bv) != n_max + 1 or len(cv) != n_max + 1:
        raise InputError(f"sequences must cover indices 0..{n_max}")
    if any(x < 0 for x in av):
        raise InputError("deviation sequence has a negative entry")
    running = Fraction(0)
    for n in range(1, n_max + 1):
        running += av[n - 1]
        if running > n * bv[n]:
            raise InputError(f"Cesaro bound violated at n={n}: mean {running / n} > {bv[n]}")
    for n in range(1, n_max + 1):
        if cv[n] > cv[n - 1]:
            raise InputError(f"c is not decreasing at n={n}")

    thresholds: list[int] = []
    level_sets: list[IntegerIntervalSet] = []
    prev_l = 0
    for k in range(1, k_max + 1):
        jk = IntegerIntervalSet(
            (j, j) for j, x in enumerate(av) if x * k > 1
        )
        # minimal start so the normalized count stays <= 1/k through the window
        lk = None
        ok_from = n_max + 1
        for n in range(n_max, -1, -1):
            cnt = jk.count(n)
            if n == 0:
                good = cnt == 0
            else:
                good = cv[n] * cnt * k <= n * bv[n]
            if good:
                ok_from = n
            else:
                break
        if ok_from <= n_max:
            lk = max(ok_from, prev_l)
        if lk is None:
            break
        thresholds.append(lk)
        level_sets.append(jk)
        prev_l = lk

    pieces: list[tuple[int, int]] = []
    for i, jk in enumerate(level_sets):
        lo = thresholds[i]
        hi = thresholds[i + 1] if i + 1 < len(thresholds) else n_max
        pieces.extend(cut(jk, lo, hi))
    return ExtractionResult(IntegerIntervalSet(pieces), thresholds, level_sets)


def extraction(fn, a, b, c, n_max):
    """(thresholds, level sets, exceptional set), or the InputError message."""
    try:
        res = fn(a, b, c, n_max)
    except InputError as exc:
        return str(exc)
    return res.thresholds, res.level_sets, res.exceptional


def random_deviation(rng):
    kind = rng.choice(("zero", "zero", "unit", "at-least-one", "rational", "float", "int"))
    if kind == "zero":
        return rng.choice((0, 0.0, Fraction(0)))
    if kind == "unit":
        return Fraction(1, rng.randint(1, 40))       # a_j * k > 1 is strict at k = 1/a_j
    if kind == "at-least-one":
        return Fraction(rng.randint(3, 12), rng.randint(1, 3))
    if kind == "rational":
        return Fraction(rng.randint(1, 50), rng.randint(1, 500))
    if kind == "float":
        return rng.choice((0.5, 0.25, 0.1, 1.5, 1 / 3, 2.0))
    return rng.randint(1, 3)


def random_series(rng, n_max: int):
    """a of mixed types, b just above the running means, c nonincreasing."""
    a = [random_deviation(rng) for _ in range(n_max + 1)]
    slack = rng.choice((Fraction(0), Fraction(1, rng.randint(1, 50)), Fraction(rng.randint(1, 4))))
    b, total = [rng.choice((0, 1, Fraction(1, 2)))], Fraction(0)
    for n in range(1, n_max + 1):
        total += Fraction(a[n - 1])
        bound = total / n + slack * Fraction(rng.randint(0, 8), 8)
        # a float at or above the bound, on a 2^-10 grid, or the bound itself
        b.append(math.ceil(bound * 1024) / 1024 if rng.random() < 0.3 else bound)
    form = rng.choice(("harmonic", "log", "crossing", "steps", "const"))
    if form == "harmonic":
        c = [Fraction(1, n + 2) for n in range(n_max + 1)]
    elif form == "log":
        c = [1 / math.log(n + 2) for n in range(n_max + 1)]
    elif form == "crossing":
        # reaches 0 at n = t, negative after
        t = rng.randint(1, n_max + 1)
        c = [Fraction(t - n, t) for n in range(n_max + 1)]
    elif form == "steps":
        c = [max(3 - n // 40, -2) for n in range(n_max + 1)]
    else:
        c = [Fraction(1, 7)] * (n_max + 1)
    return a, b, c


class TestExtractorMatchesReference:
    def check(self, a, b, c, n_max):
        expected = extraction(reference_extract, a, b, c, n_max)
        assert extraction(extract, *columns(a, b, c), n_max) == expected
        return expected

    def test_random_series(self):
        rng = random.Random(41)
        seen = {"early-break": 0, "nonpositive-c": 0, "nonzero-threshold": 0}
        for case in range(150):
            n_max = rng.choice((0, 1, 2, rng.randint(3, 300), rng.randint(3, 300)))
            a, b, c = random_series(rng, n_max)
            thresholds, level_sets, _ = self.check(a, b, c, n_max)
            seen["early-break"] += 0 < len(thresholds) < K_MAX
            seen["nonzero-threshold"] += any(thresholds)
            seen["nonpositive-c"] += Fraction(c[-1]) <= 0
        assert all(seen.values()), seen

    def test_exact_unit_values(self):
        n_max = 60
        a = [Fraction(1, 1 + j % 8) if j % 3 == 0 else 0 for j in range(n_max + 1)]
        b = [1] * (n_max + 1)
        c = [Fraction(1, n + 2) for n in range(n_max + 1)]
        _, level_sets, _ = self.check(a, b, c, n_max)
        # a_j = 1/k is not in J_k
        for k, jk in enumerate(level_sets, 1):
            assert all(a[j] * k > 1 for j in jk.iter_points())
            assert all(j in jk for j in range(n_max + 1) if a[j] * k > 1)

    def test_large_deviations_and_zero_series(self):
        for n_max in (0, 1, 7, 200):
            for a in ([0] * (n_max + 1), [Fraction(5, 2)] * (n_max + 1),
                      [1.0, 0, 3] * (n_max // 3) + [1] * (n_max % 3 + 1)):
                b = [3] * (n_max + 1)
                for c in ([Fraction(1, n + 2) for n in range(n_max + 1)],
                          [Fraction(10 - n, 10) for n in range(n_max + 1)], [0] * (n_max + 1)):
                    self.check(a, b, c, n_max)

    def test_early_break(self):
        # a large value near the end of the window fails at n_max from some k on
        n_max = 100
        a = [0] * n_max + [Fraction(1, 3)]
        b = [Fraction(1, 300)] * (n_max + 1)
        c = [1] * (n_max + 1)
        thresholds, _, _ = self.check(a, b, c, n_max)
        assert len(thresholds) == 3

    def test_one_point_window(self):
        for a0, expected in ((0, [0] * K_MAX), (Fraction(1, 8), [0] * 8),
                             (Fraction(1, 4), [0] * 4), (2, [])):
            thresholds, _, _ = self.check([a0], [1], [1], 0)
            assert thresholds == expected

    def test_same_errors(self):
        rng = random.Random(43)
        kinds = set()
        for case in range(60):
            n_max = rng.randint(1, 120)
            a, b, c = random_series(rng, n_max)
            n = rng.randint(1, n_max)
            corruption = case % 3
            if corruption == 0:
                a[n - 1] = -Fraction(1, rng.randint(1, 9))
            elif corruption == 1:
                b[n] = -Fraction(1, rng.randint(1, 9))
            else:
                c[n] = Fraction(c[n - 1]) + Fraction(1, rng.randint(1, 9))
            expected = self.check(a, b, c, n_max)
            assert isinstance(expected, str)
            kinds.add(expected.split(" ")[0])
        assert kinds == {"deviation", "Cesaro", "c"}


def reference_column_extract(a: Column, b: Column, c: Column, n_max: int) -> ExtractionResult:
    """The Column extractor of commit a9f27d3, verbatim: six integer lists
    and n_max in, every check raised as it is met; the reference for the
    streamed one."""
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


def spike_series(rng, n_points):
    """The shape of the exceptional benchmark's series: a is zero but at
    n_points/16 seeded spikes 1/d, d = 1..32; b = (sum_{j<n} a_j + 1)/n;
    c = the binary64 values of 1/log(n + 2)."""
    a = [Fraction(0)] * n_points
    for i, n in enumerate(rng.sample(range(n_points), n_points // 16)):
        a[n] = Fraction(1, 1 + i % 32)
    b, total = [Fraction(1)], Fraction(0)
    for n in range(1, n_points):
        total += a[n - 1]
        b.append((total + 1) / n)
    return a, b, [1 / math.log(n + 2) for n in range(n_points)]


class TestStreamMatchesColumnReference:
    def check(self, a, b, c, n_max):
        expected = extraction(reference_column_extract, a, b, c, n_max)
        assert extraction(extract, a, b, c, n_max) == expected
        return expected

    def test_power_of_two_series(self):
        n_max = 2 ** 12
        thresholds, _, exceptional = self.check(*checks.power_of_two_series(n_max), n_max)
        assert len(thresholds) >= 2 and 2 ** 12 in exceptional

    def test_vanishing_sequence(self):
        n_max = 800
        a = [Fraction(1, j + 1) for j in range(n_max + 1)]
        run, b = Fraction(0), [Fraction(1)]
        for n in range(1, n_max + 1):
            run += a[n - 1]
            b.append(run / n)
        c = [Fraction(1, n + 2) for n in range(n_max + 1)]
        _, level_sets, _ = self.check(*columns(a, b, c), n_max)
        assert len(level_sets) == K_MAX

    def test_seeded_spike_series(self):
        rng = random.Random(53)
        for n_points in (1, 2, 17, 300, 2 ** 11):
            thresholds, _, exceptional = self.check(*columns(*spike_series(rng, n_points)),
                                                    n_points - 1)
            assert n_points < 2 ** 11 or len(exceptional) and any(thresholds)

    def test_series_that_break_several_rules(self):
        # a negative a_j, a b_n below the running mean and an increase of c,
        # two or three of them at seeded places: the same error, which names
        # the first rule broken in the reference's order
        rng = random.Random(59)
        messages = set()
        for case in range(90):
            n_max = rng.randint(2, 150)
            a, b, c = random_series(rng, n_max)
            broken = rng.sample(range(3), rng.choice((2, 3)))
            for rule in broken:
                n = rng.randint(1, n_max)
                if rule == 0:
                    a[n - 1] = -Fraction(1, rng.randint(1, 9))
                elif rule == 1:
                    b[n] = -Fraction(1, rng.randint(1, 9))
                else:
                    c[n] = Fraction(c[n - 1]) + Fraction(1, rng.randint(1, 9))
            message = self.check(*columns(a, b, c), n_max)
            assert isinstance(message, str)
            messages.add((min(broken), message.split(" ")[0]))
        assert messages == {(0, "deviation"), (1, "Cesaro")}


class TestBuildJk:
    def test_first_layer_is_empty(self):
        # the window ends just below s_9 >= 9 h_1, where layer 2 starts
        assert len(IntegerIntervalSet(build_Jk(1, HFunction.linear(), 9 * height(1) - 1))) == 0

    def test_generous_threshold_takes_whole_layer(self):
        # the window [0, t_27] holds layer 2 and ends below s_28
        h = HFunction("shift100", lambda x: x + 100)
        jk = IntegerIntervalSet(build_Jk(1, h, support(1, 27)[1]))
        manual = IntegerIntervalSet(support(1, t) for t in range(9, 28))
        assert jk == manual

    def test_rejects_stage_zero(self):
        with pytest.raises(DomainError):
            build_Jk(0, HFunction.linear(), 100)

    def test_matches_mass_recursion_supports(self):
        # loglog's N = 1 threshold is nan; the table's threshold takes 183 of
        # the 487 indices of layer 5 and 1395 of the 1459 of layer 6
        table = HFunction.table([(1.0, 1.0), (4.0, 2.0), (8.0, 3.0)])
        runs = {k: dl_run(k, 0, 3 ** 8) for k in (1, 2, 3)}
        for h in (HFunction.linear(), HFunction.log(), HFunction.power(0.5),
                  HFunction.loglog(), table):
            for k, dists in runs.items():
                # every full layer up to 3^7; no support of a later index
                # starts below s_6561 >= 3^8 h_k
                pieces = []
                for big_n in range(1, 8):
                    threshold = math.log(big_n) ** 2 * h(big_n)
                    for t in range(3 ** big_n, 3 ** (big_n + 1) + 1):
                        if compute_bl(t) < threshold:
                            pieces.append((dists[t].start, dists[t].end))
                full = IntegerIntervalSet(pieces)
                hk = height(k)
                for t_max in (2, 8, 9, 80, 81, 300, 729, 2187, 6560):
                    for n_max in (t_max * hk, t_max * hk + hk - 1):
                        assert tuple(build_Jk(k, h, n_max)) == tuple(cut(full, 0, n_max)), (
                            h.name, k, n_max)

    def test_layer_thresholds_are_exact(self):
        # _layers decides b_l < (ln N)^2 h(N) through the ceiling of a binary64
        # product; for these families and every layer N = 2..1000 it gives the
        # c of the exact value at 60 digits, and no layer where that is <= 0
        # (loglog at N = 2)
        exact = {"linear": lambda n: n, "log": Decimal.ln, "loglog": lambda n: n.ln().ln(),
                 "power:0.5": Decimal.sqrt, "power:0.25": lambda n: n.sqrt().sqrt()}
        with localcontext() as ctx:
            ctx.prec = 60
            for spec, h in exact.items():
                # at h_k = 1 the layers reach N = 1000 on the window [0, 3^1001]
                cs = {lo: c for lo, _, c in _layers(HFunction.parse(spec), 1, 3 ** 1001)}
                for big_n in range(2, 1001):
                    threshold = Decimal(big_n).ln() ** 2 * h(Decimal(big_n))
                    expected = math.ceil(min(threshold, big_n + 4)) - 2 if threshold > 0 else None
                    assert cs.get(3 ** big_n) == expected, (spec, big_n)

    def test_members_carry_positive_correlation(self):
        jk = IntegerIntervalSet(build_Jk(1, HFunction.linear(), 400))
        pts = list(jk.iter_points())
        assert pts
        assert all(autocorrelation(1, n) > 0 for n in pts)


class TestBuildJ:
    def test_layers_are_fattened_and_truncated(self):
        jset = IntegerIntervalSet(build_J(1, HFunction.linear(), 3 ** 9).jset)
        g1 = g_cutoff(HFunction.linear(), 1)
        layer = IntegerIntervalSet(_fattened(HFunction.linear(), height(1), g1, 3 ** 9))
        assert all(a >= g1 for a, _ in layer.intervals)
        jk = IntegerIntervalSet(build_Jk(1, HFunction.linear(), 3 ** 9))
        for n in jk.iter_points():
            if g1 + height(1) <= n <= 3 ** 9 - height(1):
                for i in range(-height(1), height(1) + 1):
                    assert n + i in jset

    def test_layers_and_union_match_point_sets(self):
        # each layer is J_k on [0, N + h_k], widened by h_k and cut to
        # [g(k), N]; the global set is the union of the layers
        h, n_max = HFunction.linear(), 3 ** 9
        gj = build_J(4, h, n_max)
        assert [k for k, _ in gj.skipped] == [4]
        union = set()
        for k in (1, 2, 3):
            hk, g = height(k), g_cutoff(h, k)
            layer = IntegerIntervalSet(_fattened(h, hk, g, n_max))
            widened = {n + i for n in IntegerIntervalSet(build_Jk(k, h, n_max + hk)).iter_points()
                       for i in range(-hk, hk + 1)}
            points = {n for n in widened if g <= n <= n_max}
            assert set(layer.iter_points()) == points, k
            union |= points
        assert set(IntegerIntervalSet(gj.jset).iter_points()) == union

    def test_window_below_cutoff_is_empty(self):
        gj = build_J(1, HFunction.linear(), 80)
        assert len(IntegerIntervalSet(gj.jset)) == 0
        assert gj.skipped and gj.skipped[0][0] == 1

    def test_overflowing_power_cutoff(self):
        h = HFunction.power(1e308)
        assert h(2) == math.inf and h(1) == 1.0
        assert [g_cutoff(h, k) for k in (1, 2, 3)] == [2, 2, 2]
        assert build_J(3, h, 100).skipped == []

    def test_overflowing_inverse_skips_layer(self):
        gj = build_J(2, HFunction.log(), 3 ** 9)
        assert len(IntegerIntervalSet(gj.jset)) == 0
        assert {k for k, _ in gj.skipped} == {1, 2}


class TestEnumerateEk:
    def test_known_members(self):
        ek, covered = enumerate_Ek(1, 30)
        pts = set(IntegerIntervalSet(ek).iter_points())
        assert {1, 2, 3} <= pts
        assert {11, 12} <= pts
        assert 8 not in pts

    def test_members_have_zero_correlation(self):
        assert checks.zero_correlation_times(150, random.Random(31), 0)

    def test_non_members_have_positive_correlation(self):
        assert checks.zero_correlation_times(150, random.Random(31), 100)

    def test_gap_existence(self):
        for k in (1, 2, 3):
            hk = height(k)
            for l in range(3 ** 6 + 1):
                if compute_bl(l) <= hk - 2:
                    assert support(k, l + 1)[0] - support(k, l)[1] >= 2, (k, l)

    def test_matches_mass_recursion_supports(self):
        for k in (0, 1, 2, 3):
            for l_max in (0, 1, 5, 30, 243, 1000):
                dists = dl_run(k, 0, l_max)
                gaps = IntegerIntervalSet((d.end + 1, e.start - 1)
                                          for d, e in zip(dists, dists[1:]))
                ek, covered = enumerate_Ek(k, l_max)
                assert (tuple(ek), covered) == (tuple(gaps), dists[-1].start)


def weight_list(l_max):
    """b_0..b_l_max by b_3q = b_q, b_(3q+1) = b_q + 1 and b_(3q+2) = b_(q+1) + 1."""
    b = [1, 2]
    for l in range(2, l_max + 1):
        q, r = divmod(l, 3)
        b.append(b[q] if r == 0 else b[q] + 1 if r == 1 else b[q + 1] + 1)
    return tuple(b[:l_max + 1])


# b_l for every index the references below read: the last, 118,101, is the
# last index whose support can meet [0, 3^12 + 1 + h_1] at stage 1
WEIGHTS = weight_list(3 ** 11)


# the producers as they stood before they stepped by runs: one support_span
# per selected index, merged by the constructor, kept as the reference that
# the run-stepping producers must equal
def reference_Jk(k, h, n_max):
    hk = height(k)
    l_max = (2 * n_max + (n_max // hk).bit_length()) // (2 * hk + 1)
    weights = WEIGHTS[:l_max + 1]
    pieces = []
    big_n = 1
    while 3 ** big_n <= l_max:
        threshold = math.log(big_n) ** 2 * h(big_n)
        if threshold > 0:
            for l in range(3 ** big_n, min(3 ** (big_n + 1), l_max) + 1):
                if weights[l] < threshold:
                    pieces.append(support_span(hk, l, weights[l]))
        big_n += 1
    return IntegerIntervalSet(cut(IntegerIntervalSet(pieces), 0, n_max))


def reference_J(k_max, h, n_max):
    layers, skipped = {}, []
    for k in range(1, k_max + 1):
        try:
            g = g_cutoff(h, k)
        except OverflowError as exc:
            skipped.append((k, f"cutoff beyond overflow bound: {exc}"))
            continue
        if g > n_max:
            skipped.append((k, f"cutoff g({k}) = {g} beyond window"))
            continue
        hk = height(k)
        jk = reference_Jk(k, h, n_max + hk)
        widened = IntegerIntervalSet((a - hk, b + hk) for a, b in jk.intervals)
        layers[k] = IntegerIntervalSet(cut(widened, g, n_max))
    total = IntegerIntervalSet(heapq.merge(*(layer.intervals for layer in layers.values())))
    return total, layers, skipped


def reference_Ek(k, l_max):
    hk = height(k)
    pieces = []
    t_prev = -1
    for l, b in enumerate(WEIGHTS[:l_max + 1]):
        s, t = support_span(hk, l, b)
        if t_prev + 1 < s:
            pieces.append((t_prev + 1, s - 1))
        t_prev = t
    return IntegerIntervalSet(pieces), s


# every window edge 3^N - 1, 3^N, 3^N + 1 up to 3^12, and the first two times
WINDOW_EDGES = [0, 1] + [3 ** big_n + d for big_n in range(1, 13) for d in (-1, 0, 1)]


class TestRunsMatchPerIndex:
    @pytest.mark.parametrize("spec", ["linear", "log", "loglog", "power:0.5", "power:0.25",
                                      "table"])
    def test_build_Jk_and_J(self, spec, tmp_path):
        if spec == "table":
            path = tmp_path / "h.csv"
            path.write_text("x,y\n1,1\n4,2\n8,3\n", encoding="utf-8")
            spec = f"table:{path}"
        h = HFunction.parse(spec)
        for n_max in WINDOW_EDGES:
            for k in (1, 2, 3):
                assert tuple(build_Jk(k, h, n_max)) == tuple(reference_Jk(k, h, n_max)), (
                    spec, k, n_max)
            # the layers do not depend on k_max, so k_max = 3 covers 1 and 2
            total, layers, skipped = reference_J(3, h, n_max)
            gj = build_J(3, h, n_max)
            assert tuple(gj.jset) == tuple(total), (spec, n_max)
            for k, layer in layers.items():
                assert tuple(_fattened(h, height(k), g_cutoff(h, k), n_max)) == tuple(layer), (
                    spec, k, n_max)
            assert gj.skipped == skipped, (spec, n_max)

    def test_enumerate_Ek(self):
        # the reference steps once per index, so the sizes stop at 3^10 + 1
        sizes = [0, 1, 2] + [3 ** big_n + d for big_n in range(1, 11) for d in (-1, 1)]
        for k in (0, 1, 2, 3):
            for l_max in sizes:
                ek, covered = enumerate_Ek(k, l_max)
                gaps, s = reference_Ek(k, l_max)
                assert (tuple(ek), covered) == (tuple(gaps), s), (k, l_max)

    def test_gap_identity_and_bound(self):
        # s_(l+1) - t_l - 1 = h_k + 1 - max(b_l, b_(l+1)) <= h_k - 1
        for k in (1, 2, 3):
            hk = height(k)
            t_prev, b_prev = support(k, 0)[1], compute_bl(0)
            for l in range(1, 3 ** 9 + 1):
                s, t = support(k, l)
                b = compute_bl(l)
                gap = s - t_prev - 1
                assert gap == hk + 1 - max(b_prev, b) <= hk - 1, (k, l)
                t_prev, b_prev = t, b


def reference_runs(c, lo, hi):
    """The maximal runs i..j of [lo, hi] with b_l - 1 <= c, one index at a
    time, as (i, j, b_i, b_j)."""
    runs = []
    for l in range(lo, hi + 1):
        if compute_bl(l) - 1 <= c:
            if runs and runs[-1][1] == l - 1:
                runs[-1][1] = l
            else:
                runs.append([l, l])
    return [(i, j, compute_bl(i), compute_bl(j)) for i, j in runs]


class TestWeightWalk:
    def test_runs_match_per_index(self):
        # every window whose edges are 0, 1 or 3^N +- 1 for N <= 7
        edges = [0, 1] + [3 ** big_n + d for big_n in range(1, 8) for d in (-1, 1)]
        for lo in edges:
            for hi in edges:
                if lo <= hi:
                    for c in range(10):
                        assert list(_weight_runs(c, lo, hi)) == reference_runs(c, lo, hi), \
                            (c, lo, hi)

    def test_far_windows(self):
        # windows around 3^40, where the walk passes 40 digit levels
        rng = random.Random(26)
        for _ in range(20):
            lo = 3 ** 40 + rng.randrange(-3 ** 6, 3 ** 6)
            hi = lo + rng.randrange(3 ** 5)
            c = rng.randrange(42)
            assert list(_weight_runs(c, lo, hi)) == reference_runs(c, lo, hi), (c, lo, hi)

    def test_empty_window_and_threshold(self):
        assert list(_weight_runs(5, 10, 9)) == []
        assert list(_weight_runs(-1, 0, 100)) == []
        assert list(_weight_runs(0, 0, 100)) == [(0, 0, 1, 1)]

    def test_weight_step(self):
        steps = list(_steps(0, 1, 3 ** 9))
        assert steps == [(p, compute_bl(p), compute_bl(p + 1)) for p in range(3 ** 9)]
        assert list(_steps(3 ** 30, 2, 3 ** 30 + 40)) == [
            (p, compute_bl(p), compute_bl(p + 1)) for p in range(3 ** 30, 3 ** 30 + 40)]


class TestBounds:
    # checks.growth_bound_holds: |J ∩ [0, n]| <= c h(n) (ln n)^((ln ln n)^2 h(n))

    def test_upper_form_closed_value(self):
        # one time in the set: the check passes exactly when c * bound >= 1,
        # so constants just either side of 1/bound pin the bound's value
        two = HFunction("two", lambda x: 2.0)
        s = IntegerIntervalSet([(0, 0)])
        for n in (15, 1000):
            ln = math.log(n)
            bound = 2 * ln ** (2 * math.log(ln) ** 2)
            assert checks.growth_bound_holds(s, (1 + 1e-9) / bound, two, [n]) == (True, False)
            assert checks.growth_bound_holds(s, (1 - 1e-9) / bound, two, [n]) == (False, False)

    def test_upper_form_overflows_to_infinity(self):
        s = IntegerIntervalSet([(0, 999)])
        assert checks.growth_bound_holds(s, 1.0, HFunction.linear(), [1000]) == (True, True)
        # float(n) overflows past the largest float
        one = HFunction("one", lambda x: 1.0)
        assert checks.growth_bound_holds(s, 1.0, one, [3 ** 700]) == (True, True)

    def test_verify_count_directions(self):
        # the count must stay at or below the bound at every n of the grid;
        # the window holds 10 times
        ten = IntegerIntervalSet([(0, 9)])
        one = HFunction("one", lambda x: 1.0)
        two = HFunction("two", lambda x: 2.0)
        assert checks.growth_bound_holds(ten, 100.0, one, [10, 100]) == (True, False)
        assert checks.growth_bound_holds(ten, 100.0, two, [10, 100]) == (True, False)
        assert checks.growth_bound_holds(ten, 1.0, one, [10]) == (False, False)
        # one failing n fails the grid, wherever it stands in it
        assert checks.growth_bound_holds(ten, 1.0, two, [100, 10]) == (False, False)

    def test_verify_count_flags_overflow(self):
        # an overflowed bound passes any count and is flagged
        s = IntegerIntervalSet([(0, 5)])
        assert checks.growth_bound_holds(s, 1.0, HFunction.linear(), [243]) == (True, True)

    def test_rejects_small_n(self):
        one = HFunction("one", lambda x: 1.0)
        for n in (0, 2):
            with pytest.raises(DomainError):
                checks.growth_bound_holds(IntegerIntervalSet(), 1.0, one, [n])

    def test_criterion_10_grid(self):
        # on criterion 10's grid the linear bound overflows at every n and
        # the log bound at none
        grid = [3 ** e for e in range(5, 13)]
        for name, overflow in (("linear", True), ("log", False)):
            h = HFunction.parse(name)
            jset = IntegerIntervalSet(build_J(2, h, 3 ** 12).jset)
            for n in grid:
                assert checks.growth_bound_holds(jset, constants.FROZEN.c_star, h,
                                                 [n]) == (True, overflow)


class TestConvergenceReport:
    # checks.block_maxima_off_Jk: criterion 09's block maxima off J_k

    def test_block_structure(self):
        # one maximum per block, in block order, each None or nonnegative
        maxima = checks.block_maxima_off_Jk(1, HFunction.linear(), range(2, 4))
        assert len(maxima) == 2
        assert all(m is None or m >= 0 for m in maxima)
        assert checks.block_maxima_off_Jk(1, HFunction.linear(), []) == []

    def test_excluded_counts_match_layer_set(self):
        # the maximum skips exactly the times of the block that build_Jk holds
        h = HFunction.linear()
        mu_sq = Fraction(2, 9) ** 2
        for big_n in (4, 5):
            lo, hi = 3 ** big_n, 3 ** (big_n + 1)
            jk = IntegerIntervalSet(build_Jk(1, h, hi))
            devs = [(n, abs(c - mu_sq)) for n, c in
                    enumerate(correlation_series(1, lo, hi), lo)]
            assert any(n in jk for n, _ in devs)
            kept = max(d for n, d in devs if n not in jk)
            assert checks.block_maxima_off_Jk(1, h, [big_n]) == [kept]
        # at N = 5 the largest deviation of the block lies in J_1
        assert kept < max(d for _, d in devs)

    def test_matches_per_time_maximum(self):
        # each block's maximum against one read per time n of the block:
        # c_1(n) from correlation_series, kept where build_Jk leaves n out
        mu_sq = Fraction(2, 9) ** 2
        for h in (HFunction.linear(), HFunction.log()):
            expected = []
            for big_n in range(2, 6):
                lo, hi = 3 ** big_n, 3 ** (big_n + 1)
                jk = IntegerIntervalSet(build_Jk(1, h, hi))
                expected.append(max((abs(c - mu_sq) for n, c in
                                     enumerate(correlation_series(1, lo, hi), lo)
                                     if n not in jk), default=None))
            assert checks.block_maxima_off_Jk(1, h, range(2, 6)) == expected

    def test_heap_peak_is_set_by_the_list(self):
        # a block nine times wider may at most double the traced heap peak,
        # and its maximum is still that of one read per time n.  N = 8 is the
        # first block to fill a list of BLOCK times: N = 7's has 4,375
        h = HFunction.log()

        def peak(big_n):
            tracemalloc.start()
            try:
                maxima = checks.block_maxima_off_Jk(1, h, [big_n])
                return tracemalloc.get_traced_memory()[1], maxima
            finally:
                tracemalloc.stop()

        checks.block_maxima_off_Jk(1, h, [8])   # any one-time allocation lands here
        (narrow, _), (wide, maxima) = peak(8), peak(10)
        assert wide <= 2 * narrow
        lo, hi = 3 ** 10, 3 ** 11
        jk = IntegerIntervalSet(build_Jk(1, h, hi))
        nums, p = series_numerators(1, lo, hi)
        best = max(abs(81 * a - 4 * 3 ** p) for n, a in enumerate(nums, lo) if n not in jk)
        assert maxima == [Fraction(best, 81 * 3 ** p)]
