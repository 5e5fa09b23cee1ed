import math
import random
from fractions import Fraction

import pytest

from chaconlab import checks
from chaconlab.correlation import autocorrelation, compute_bl, compute_dl, support
from chaconlab.exceptional import (
    BoundSpec,
    ExtractionResult,
    HFunction,
    InputError,
    IntegerIntervalSet,
    build_J,
    build_Jk,
    convergence_report,
    enumerate_Ek,
    extract_exceptional,
    g_cutoff,
    verify_count,
)
from chaconlab.tower import height
from chaconlab.triadic import DomainError


class TestIntegerIntervalSet:
    def test_merge_and_count(self):
        s = IntegerIntervalSet([(5, 7), (8, 10), (1, 2), (20, 20)])
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
        assert IntegerIntervalSet.from_points([4, 2, 3, 8]).intervals == ((2, 4), (8, 8))

    def test_fatten_truncate_clip(self):
        s = IntegerIntervalSet([(2, 3), (10, 11)])
        assert s.fatten(2).intervals == ((0, 5), (8, 13))
        assert s.clip(3, 11).intervals == ((3, 3), (10, 11))
        assert s.clip(3, 10).intervals == ((3, 3), (10, 10))
        assert IntegerIntervalSet(s.intervals + ((4, 9),)).intervals == ((2, 11),)

    def test_truncation_only_changes_the_prefix(self):
        s = IntegerIntervalSet([(2, 8), (15, 20), (30, 31)])
        t = s.clip(16, 40)
        for n in range(16, 40):
            assert (n in s) == (n in t)
        assert t.count(40) == s.count(40) - s.count(15)

    def test_iter_points(self):
        s = IntegerIntervalSet([(1, 3), (7, 7)])
        assert list(s.iter_points()) == [1, 2, 3, 7]


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


class TestExtractor:
    def test_zero_sequence(self):
        n_max = 300
        a = [Fraction(0)] * (n_max + 1)
        b = [Fraction(1, n + 1) for n in range(n_max + 1)]
        c = [Fraction(1, n + 2) for n in range(n_max + 1)]
        res = extract_exceptional(a, b, c, n_max)
        assert len(res.exceptional) == 0
        assert all(lk == 0 for lk in res.thresholds)
        assert checks.contract_holds(res, a, b, c, n_max)

    def test_power_of_two_spikes(self):
        n_max = 2 ** 12
        a, b, c = checks.power_of_two_series(n_max)
        res = extract_exceptional(a, b, c, n_max, k_max=6)
        assert len(res.thresholds) >= 2
        l2 = res.thresholds[1]
        assert all(2 ** e in res.exceptional
                   for e in range(13) if 2 ** e >= l2)
        assert checks.contract_holds(res, a, b, c, n_max)

    def test_vanishing_sequence_gives_finite_level_sets(self):
        n_max = 800
        a = [Fraction(1, j + 1) for j in range(n_max + 1)]
        run, b = Fraction(0), [Fraction(1)]
        for n in range(1, n_max + 1):
            run += a[n - 1]
            b.append(run / n)
        c = [Fraction(1, n + 2) for n in range(n_max + 1)]
        res = extract_exceptional(a, b, c, n_max)
        for k in range(1, len(res.level_sets) + 1):
            assert set(res.level_sets[k - 1].iter_points()) == set(range(k - 1))
        assert checks.contract_holds(res, a, b, c, n_max)

    def test_rejects_negative_deviation(self):
        with pytest.raises(InputError):
            extract_exceptional([Fraction(-1)], [Fraction(1)], [Fraction(1)], 0)

    def test_rejects_cesaro_violation_with_witness(self):
        a = [Fraction(1)] * 4
        b = [Fraction(1), Fraction(1), Fraction(1, 10), Fraction(1)]
        c = [Fraction(1, n + 2) for n in range(4)]
        with pytest.raises(InputError, match="n=2"):
            extract_exceptional(a, b, c, 3)

    def test_rejects_increasing_c(self):
        a = [Fraction(0)] * 4
        b = [Fraction(1)] * 4
        c = [Fraction(1), Fraction(2), Fraction(1), Fraction(1)]
        with pytest.raises(InputError, match="not decreasing"):
            extract_exceptional(a, b, c, 3)

    def test_rejects_short_sequences(self):
        with pytest.raises(InputError):
            extract_exceptional([Fraction(0)], [Fraction(1)], [Fraction(1)], 5)


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
        jk = IntegerIntervalSet.from_points(
            j for j, x in enumerate(av) if x * k > 1
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
        pieces.extend(jk.clip(lo, hi).intervals)
    return ExtractionResult(IntegerIntervalSet(pieces), thresholds, level_sets)


def extraction(fn, a, b, c, n_max, k_max):
    """(thresholds, level sets, exceptional set), or the InputError message."""
    try:
        res = fn(a, b, c, n_max, k_max)
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
    K_MAX = (1, 8, 32)

    def check(self, a, b, c, n_max, k_max):
        expected = extraction(reference_extract, a, b, c, n_max, k_max)
        assert extraction(extract_exceptional, a, b, c, n_max, k_max) == expected
        return expected

    def test_random_series(self):
        rng = random.Random(41)
        seen = {"early-break": 0, "nonpositive-c": 0, "nonzero-threshold": 0}
        for case in range(150):
            n_max = rng.choice((0, 1, 2, rng.randint(3, 300), rng.randint(3, 300)))
            a, b, c = random_series(rng, n_max)
            for k_max in self.K_MAX:
                thresholds, level_sets, _ = self.check(a, b, c, n_max, k_max)
                seen["early-break"] += 0 < len(thresholds) < k_max
                seen["nonzero-threshold"] += any(thresholds)
            seen["nonpositive-c"] += Fraction(c[-1]) <= 0
        assert all(seen.values()), seen

    def test_exact_unit_values(self):
        n_max = 60
        a = [Fraction(1, 1 + j % 8) if j % 3 == 0 else 0 for j in range(n_max + 1)]
        b = [1] * (n_max + 1)
        c = [Fraction(1, n + 2) for n in range(n_max + 1)]
        for k_max in self.K_MAX:
            _, level_sets, _ = self.check(a, b, c, n_max, k_max)
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
                    for k_max in self.K_MAX:
                        self.check(a, b, c, n_max, k_max)

    def test_early_break(self):
        # a large value near the end of the window fails at n_max from some k on
        n_max = 100
        a = [0] * n_max + [Fraction(1, 3)]
        b = [Fraction(1, 300)] * (n_max + 1)
        c = [1] * (n_max + 1)
        thresholds, _, _ = self.check(a, b, c, n_max, 32)
        assert len(thresholds) == 3

    def test_one_point_window(self):
        for a0, expected in ((0, [0] * 8), (Fraction(1, 8), [0] * 8), (Fraction(1, 4), [0] * 4),
                             (2, [])):
            thresholds, _, _ = self.check([a0], [1], [1], 0, 8)
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
            expected = self.check(a, b, c, n_max, 8)
            assert isinstance(expected, str)
            kinds.add(expected.split(" ")[0])
        assert kinds == {"deviation", "Cesaro", "c"}


class TestBuildJk:
    def test_first_layer_is_empty(self):
        # the window ends just below s_9 >= 9 h_1, where layer 2 starts
        assert len(build_Jk(1, HFunction.linear(), 9 * height(1) - 1)) == 0

    def test_generous_threshold_takes_whole_layer(self):
        # the window [0, t_27] holds layer 2 and ends below s_28
        h = HFunction("shift100", lambda x: x + 100)
        jk = build_Jk(1, h, support(1, 27)[1])
        manual = IntegerIntervalSet(support(1, t) for t in range(9, 28))
        assert jk == manual

    def test_rejects_stage_zero(self):
        with pytest.raises(DomainError):
            build_Jk(0, HFunction.linear(), 100)

    def test_matches_mass_recursion_supports(self):
        # loglog's N = 1 threshold is nan; the table's threshold takes 183 of
        # the 487 indices of layer 5 and 1395 of the 1459 of layer 6
        table = HFunction.table([(1.0, 1.0), (4.0, 2.0), (8.0, 3.0)])
        for h in (HFunction.linear(), HFunction.log(), HFunction.power(0.5),
                  HFunction.loglog(), table):
            for k in (1, 2, 3):
                # every full layer up to 3^7; no support of a later index
                # starts below s_6561 >= 3^8 h_k
                pieces = []
                for big_n in range(1, 8):
                    threshold = math.log(big_n) ** 2 * h(big_n)
                    for t in range(3 ** big_n, 3 ** (big_n + 1) + 1):
                        if compute_bl(t) < threshold:
                            d = compute_dl(k, t)
                            pieces.append((d.start, d.end))
                full = IntegerIntervalSet(pieces)
                hk = height(k)
                for t_max in (2, 8, 9, 80, 81, 300, 729, 2187, 6560):
                    for n_max in (t_max * hk, t_max * hk + hk - 1):
                        assert build_Jk(k, h, n_max) == full.clip(0, n_max), (h.name, k, n_max)

    def test_members_carry_positive_correlation(self):
        jk = build_Jk(1, HFunction.linear(), 400)
        pts = list(jk.iter_points())
        assert pts
        assert all(autocorrelation(1, n) > 0 for n in pts)


class TestBuildJ:
    def test_layers_are_fattened_and_truncated(self):
        gj = build_J(1, HFunction.linear(), 3 ** 9)
        layer = gj.layers[1]
        g1 = g_cutoff(HFunction.linear(), 1)
        assert all(a >= g1 for a, _ in layer.intervals)
        jk = build_Jk(1, HFunction.linear(), 3 ** 9)
        for n in jk.iter_points():
            if g1 + height(1) <= n <= 3 ** 9 - height(1):
                for i in range(-height(1), height(1) + 1):
                    assert n + i in gj.jset

    def test_window_below_cutoff_is_empty(self):
        gj = build_J(1, HFunction.linear(), 80)
        assert len(gj.jset) == 0
        assert gj.skipped and gj.skipped[0][0] == 1

    def test_overflowing_inverse_skips_layer(self):
        gj = build_J(2, HFunction.log(), 3 ** 9)
        assert len(gj.jset) == 0
        assert {k for k, _ in gj.skipped} == {1, 2}


class TestEnumerateEk:
    def test_known_members(self):
        ek, covered = enumerate_Ek(1, 30)
        pts = set(ek.iter_points())
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
                dists = [compute_dl(k, l) for l in range(l_max + 1)]
                gaps = IntegerIntervalSet((d.end + 1, e.start - 1)
                                          for d, e in zip(dists, dists[1:]))
                assert enumerate_Ek(k, l_max) == (gaps, dists[-1].start)


class TestBounds:
    def test_lower_form(self):
        spec = BoundSpec("lower", 1.0, exponent=2.0)
        assert spec.evaluate(round(math.exp(10))) == pytest.approx(100.0, rel=1e-3)

    def test_upper_form_closed_value(self):
        h = HFunction("one", lambda x: 1.0)
        spec = BoundSpec("upper", 1.0, h=h)
        n = 15
        ln = math.log(n)
        assert spec.evaluate(n) == pytest.approx(ln ** (math.log(ln) ** 2))

    def test_upper_form_overflows_to_infinity(self):
        spec = BoundSpec("upper", 1.0, h=HFunction.linear())
        assert math.isinf(spec.evaluate(1000))

    def test_rejects_small_n_and_unknown_form(self):
        with pytest.raises(DomainError):
            BoundSpec("lower", 1.0, exponent=1.0).evaluate(2)
        with pytest.raises(DomainError):
            BoundSpec("mystery", 1.0).evaluate(10)

    def test_verify_count_directions(self):
        s = IntegerIntervalSet([(0, 9)])
        up = verify_count(s, BoundSpec("lower", 100.0, exponent=1.0), [10, 100])
        assert up["pass"] and all(r["pass"] for r in up["grid"])
        low = verify_count(s, BoundSpec("lower", 1.0, exponent=1.0), [10, 100],
                           direction="lower")
        assert low["pass"]
        assert [r["count"] for r in up["grid"]] == [10, 10]

    def test_verify_count_flags_overflow(self):
        s = IntegerIntervalSet([(0, 5)])
        rep = verify_count(s, BoundSpec("upper", 1.0, h=HFunction.linear()), [243])
        assert rep["pass"]
        assert rep["grid"][0]["overflow"]


class TestConvergenceReport:
    def test_block_structure(self):
        rows = convergence_report(1, HFunction.linear(), range(2, 4))
        assert [(r.N, r.lo, r.hi) for r in rows] == [(2, 9, 27), (3, 27, 81)]
        for r in rows:
            assert r.excluded >= 0
            assert r.max_dev is None or r.max_dev >= 0

    def test_excluded_counts_match_layer_set(self):
        h = HFunction.linear()
        rows = convergence_report(1, h, [4])
        jk = build_Jk(1, h, rows[0].hi)
        assert rows[0].excluded == sum(
            1 for n in range(rows[0].lo, rows[0].hi + 1) if n in jk)
