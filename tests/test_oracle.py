import ast
import random
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from chaconlab import checks, correlation, oracle, tower
from chaconlab.correlation import compute_bl, dl_run, H_value
from chaconlab.oracle import (
    FragmentationError,
    brute_correlation,
    brute_dl,
    center_value,
    phi_run,
    precedes,
    pushforward_step,
    walk_poly,
)
from chaconlab.triadic import DomainError, TriadicSet, _pow3_exponent


def base_cell(k):
    return TriadicSet.from_endpoints([(0, Fraction(2, 3 ** (k + 1)))])


def measure(a):
    return sum((hi - lo for lo, hi in a.intervals), Fraction(0))


def random_set(rng, lo=2, hi=5):
    """A union of 1-3 intervals on the grid 3^-e, e drawn from lo..hi."""
    e = rng.randint(lo, hi)
    ends = sorted(rng.sample(range(3 ** e + 1), 2 * rng.randint(1, 3)))
    return TriadicSet.from_endpoints([(Fraction(p, 3 ** e), Fraction(q, 3 ** e))
                                      for p, q in zip(ends[::2], ends[1::2])])


def chain_correlation(a, b, n):
    """mu(A intersect T^-n B) by a translation sum over the levels of the
    first stage m with h_m >= n + 2, then a chain of the levels within n of
    the top and a reservoir case, one stage at a time: the three cases the
    single resolution rule of brute_correlation replaced.  The clipping in
    _shift_overlap is plain arithmetic, so here it runs on the Fraction
    endpoints themselves, not on brute_correlation's integer grid."""
    if n < 0:
        a, b, n = b, a, -n
    av, bv = a.intervals, b.intervals
    if n == 0:
        return oracle._shift_overlap(av, bv, 0, 0, 1)
    m = 1
    while oracle._h(m) < n + 2:
        m += 1
    def start(k, j):
        return Fraction(oracle._lv_start(k, j), 3 ** (k + 1))

    h, w = oracle._h(m), Fraction(2, 3 ** (m + 1))
    total = sum((oracle._shift_overlap(av, bv, start(m, j), start(m, j + n), w)
                 for j in range(h - n)), Fraction(0))
    floor = 4 + max([m] + [_pow3_exponent(q.denominator) for iv in av + bv for q in iv])
    jobs, history, stage = list(range(h - n, h)), [], m
    while True:
        hs, hn, ws = oracle._h(stage), oracle._h(stage + 1), Fraction(2, 3 ** (stage + 2))
        chi = Fraction(0)
        for j in jobs:
            for p in (j, j + hs):
                if p + n < hn:
                    chi += oracle._shift_overlap(av, bv, start(stage + 1, p),
                                                 start(stage + 1, p + n), ws)
        sp = 2 * hs
        chi += oracle._shift_overlap(av, bv, start(stage + 1, sp), start(stage + 1, sp + n), ws)
        history.append(chi)
        jobs = [j + 2 * hs + 1 for j in jobs]
        stage += 1
        if stage >= floor and len(history) >= 3 \
                and history[-2] == 3 * history[-1] and history[-3] == 9 * history[-1]:
            return total + sum(history, Fraction(0)) + history[-1] / 2


class TestPushforward:
    def test_level_table_matches_tower(self):
        # two independent constructions of the stacking table, both as
        # numerators over 3^(k+1)
        for k in range(6):
            for j in range(tower.height(k)):
                assert oracle._lv_start(k, j) == tower._level_start(k, j)
        # the levels fill [0, 1 - 3^-(k+1)) without gaps, so rank i starts at
        # 2i/3^(k+1)
        for k in range(7):
            starts = {oracle._lv_start(k, j) for j in range(tower.height(k))}
            assert starts == {2 * i for i in range(tower.height(k))}
            for i in range(tower.height(k)):
                assert oracle._lv_start(k, oracle._level(k, i)) == 2 * i

    def test_preserves_measure_on_random_intervals(self):
        rng = random.Random(23)
        done = 0
        while done < 100:
            e = rng.randint(2, 7)
            a = rng.randrange(3 ** e - 1)
            b = rng.randrange(a + 1, 3 ** e)
            if a <= 2 * 3 ** (e - 1) <= b:
                # an interval whose closure meets 2/3 has an infinite image
                continue
            image = pushforward_step(TriadicSet.from_endpoints(
                [(Fraction(a, 3 ** e), Fraction(b, 3 ** e))]))
            assert measure(image) == Fraction(b - a, 3 ** e)
            # images are canonical: sorted, with a gap between neighbours
            assert isinstance(image, TriadicSet)
            for (p, q), (r, s) in zip(image.intervals, image.intervals[1:]):
                assert p < q < r < s
            done += 1

    def test_matches_pointwise_map(self):
        from chaconlab.tower import apply_T
        from chaconlab.triadic import TriadicRational
        rng = random.Random(29)
        for _ in range(50):
            e = rng.randint(2, 6)
            a = rng.randrange(3 ** e - 1)
            if a <= 2 * 3 ** (e - 1) <= a + 1:
                continue
            image = pushforward_step(TriadicSet.from_endpoints(
                [(Fraction(a, 3 ** e), Fraction(a + 1, 3 ** e))])).intervals
            x = TriadicRational.from_fraction(Fraction(a, 3 ** e))
            y = apply_T(x).as_fraction()
            assert any(lo <= y < hi for lo, hi in image)

    def test_deep_pieces_keep_measure_and_follow_the_map(self):
        # pieces ending 1-3 units below 2/3 (the top levels) or 1 (the spacer
        # remainders) recurse to stages 6-11, most of them to 8-11
        from chaconlab.tower import apply_T
        from chaconlab.triadic import TriadicRational
        rng = random.Random(31)
        for _ in range(60):
            e = rng.randint(8, 11)
            lo_end = rng.random() < 0.5
            b = (2 * 3 ** (e - 1) if lo_end else 3 ** e) - rng.randint(1, 3)
            a = b - rng.randint(1, 9)
            image = pushforward_step(TriadicSet.from_endpoints(
                [(Fraction(a, 3 ** e), Fraction(b, 3 ** e))]))
            assert measure(image) == Fraction(b - a, 3 ** e)
            y = apply_T(TriadicRational.from_fraction(Fraction(a, 3 ** e))).as_fraction()
            assert any(lo <= y < hi for lo, hi in image.intervals)

    def test_unresolvable_piece_raises(self):
        # [1 - 3^-12, 1) lies in the spacer remainder of every stage below 12
        a = TriadicSet.from_endpoints([(1 - Fraction(1, 3 ** 12), Fraction(1))])
        with pytest.raises(FragmentationError, match="unresolved at depth 11"):
            pushforward_step(a)


class TestBruteCorrelation:
    def test_zero_steps_is_plain_overlap(self):
        a1 = base_cell(1)
        assert brute_correlation(a1, a1, 0) == Fraction(2, 9)

    def test_matches_distribution_table(self):
        a1 = base_cell(1)
        assert brute_correlation(a1, a1, 4) == Fraction(1, 9)
        assert brute_correlation(a1, a1, 7) == 0

    def test_negative_time_symmetry(self):
        a1 = base_cell(1)
        b = TriadicSet.from_endpoints([(Fraction(2, 9), Fraction(4, 9))])
        for n in range(8):
            assert brute_correlation(a1, b, -n) == brute_correlation(b, a1, n)

    def test_agrees_with_recursion_engine(self):
        assert checks.corr_matches_oracle((1, 2), 40)

    def test_general_sets(self):
        a = TriadicSet.from_endpoints([(0, Fraction(1, 9)), (Fraction(1, 3), Fraction(4, 9))])
        b = TriadicSet.from_endpoints([(Fraction(2, 9), Fraction(5, 9))])
        for n in range(25):
            c = brute_correlation(a, b, n)
            assert 0 <= c <= Fraction(2, 9)  # the measure of a; b has 1/3

    def test_matches_engine_on_cell_unions(self):
        rng = random.Random(37)
        for k in (1, 2, 3):
            w = Fraction(2, 3 ** (k + 1))

            def union(cells):
                starts = [Fraction(oracle._lv_start(k, m), 3 ** (k + 1)) for m in cells]
                return TriadicSet.from_endpoints([(s, s + w) for s in starts])

            for _ in range(15):
                cells_a = rng.sample(range(tower.height(k)), rng.randint(1, 3))
                cells_b = rng.sample(range(tower.height(k)), rng.randint(1, 3))
                n = rng.randint(-40, 200)
                assert brute_correlation(union(cells_a), union(cells_b), n) == \
                    correlation.cell_correlation(cells_a, cells_b, k, n), (k, cells_a, cells_b, n)

    def test_matches_chain_on_general_sets(self):
        rng = random.Random(41)
        for _ in range(60):
            a, b, n = random_set(rng), random_set(rng), rng.randint(-30, 120)
            assert brute_correlation(a, b, n) == chain_correlation(a, b, n), (
                a.intervals, b.intervals, n)

    def test_matches_chain_on_fine_grids(self):
        # endpoints on 3^-6..3^-9 are finer than the level grid of the first
        # stages, so those stages clip on the sets' own grid
        rng = random.Random(43)
        for _ in range(12):
            a, b = random_set(rng, 6, 9), random_set(rng, 6, 9)
            for n in (0, rng.randint(-40, -1), rng.randint(1, 90)):
                assert brute_correlation(a, b, n) == chain_correlation(a, b, n), (
                    a.intervals, b.intervals, n)

    def test_empty_set_correlates_to_zero(self):
        empty, a1 = TriadicSet.from_endpoints([]), base_cell(1)
        for n in range(-5, 6):
            assert brute_correlation(empty, a1, n) == 0
            assert brute_correlation(a1, empty, n) == 0

    def test_hull_edges_match_chain(self):
        # a copy is skipped when its window misses a set's hull; windows of
        # stage s start at even multiples of 3^-(s+2), so these sets end where
        # a window starts, start where one ends, or reach one unit into one
        def sets():
            for e in (3, 4, 5):
                u = Fraction(1, 3 ** e)
                for i in (1, 4, 7):
                    yield [((2 * i - 1) * u, 2 * i * u)]              # ends at a window start
                    yield [(2 * (i + 1) * u, (2 * i + 3) * u)]        # starts at a window end
                    yield [((2 * i - 1) * u, (2 * i + 1) * u)]        # one unit into window i
                    yield [((2 * i + 1) * u, (2 * i + 3) * u)]        # one unit out of it
            # a wide gap: the hull spans levels neither piece meets
            yield [(0, Fraction(1, 27)), (Fraction(16, 27), Fraction(2, 3))]
            yield [(Fraction(2, 81), Fraction(4, 81)), (1 - Fraction(2, 27), 1 - Fraction(1, 27))]
            # inside the spacer remainder [1 - 3^-(k+1), 1) of stages k = 2, 3, 4
            for k in (2, 3, 4):
                yield [(1 - Fraction(1, 3 ** (k + 1)), 1 - Fraction(1, 3 ** (k + 2)))]
                yield [(1 - Fraction(1, 3 ** (k + 2)), Fraction(1))]
            # endpoints on the grids 3^-7 .. 3^-9
            for e in (7, 8, 9):
                u, mid = Fraction(1, 3 ** e), Fraction(2, 27)
                yield [(mid - u, mid + u), (1 - 2 * u, 1 - u)]

        cases = [TriadicSet.from_endpoints(pairs) for pairs in sets()]
        rng = random.Random(53)
        for a in cases:
            partners = [base_cell(1), base_cell(3)] + rng.sample(cases, 2)
            for b in partners:
                for n in (0, rng.randint(1, 12), rng.randint(13, 60), -rng.randint(1, 40)):
                    assert brute_correlation(a, b, n) == chain_correlation(a, b, n), (
                        a.intervals, b.intervals, n)

    def test_cap(self):
        a1 = base_cell(1)
        with pytest.raises(FragmentationError):
            brute_correlation(a1, a1, oracle.ORACLE_CAP + 1)


def test_imports_only_stdlib_and_triadic():
    # the oracle's independence from the engine: no chaconlab module but triadic
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("chaconlab." * (node.level > 0) + (node.module or ""))
    assert "fractions" in names
    assert {n for n in names if n.split(".")[0] not in sys.stdlib_module_names} == {
        "chaconlab.triadic"}


def test_checks_reads_engine_and_oracles_as_module_attributes():
    # checks.py calls the engine and the oracles as module.attribute, never
    # by an imported name: each call shows which side it reads, and a patched
    # module attribute reaches every check
    tree = ast.parse(Path(checks.__file__).read_text(encoding="utf-8"))
    modules = {"correlation", "exceptional", "oracle", "tower"}
    package_imports, named = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "chaconlab").split(".")[-1]
            if module == "chaconlab":
                package_imports.update(alias.name for alias in node.names)
            elif module in modules:
                named += [f"{module}.{alias.name}" for alias in node.names]
    assert named == []
    assert modules <= package_imports


class TestBruteDl:
    def test_base_cases(self):
        d = brute_dl(1, 0)
        assert (d.start, d.masses) == (0, (Fraction(1),))
        d = brute_dl(1, 1)
        assert (d.start, d.masses) == (4, (Fraction(1, 2), Fraction(1, 2)))

    def test_five_point_example(self):
        d = brute_dl(1, 4)
        assert (d.start, d.masses) == (
            17, (Fraction(2, 9), Fraction(5, 9), Fraction(2, 9)))

    def test_agrees_with_recursion_engine(self):
        # every l < 3^6, the deepest digit counts D for which the oracle's
        # mass denominator 2 * 3^D must hold, at the stages 0 to 3
        assert checks.dl_matches_oracle((0, 1, 2, 3), 3 ** 6 - 1)

    def test_rejects_negative_stage(self):
        with pytest.raises(DomainError):
            brute_dl(-1, 0)


class TestPhiPolynomials:
    def test_base_representations(self):
        assert phi_run(2) == [(Fraction(1),), (Fraction(0), Fraction(1)),
                              (Fraction(1, 3), Fraction(0), Fraction(2, 3))]
        assert phi_run(0) == [(Fraction(1),)]
        with pytest.raises(DomainError):
            phi_run(-1)

    def test_coefficients_sum_to_one(self):
        assert all(sum(poly) == 1 for poly in phi_run(3 ** 5))

    def test_degree_is_support_size_minus_one(self):
        for l, poly in enumerate(phi_run(3 ** 5)):
            assert len(poly) - 1 == compute_bl(l) - 1
            assert poly[-1] != 0

    def test_center_value_matches_smoothed_box(self):
        # phi^i applied to the unit box step by step, the loop the closed form
        # replaced; cell j covers [j/2, (j+1)/2)
        def smoothed_box_center(i):
            half = Fraction(1, 2)
            start, vals = -1, [Fraction(1), Fraction(1)]
            for _ in range(i):
                padded = [Fraction(0)] + vals + [Fraction(0)]
                vals = [half * ((padded[j - 1] if j - 1 >= 0 else Fraction(0))
                                + (padded[j + 1] if j + 1 < len(padded) else Fraction(0)))
                        for j in range(len(padded))]
                start -= 1
            j = 0 - start
            return vals[j] if 0 <= j < len(vals) else Fraction(0)

        for i in range(61):
            unit = (Fraction(0),) * i + (Fraction(1),)
            assert center_value(unit) == smoothed_box_center(i) == Fraction(comb(i, i // 2), 2 ** i)

    def test_center_value_matches_profile_peak(self):
        run = dl_run(0, 0, 119)
        for l, poly in enumerate(phi_run(119)):
            assert center_value(poly) == H_value(l, run)

    def test_walk_poly_is_binomial(self):
        f2 = walk_poly(2)
        assert f2 == (Fraction(4, 9), Fraction(4, 9), Fraction(1, 9))
        assert all(sum(walk_poly(n)) == 1 for n in range(8))

    def test_precedes_examples(self):
        d0, d1 = phi_run(1)
        assert precedes(d0, d0)
        assert precedes(d1, d0)
        assert not precedes(d0, d1)

    def test_partial_sum_order_is_not_total_on_adjacent_indices(self):
        # D_2 mixes a degree-0 term into a degree-2 polynomial, so its first
        # prefix sum exceeds that of D_1; neither direction holds.  Frozen.
        _, d1, d2 = phi_run(2)
        assert not precedes(d2, d1)
        assert not precedes(d1, d2)

    def test_majorized_by_lazy_walk(self):
        assert checks.majorized(120)

    def test_majorized_reads_each_weights_own_walk(self, monkeypatch):
        # l = 2 has weight 2, and phi_2 = (1/3, 0, 2/3) does not precede a
        # walk with all its mass on the top power
        assert checks.majorized(100)
        walk_poly = oracle.walk_poly
        monkeypatch.setattr(oracle, "walk_poly",
                            lambda n: (Fraction(0),) * n + (Fraction(1),) if n == 2 else walk_poly(n))
        assert not checks.majorized(100)
