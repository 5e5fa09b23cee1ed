import ast
import random
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from chaconlab import checks, oracle, tower
from chaconlab.correlation import compute_bl, H_value
from chaconlab.oracle import (
    FragmentationError,
    PhiPolynomial,
    PushforwardState,
    brute_correlation,
    brute_dl,
    center_value,
    phi_repr,
    precedes,
    pushforward_step,
    walk_poly,
)
from chaconlab.triadic import DomainError, TriadicSet


def base_cell(k):
    return TriadicSet.from_endpoints([(0, Fraction(2, 3 ** (k + 1)))])


class TestPushforward:
    def test_level_table_matches_tower(self):
        # two independent constructions of the stacking table
        for k in range(6):
            for j in range(tower.height(k)):
                assert oracle._lv_start(k, j) == Fraction(tower._level_start(k, j), 3 ** (k + 1))
        # the levels fill [0, 1 - 3^-(k+1)) without gaps, so rank i starts at i w
        for k in range(7):
            w = Fraction(2, 3 ** (k + 1))
            starts = {oracle._lv_start(k, j) for j in range(tower.height(k))}
            assert starts == {i * w for i in range(tower.height(k))}
            for i in range(tower.height(k)):
                assert oracle._lv_start(k, oracle._level(k, i)) == i * w

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
            st = PushforwardState.of(TriadicSet.from_endpoints(
                [(Fraction(a, 3 ** e), Fraction(b, 3 ** e))]))
            st2 = pushforward_step(st)
            assert st2.measure() == Fraction(b - a, 3 ** e)
            assert st2.steps == 1
            # images stay sorted and disjoint
            for (p, q), (r, s) in zip(st2.pieces, st2.pieces[1:]):
                assert q < r
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
            st = PushforwardState.of(TriadicSet.from_endpoints(
                [(Fraction(a, 3 ** e), Fraction(a + 1, 3 ** e))]))
            image = pushforward_step(st).pieces
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
            st = PushforwardState.of(TriadicSet.from_endpoints(
                [(Fraction(a, 3 ** e), Fraction(b, 3 ** e))]))
            st2 = pushforward_step(st)
            assert st2.measure() == Fraction(b - a, 3 ** e)
            y = apply_T(TriadicRational.from_fraction(Fraction(a, 3 ** e))).as_fraction()
            assert any(lo <= y < hi for lo, hi in st2.pieces)

    def test_unresolvable_piece_raises(self):
        # [1 - 3^-12, 1) lies in the spacer remainder of every stage below 12
        st = PushforwardState.of(TriadicSet.from_endpoints(
            [(1 - Fraction(1, 3 ** 12), Fraction(1))]))
        with pytest.raises(FragmentationError, match="unresolved at depth 11"):
            pushforward_step(st)


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
        assert checks.dl_matches_oracle((1, 2), 79)

    def test_rejects_negative_stage(self):
        with pytest.raises(DomainError):
            brute_dl(-1, 0)


class TestPhiPolynomials:
    def test_base_representations(self):
        assert phi_repr(0).coeffs == (Fraction(1),)
        assert phi_repr(1).coeffs == (Fraction(0), Fraction(1))
        assert phi_repr(2).coeffs == (Fraction(1, 3), Fraction(0), Fraction(2, 3))

    def test_coefficients_sum_to_one(self):
        for l in range(3 ** 5 + 1):
            assert sum(phi_repr(l).coeffs) == 1

    def test_degree_is_support_size_minus_one(self):
        for l in range(3 ** 5 + 1):
            poly = phi_repr(l)
            assert len(poly.coeffs) - 1 == compute_bl(l) - 1
            assert poly.coeffs[-1] != 0

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
            unit = PhiPolynomial((Fraction(0),) * i + (Fraction(1),))
            assert center_value(unit) == smoothed_box_center(i) == Fraction(comb(i, i // 2), 2 ** i)

    def test_center_value_matches_profile_peak(self):
        for l in range(120):
            assert center_value(phi_repr(l)) == H_value(1, l)

    def test_walk_poly_is_binomial(self):
        f2 = walk_poly(2)
        assert f2.coeffs == (Fraction(4, 9), Fraction(4, 9), Fraction(1, 9))
        assert all(sum(walk_poly(n).coeffs) == 1 for n in range(8))

    def test_precedes_examples(self):
        assert precedes(phi_repr(0), phi_repr(0))
        assert precedes(phi_repr(1), phi_repr(0))
        assert not precedes(phi_repr(0), phi_repr(1))

    def test_partial_sum_order_is_not_total_on_adjacent_indices(self):
        # D_2 mixes a degree-0 term into a degree-2 polynomial, so its first
        # prefix sum exceeds that of D_1; neither direction holds.  Frozen.
        assert not precedes(phi_repr(2), phi_repr(1))
        assert not precedes(phi_repr(1), phi_repr(2))

    def test_majorized_by_lazy_walk(self):
        assert checks.majorized(120)
