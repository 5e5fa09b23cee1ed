import itertools
import random
from fractions import Fraction

import pytest

from chaconlab import checks
from chaconlab.tower import (
    DEFAULT_DEPTH_CAP,
    DepthExceededError,
    TowerAddress,
    apply_T,
    apply_T_inverse,
    apply_T_power,
    cell_width,
    first_return,
    height,
    induced_map,
    level_interval,
    locate,
    lth_return_time,
    lth_return_time_orbit,
)
from chaconlab.triadic import DomainError, TernaryWord, TriadicInterval, TriadicRational, translate


def T(num, den):
    return TriadicRational.from_fraction(Fraction(num, den))


class TestTowerParams:
    def test_small_stages(self):
        assert (height(0), cell_width(0)) == (1, Fraction(2, 3))
        assert (height(1), cell_width(1)) == (4, Fraction(2, 9))
        assert height(2) == 13

    def test_height_recursion_and_closed_form(self):
        for k in range(1, 12):
            assert height(k) == 3 * height(k - 1) + 1
            assert height(k) == (3 ** (k + 1) - 1) // 2

    def test_widths_fill_unit_interval(self):
        for k in range(8):
            assert height(k) * cell_width(k) + Fraction(1, 3 ** (k + 1)) == 1


class TestLevelInterval:
    def test_examples(self):
        assert (level_interval(1, 0).start, level_interval(1, 0).end) == (
            Fraction(0), Fraction(2, 9))
        assert (level_interval(1, 2).start, level_interval(1, 2).end) == (
            Fraction(2, 3), Fraction(8, 9))
        # inserted spacer piece of stage 2 sits at level 2*h_1 = 8
        assert (level_interval(2, 8).start, level_interval(2, 8).end) == (
            Fraction(8, 9), Fraction(26, 27))

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            level_interval(1, 4)

    def test_levels_and_reservoir_tile_unit_interval(self):
        for k in range(7):
            pieces = [level_interval(k, j) for j in range(height(k))]
            pieces.append(TriadicInterval(1 - Fraction(1, 3 ** (k + 1)), Fraction(1)))
            pieces.sort(key=lambda iv: iv.start)
            assert pieces[0].start == 0
            assert pieces[-1].end == 1
            for a, b in zip(pieces, pieces[1:]):
                assert a.end == b.start
            assert sum((iv.length for iv in pieces), Fraction(0)) == 1


class TestLocate:
    def test_examples(self):
        assert locate(T(1, 3), 1) == TowerAddress(1, 1, Fraction(1, 9))
        for k in range(5):
            assert locate(TriadicRational(0, 0), k) == TowerAddress(k, 0, Fraction(0))
        assert locate(T(25, 27), 1) == TowerAddress(1, None, Fraction(1, 27))

    def test_matches_level_intervals(self):
        rng = random.Random(2)
        for _ in range(300):
            e = rng.randint(1, 7)
            x = TriadicRational.from_fraction(Fraction(rng.randrange(3 ** e), 3 ** e))
            k = rng.randint(0, 6)
            addr = locate(x, k)
            if addr.in_spacer_remainder:
                assert x.as_fraction() >= 1 - Fraction(1, 3 ** (k + 1))
            else:
                iv = level_interval(k, addr.level)
                assert x.as_fraction() in iv
                assert addr.offset == x.as_fraction() - iv.start

    def test_rejects_negative_stage(self):
        with pytest.raises(DomainError):
            locate(T(1, 3), -1)

    def test_matches_fraction_loop(self):
        def reference(x, k):
            q = x.as_fraction()
            level, offset = (0, q) if q < Fraction(2, 3) else (None, q - Fraction(2, 3))
            for j in range(1, k + 1):
                w = cell_width(j)
                hp = height(j - 1)
                if level is None:
                    if offset < w:
                        level = 2 * hp
                    else:
                        offset -= w
                else:
                    third, offset = divmod(offset, w)
                    level += (0, hp, 2 * hp + 1)[third]
            return TowerAddress(k, level, offset)

        rng = random.Random(5)
        for _ in range(3000):
            e = rng.randint(1, 40)
            x = TriadicRational.from_fraction(Fraction(rng.randrange(3 ** e), 3 ** e))
            k = rng.randint(0, 30)
            assert locate(x, k) == reference(x, k)


def stage_image(x, k):
    """tau_k(x): the one-step translation at stage k, or None where undefined."""
    addr = locate(x, k)
    if addr.in_spacer_remainder or addr.level == height(k) - 1:
        return None
    target = level_interval(k, addr.level + 1).start
    return translate(x, target + addr.offset - x.as_fraction())


class TestApplyT:
    def test_examples(self):
        assert apply_T(T(1, 3)) == T(7, 9)
        assert apply_T(TriadicRational(0, 0)) == T(2, 9)
        # the level above the stage-2 spacer piece is the right third of [0, 2/9)
        assert apply_T(T(8, 9)) == T(4, 27)

    def test_power_examples(self):
        assert apply_T_power(T(1, 3), 1) == T(7, 9)
        x = T(5, 27)
        assert apply_T_power(x, 0) == x
        assert apply_T_power(TriadicRational(0, 0), 4) == T(2, 27)

    def test_power_is_additive(self):
        rng = random.Random(11)
        for _ in range(60):
            e = rng.randint(1, 8)
            x = TriadicRational.from_fraction(Fraction(rng.randrange(3 ** e), 3 ** e))
            a, b = rng.randint(-5, 5), rng.randint(0, 5)
            try:
                lhs = apply_T_power(x, a + b)
                rhs = apply_T_power(apply_T_power(x, a), b)
            except DepthExceededError:
                continue  # orbit passed through 0 going backwards
            assert lhs == rhs

    def test_stages_are_consistent(self):
        rng = random.Random(3)
        for _ in range(300):
            e = rng.randint(1, 8)
            x = TriadicRational.from_fraction(Fraction(rng.randrange(3 ** e), 3 ** e))
            images = [stage_image(x, k) for k in range(9)]
            defined = [y for y in images if y is not None]
            assert defined, f"no stage resolves {x}"
            assert all(y == defined[0] for y in defined)
            # once defined, every deeper stage stays defined
            first = next(i for i, y in enumerate(images) if y is not None)
            assert all(y is not None for y in images[first:])

    def test_bijectivity_on_random_points(self):
        assert checks.bijective(random.Random(17), 10_000)

    def test_inverse_of_zero_exceeds_depth(self):
        with pytest.raises(DepthExceededError):
            apply_T_inverse(TriadicRational(0, 0), depth_cap=20)
        with pytest.raises(DepthExceededError, match=r"^T\^-1\(0/3\^0\) undefined within 64 stages$"):
            apply_T_inverse(TriadicRational(0, 0))

    def test_matches_per_stage_loop(self):
        # the stage search as it was: locate afresh at every stage tried
        def reference(x, step, depth_cap=DEFAULT_DEPTH_CAP):
            for k in range(depth_cap + 1):
                addr = locate(x, k)
                edge = height(k) - 1 if step > 0 else 0
                if addr.in_spacer_remainder or addr.level == edge:
                    continue
                target = level_interval(k, addr.level + step).start
                return translate(x, target + addr.offset - x.as_fraction())
            raise DepthExceededError(f"{'T' if step > 0 else 'T^-1'}({x}) undefined "
                                     f"within {depth_cap} stages")

        def outcome(fn, *args):
            try:
                return fn(*args)
            except DepthExceededError as exc:
                return str(exc)

        rng = random.Random(23)
        points = []
        for _ in range(3000):
            e = rng.randint(1, 40)
            points.append(T(rng.randrange(3 ** e), 3 ** e))
        # 1 - 3^-m resolves at stage m; past the cap it raises
        points += [T(3 ** m - 1, 3 ** m) for m in range(1, 41)]
        points += [T(3 ** m - 1, 3 ** m) for m in (64, 65, 70)]
        points += [TriadicRational(0, 0), T(1, 3 ** 40), T(2, 3)]
        for x in points:
            assert outcome(apply_T, x) == outcome(reference, x, 1)
            assert outcome(apply_T_inverse, x) == outcome(reference, x, -1)
        for cap in (0, 1, 5):
            for x in points[-50:]:
                assert outcome(apply_T, x, cap) == outcome(reference, x, 1, cap)
                assert outcome(apply_T_inverse, x, cap) == outcome(reference, x, -1, cap)


class TestInducedDynamics:
    def test_first_return_examples(self):
        for k in (1, 2, 3):
            h = height(k)
            assert first_return(TernaryWord.parse("0"), k) == h
            assert first_return(TernaryWord.parse("1"), k) == h + 1
            assert first_return(TernaryWord.parse("21"), k) == h + 1
            assert first_return(TernaryWord(()), k) == h

    def test_induced_map_examples(self):
        assert induced_map(TernaryWord.parse("01")) == TernaryWord.parse("11")
        assert induced_map(TernaryWord.parse("1")) == TernaryWord.parse("2")
        assert induced_map(TernaryWord.parse("21")) == TernaryWord.parse("02")

    def test_lth_return_time_examples(self):
        for k in (1, 2):
            assert lth_return_time(TernaryWord.parse("1202"), 0, k) == 0
            assert lth_return_time(TernaryWord.parse("0"), 1, k) == height(k)
            assert lth_return_time(TernaryWord.parse("00"), 3, k) == 3 * height(k) + 1

    def test_recursion_matches_orbit_sum(self):
        for k in (1, 2):
            for length in range(7):
                for digits in itertools.product((0, 1, 2), repeat=length):
                    w = TernaryWord(digits)
                    total = 0
                    cur = w
                    for l in range(1, 82):
                        total += first_return(cur, k)
                        cur = induced_map(cur)
                        assert lth_return_time(w, l, k) == total
                    assert total == lth_return_time_orbit(w, 81, k)

    def test_first_return_is_minimal(self):
        # the word addresses the point x = 0.w * width(A_k) of the base cell
        for k in (1, 2):
            w_cell = Fraction(2, 3 ** (k + 1))
            for length in range(7):
                for digits in itertools.product((0, 1, 2), repeat=length):
                    w = TernaryWord(digits)
                    r = first_return(w, k)
                    x = TriadicRational.from_fraction(
                        w.to_rational().as_fraction() * w_cell)
                    y = x
                    for j in range(1, r + 1):
                        y = apply_T(y)
                        inside = y.as_fraction() < w_cell
                        assert inside == (j == r), (k, w, j)
