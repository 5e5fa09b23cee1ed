import itertools
import random
from fractions import Fraction

import pytest

from chaconlab import checks
from chaconlab.tower import (
    TowerAddress,
    _level_start,
    apply_T,
    apply_T_inverse,
    apply_T_power,
    height,
    locate,
)
from chaconlab.triadic import DomainError, TriadicRational


def T(num, den):
    return TriadicRational.from_fraction(Fraction(num, den))


def cell_width(k):
    return Fraction(2, 3 ** (k + 1))


def level_start(k, j):
    return Fraction(_level_start(k, j), 3 ** (k + 1))


class TestTowerParams:
    def test_small_stages(self):
        assert [height(k) for k in range(3)] == [1, 4, 13]
        # stage 1: left copy, middle copy, spacer piece, right copy; ninths
        assert [_level_start(1, j) for j in range(4)] == [0, 2, 6, 4]

    def test_height_recursion_and_closed_form(self):
        for k in range(1, 12):
            assert height(k) == 3 * height(k - 1) + 1
            assert height(k) == (3 ** (k + 1) - 1) // 2

    def test_widths_fill_unit_interval(self):
        for k in range(8):
            assert height(k) * cell_width(k) + Fraction(1, 3 ** (k + 1)) == 1


class TestLevelInterval:
    def test_examples(self):
        assert level_start(1, 0) == 0
        assert level_start(1, 2) == Fraction(2, 3)
        # inserted spacer piece of stage 2 sits at level 2*h_1 = 8
        assert level_start(2, 8) == Fraction(8, 9)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            _level_start(1, 4)
        with pytest.raises(DomainError):
            _level_start(1, -1)

    def test_levels_and_reservoir_tile_unit_interval(self):
        # level j is [s, s + 2) over 3^(k+1), the reservoir [3^(k+1) - 1, 3^(k+1))
        for k in range(7):
            starts = sorted(_level_start(k, j) for j in range(height(k)))
            assert starts == list(range(0, 3 ** (k + 1) - 1, 2))


class TestLocate:
    def test_examples(self):
        assert locate(T(1, 3), 1) == TowerAddress(1, Fraction(1, 9))
        for k in range(5):
            assert locate(TriadicRational(0, 0), k) == TowerAddress(0, Fraction(0))
        assert locate(T(25, 27), 1) == TowerAddress(None, Fraction(1, 27))
        assert repr(locate(T(1, 3), 1)) == "TowerAddress(level=1, offset=Fraction(1, 9))"

    def test_matches_level_intervals(self):
        rng = random.Random(2)
        for _ in range(300):
            e = rng.randint(1, 7)
            x = TriadicRational.from_fraction(Fraction(rng.randrange(3 ** e), 3 ** e))
            k = rng.randint(0, 6)
            addr = locate(x, k)
            if addr.level is None:
                assert x.as_fraction() >= 1 - Fraction(1, 3 ** (k + 1))
            else:
                assert 0 <= addr.offset < cell_width(k)
                assert addr.offset == x.as_fraction() - level_start(k, addr.level)

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
            return TowerAddress(level, offset)

        rng = random.Random(5)
        for _ in range(3000):
            e = rng.randint(1, 40)
            x = TriadicRational.from_fraction(Fraction(rng.randrange(3 ** e), 3 ** e))
            k = rng.randint(0, 30)
            assert locate(x, k) == reference(x, k)


def stage_image(x, k, step=1):
    """tau_k(x): the one-step translation at stage k (step = -1: backwards),
    or None where undefined."""
    addr = locate(x, k)
    if addr.level is None or addr.level == (height(k) - 1 if step > 0 else 0):
        return None
    return TriadicRational.from_fraction(level_start(k, addr.level + step) + addr.offset)


def stepwise_power(x, n):
    """T^n(x) by |n| single steps of apply_T or apply_T_inverse: the loop the
    one-walk power replaced."""
    step = apply_T if n >= 0 else apply_T_inverse
    for _ in range(abs(n)):
        x = step(x)
    return x


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
        cases = []
        for _ in range(60):
            e = rng.randint(1, 8)
            x = TriadicRational.from_fraction(Fraction(rng.randrange(3 ** e), 3 ** e))
            cases.append((x, rng.randint(-5, 5), rng.randint(0, 5)))
        # powers up to 3^13 either way, where the walk ends past stage 13
        big = 3 ** 13
        for _ in range(300):
            e = rng.randint(1, 30)
            x = TriadicRational.from_fraction(Fraction(rng.randrange(3 ** e), 3 ** e))
            cases.append((x, rng.randint(-big, big), rng.randint(-big, big)))
        cases += [(T(1, 3 ** 20), a, b) for a in (big, -big) for b in (big, -big)]
        compared = 0
        for x, a, b in cases:
            try:
                lhs = apply_T_power(x, a + b)
                rhs = apply_T_power(apply_T_power(x, a), b)
            except DomainError:
                continue  # orbit passed through 0 going backwards
            assert lhs == rhs, (x, a, b)
            compared += 1
        assert compared >= 300

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
        with pytest.raises(DomainError, match=r"^T\^-1\(0/3\^0\) undefined at every stage$"):
            apply_T_inverse(TriadicRational(0, 0))
        # T(0) = 2/9, so T^-2(2/9) fails at T^-1(0) with the same message
        with pytest.raises(DomainError, match=r"^T\^-1\(0/3\^0\) undefined at every stage$"):
            apply_T_power(T(2, 9), -2)

    def test_matches_per_stage_loop(self):
        # the stage search as it was: locate afresh at every stage up to 200
        def reference(x, step):
            for k in range(201):
                y = stage_image(x, k, step)
                if y is not None:
                    return y
            raise DomainError

        def outcome(fn, *args):
            try:
                return fn(*args)
            except DomainError:
                return DomainError

        rng = random.Random(23)
        points = []
        for _ in range(3000):
            e = rng.randint(1, 40)
            points.append(T(rng.randrange(3 ** e), 3 ** e))
        # 1 - 3^-m resolves at stage m, also past the old depth cap of 64
        deep = [T(3 ** m - 1, 3 ** m) for m in (64, 65, 70)]
        points += [T(3 ** m - 1, 3 ** m) for m in range(1, 41)] + deep
        points += [TriadicRational(0, 0), T(1, 3 ** 40), T(2, 3)]
        for x in points:
            assert outcome(apply_T, x) == outcome(reference, x, 1)
            assert outcome(apply_T_inverse, x) == outcome(reference, x, -1)
        for x in deep:
            assert apply_T_inverse(apply_T(x)) == x

    def test_matches_stepwise_power(self):
        def outcome(x, n, fn):
            try:
                return fn(x, n)
            except DomainError as exc:
                return DomainError, str(exc)

        rng = random.Random(29)
        cases = []
        for _ in range(1000):
            e = rng.randint(0, 40)
            x = T(rng.randrange(3 ** e), 3 ** e)
            cases.append((x, rng.randint(-400, 400)))
        # every p/3^e near 0, where backward orbits reach 0
        near_zero = {T(p, 3 ** e) for e in range(12) for p in range(min(60, 3 ** e))}
        cases += [(x, n) for x in sorted(near_zero, key=str)
                  for n in (1, -1, -2, -5, -30, -100, 7, 100)]
        failed = 0
        for x, n in cases:
            got = outcome(x, n, apply_T_power)
            assert got == outcome(x, n, stepwise_power), (x, n)
            if isinstance(got, tuple):
                assert n < 0 and got[1] == "T^-1(0/3^0) undefined at every stage"
                failed += 1
        assert failed > 0


def point(w, k):
    """The point 0.w * width(A_k) of the base cell, for a tuple w of digits
    0, 1 and 2."""
    value = Fraction(0)
    for d in reversed(w):
        value = (value + d) / 3
    return TriadicRational.from_fraction(value * cell_width(k))


def return_times(x, k, count):
    """The first `count` times at which iterating apply_T from x enters the base cell."""
    times, y, n = [], x, 0
    while len(times) < count:
        y, n = apply_T(y), n + 1
        if y.as_fraction() < cell_width(k):
            times.append(n)
    return times


def first_return(w, k):
    """Reference digit rule for the first-return time r_k of 0.w: a1 = 0
    gives h_k, a1 = 1 gives h_k + 1, a1 = 2 reads on; trailing zeros end it."""
    for d in w:
        if d < 2:
            return height(k) + d
    return height(k)


def induced_map(w):
    """Reference digit rule for the induced map S on the base cell."""
    if not w or w[0] == 0:
        return (1,) + w[1:]
    if w[0] == 1:
        return (2,) + w[1:]
    return (0,) + induced_map(w[1:])


def words(max_length):
    for length in range(max_length + 1):
        yield from itertools.product((0, 1, 2), repeat=length)


class TestInducedDynamics:
    def test_first_return_examples(self):
        for k in (1, 2, 3):
            h = height(k)
            assert return_times(point((0,), k), k, 1) == [h]
            assert return_times(point((1,), k), k, 1) == [h + 1]
            assert return_times(point((2, 1), k), k, 1) == [h + 1]
            assert return_times(point((), k), k, 1) == [h]

    def test_induced_map_examples(self):
        for k in (1, 2):
            for w, image in (((0, 1), (1, 1)), ((1,), (2,)), ((2, 1), (0, 2))):
                x = point(w, k)
                y = apply_T_power(x, return_times(x, k, 1)[0])
                assert y == point(image, k)

    def test_lth_return_time_examples(self):
        for k in (1, 2):
            assert return_times(point((1, 2, 0, 2), k), k, 0) == []
            assert return_times(point((0,), k), k, 1) == [height(k)]
            assert return_times(point((0, 0), k), k, 3)[2] == 3 * height(k) + 1

    def test_recursion_matches_orbit_sum(self):
        # t_l' as the orbit sum of first-return times along S-iterates
        for k in (1, 2):
            for w in words(5):
                times = return_times(point(w, k), k, 27)
                total, cur = 0, w
                for t in times:
                    total += first_return(cur, k)
                    cur = induced_map(cur)
                    assert t == total, (k, w)

    def test_first_return_is_minimal(self):
        for k in (1, 2):
            w_cell = cell_width(k)
            for w in words(6):
                r = first_return(w, k)
                y = point(w, k)
                for j in range(1, r + 1):
                    y = apply_T(y)
                    inside = y.as_fraction() < w_cell
                    assert inside == (j == r), (k, w, j)
