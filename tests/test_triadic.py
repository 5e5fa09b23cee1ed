import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaconlab.triadic import (
    MAX_STAGE,
    DomainError,
    SizeError,
    TriadicRational,
    TriadicSet,
    normalize,
)


def T(num, den):
    return TriadicRational.from_fraction(Fraction(num, den))


class TestTriadicRational:
    def test_normalize_cancels_common_factor(self):
        assert normalize(3, 2) == TriadicRational(1, 1)

    def test_normalize_zero(self):
        assert normalize(0, 3) == TriadicRational(0, 0)

    def test_normalize_already_canonical(self):
        assert normalize(5, 2) == TriadicRational(5, 2)

    def test_rejects_value_at_least_one(self):
        with pytest.raises(DomainError):
            normalize(9, 2)
        with pytest.raises(DomainError):
            TriadicRational(3, 1)

    def test_rejects_non_canonical_construction(self):
        with pytest.raises(DomainError):
            TriadicRational(3, 2)
        with pytest.raises(DomainError):
            TriadicRational(0, 2)

    def test_from_fraction_rejects_non_triadic(self):
        with pytest.raises(DomainError):
            TriadicRational.from_fraction(Fraction(1, 2))

    def test_parse_forms(self):
        assert TriadicRational.parse("5/3^2") == TriadicRational(5, 2)
        assert TriadicRational.parse("3/3^2") == TriadicRational(1, 1)
        assert TriadicRational.parse("0") == TriadicRational(0, 0)
        assert TriadicRational.parse("0.12") == T(5, 9)
        with pytest.raises(DomainError):
            TriadicRational.parse("1/2")

    def test_parse_bounds_the_exponent(self):
        # checked before 3^m is built, so m = 10^8 answers at once
        assert TriadicRational.parse(f"1/3^{MAX_STAGE}") == TriadicRational(1, MAX_STAGE)
        for m in (MAX_STAGE + 1, 10 ** 8):
            with pytest.raises(SizeError, match=f"^m = {m} exceeds cap {MAX_STAGE}$"):
                TriadicRational.parse(f"1/3^{m}")

    def test_parse_decimal_exponents(self):
        # only a zero with a decimal exponent is a point of [0,1); every other
        # such literal is refused by name, and text outside Fraction's
        # decimal-exponent grammar still reaches Fraction
        for text in ("0e5", "-0e5", ".0E-3", "0.000e7", "+0_0e1_0", "0e100000000"):
            assert TriadicRational.parse(text) == TriadicRational(0, 0), text
        for text in ("1e-1", "3e0", "-1e5", "0.5E2", "1.e5", "1e100000000"):
            with pytest.raises(DomainError, match=f"^decimal-exponent point '{text}' is not 0"):
                TriadicRational.parse(text)
        for text in ("zebra", "1_e5", "1e", "e5"):
            with pytest.raises(ValueError, match=f"^Invalid literal for Fraction: '{text}'$"):
                TriadicRational.parse(text)

    def test_str_round_trip(self):
        x = T(7, 27)
        assert TriadicRational.parse(str(x)) == x

    def test_equal_points_compare_and_hash_equal(self):
        x, y = TriadicRational(7, 3), normalize(21, 4)
        assert x == y and hash(x) == hash(y) and len({x, y}) == 1
        assert x != TriadicRational(8, 3) and x != (7, 3)
        assert repr(x) == "TriadicRational(numerator=7, exponent=3)"

    def test_immutable_and_unordered(self):
        x = TriadicRational(1, 1)
        with pytest.raises(AttributeError):
            x.numerator = 2
        with pytest.raises(AttributeError):
            x.scale = 2
        # lexicographic order on (numerator, exponent) would put 2/3^1 below 1/3^2
        with pytest.raises(TypeError):
            x < TriadicRational(1, 2)
        assert (x.numerator, x.exponent) == (1, 1)

    def test_validation_messages(self):
        cases = [((-1, 0), "negative components: -1/3^0"),
                 ((1, -1), "negative components: 1/3^-1"),
                 ((9, 2), "value 9/3^2 is not in [0,1)"),
                 ((0, 2), "zero must be written 0/3^0"),
                 ((3, 2), "3/3^2 is not canonical")]
        for (num, exp), message in cases:
            with pytest.raises(DomainError) as exc:
                TriadicRational(num, exp)
            assert str(exc.value) == message


class TestTernaryWord:
    # '0.a1a2...' literals, read in base 3
    def test_parse_and_value(self):
        assert TriadicRational.parse("0.12") == T(5, 9)
        assert TriadicRational.parse("0.2") == T(2, 3)
        assert TriadicRational.parse("0.2100") == T(7, 9)

    def test_rejects_bad_digits(self):
        # not a base-3 literal, so read as the decimal 13/100
        with pytest.raises(DomainError):
            TriadicRational.parse("0.13")

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=40))
    def test_word_rational_round_trip(self, digits):
        x = TriadicRational.parse("0." + "".join(map(str, digits)))
        value = Fraction(0)
        for d in reversed(digits):
            value = (value + d) / 3
        assert x.as_fraction() == value
        n = x.numerator * 3 ** (len(digits) - x.exponent)
        expansion = []
        for _ in digits:
            n, d = divmod(n, 3)
            expansion.append(d)
        assert expansion[::-1] == digits


class TestTriadicSet:
    def test_interval_validation(self):
        for pair in ((Fraction(2, 3), Fraction(1, 3)),   # reversed
                     (Fraction(1, 3), Fraction(1, 3)),   # empty
                     (Fraction(0), Fraction(1, 2)),      # non-triadic end
                     (Fraction(1, 6), Fraction(1, 3)),   # non-triadic start
                     (Fraction(2, 3), Fraction(4, 3)),   # past 1
                     (Fraction(-1, 3), Fraction(1, 3))):  # below 0
            with pytest.raises(DomainError):
                TriadicSet.from_endpoints([(Fraction(0), Fraction(1, 9)), pair])

    def test_adjacent_intervals_merge(self):
        a = TriadicSet.from_endpoints([(Fraction(1, 3), Fraction(2, 3)), (0, Fraction(1, 3)),
                                       (Fraction(7, 9), 1), (Fraction(8, 9), Fraction(26, 27))])
        assert a.intervals == ((Fraction(0), Fraction(2, 3)), (Fraction(7, 9), Fraction(1)))
        assert TriadicSet.from_endpoints([]).intervals == ()


def test_set_algebra_agrees_with_membership_brute_force():
    # the set algebra left is the union that from_endpoints forms of random
    # overlapping pairs on the 3^-e grid, in canonical form: sorted,
    # disjoint, and with a gap between neighbours
    rng = random.Random(13)
    e = 6
    scale = 3 ** e
    for _ in range(200):
        pairs = []
        for _ in range(rng.randint(0, 6)):
            a = rng.randrange(scale)
            pairs.append((a, rng.randrange(a + 1, scale + 1)))
        s = TriadicSet.from_endpoints((Fraction(a, scale), Fraction(b, scale)) for a, b in pairs)
        mask = [False] * scale
        for lo, hi in s.intervals:
            for p in range(int(lo * scale), int(hi * scale)):
                mask[p] = True
        assert mask == [any(a <= p < b for a, b in pairs) for p in range(scale)]
        for (_, u_end), (v_start, _) in zip(s.intervals, s.intervals[1:]):
            assert u_end < v_start
