import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaconlab.triadic import (
    DomainError,
    TernaryWord,
    TriadicInterval,
    TriadicRational,
    TriadicSet,
    normalize,
    translate,
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

    def test_str_round_trip(self):
        x = T(7, 27)
        assert TriadicRational.parse(str(x)) == x

    def test_ordering(self):
        assert T(1, 3) < T(2, 3)
        assert T(1, 3) <= Fraction(1, 3)
        assert T(7, 9) > Fraction(2, 3)


class TestTranslate:
    def test_shift_onto_next_level(self):
        assert translate(T(1, 3), Fraction(4, 9)) == T(7, 9)

    def test_identity(self):
        x = T(5, 9)
        assert translate(x, 0) == x

    def test_inverse_shift(self):
        assert translate(T(2, 9), Fraction(-2, 9)) == TriadicRational(0, 0)

    def test_rejects_leaving_unit_interval(self):
        with pytest.raises(DomainError):
            translate(T(7, 9), Fraction(1, 3))

    def test_rejects_non_triadic_shift(self):
        with pytest.raises(DomainError):
            translate(T(1, 3), Fraction(1, 2))


class TestTernaryWord:
    def test_parse_and_value(self):
        assert TernaryWord.parse("0.12").to_rational() == T(5, 9)
        assert TernaryWord.parse("0.2").to_rational() == T(2, 3)

    def test_rejects_bad_digits(self):
        with pytest.raises(DomainError):
            TernaryWord((0, 3))
        with pytest.raises(DomainError):
            TernaryWord.parse("0.13")

    @given(st.lists(st.integers(0, 2), max_size=40))
    def test_word_rational_round_trip(self, digits):
        w = TernaryWord(tuple(digits))
        assert w.to_rational().to_word(len(digits)) == w

    def test_to_word_pads_with_zeros(self):
        assert T(1, 3).to_word(3) == TernaryWord((1, 0, 0))
        with pytest.raises(DomainError):
            T(5, 9).to_word(1)


class TestTriadicSet:
    def test_interval_validation(self):
        with pytest.raises(DomainError):
            TriadicInterval(Fraction(2, 3), Fraction(1, 3))
        with pytest.raises(DomainError):
            TriadicInterval(Fraction(0), Fraction(1, 2))

    def test_intersection_example(self):
        a = TriadicSet.from_endpoints([(0, Fraction(2, 3))])
        b = TriadicSet.from_endpoints([(Fraction(1, 3), 1)])
        assert a.intersection(b) == TriadicSet.from_endpoints(
            [(Fraction(1, 3), Fraction(2, 3))])

    def test_self_symmetric_difference_is_empty(self):
        a = TriadicSet.from_endpoints([(0, Fraction(2, 9)), (Fraction(2, 3), Fraction(8, 9))])
        assert a.symmetric_difference(a) == TriadicSet.empty()

    def test_two_piece_intersection(self):
        a = TriadicSet.from_endpoints([(0, Fraction(2, 9)), (Fraction(2, 3), Fraction(8, 9))])
        b = TriadicSet.from_endpoints([(0, Fraction(1, 3))])
        assert a.intersection(b) == TriadicSet.from_endpoints([(0, Fraction(2, 9))])

    def test_adjacent_intervals_merge(self):
        a = TriadicSet.from_endpoints([(0, Fraction(1, 3)), (Fraction(1, 3), Fraction(2, 3))])
        assert a.intervals == (TriadicInterval(Fraction(0), Fraction(2, 3)),)

    def test_measure_examples(self):
        assert TriadicSet.from_endpoints([(0, Fraction(2, 9))]).measure() == Fraction(2, 9)
        assert TriadicSet.empty().measure() == 0
        two_piece = TriadicSet.from_endpoints([(0, Fraction(2, 9)), (Fraction(8, 9), 1)])
        assert two_piece.measure() == Fraction(1, 3)

    def test_set_algebra_dispatch(self):
        a = TriadicSet.from_endpoints([(0, Fraction(1, 3))])
        b = TriadicSet.from_endpoints([(Fraction(1, 9), Fraction(2, 3))])
        assert a.union(b).measure() == Fraction(2, 3)
        assert a.intersection(b).measure() == Fraction(2, 9)
        assert a.difference(b) == TriadicSet.from_endpoints([(0, Fraction(1, 9))])


def random_set(rng, e):
    scale = 3 ** e
    pairs = []
    for _ in range(rng.randint(0, 4)):
        a = rng.randrange(scale)
        b = rng.randrange(a + 1, scale + 1)
        pairs.append((Fraction(a, scale), Fraction(b, scale)))
    return TriadicSet.from_endpoints(pairs)


def cell_mask(s, e):
    # exact membership table on the 3^-e grid
    scale = 3 ** e
    mask = [False] * scale
    for iv in s.intervals:
        lo = iv.start * scale
        hi = iv.end * scale
        for p in range(int(lo), int(hi)):
            mask[p] = True
    return mask


def test_set_algebra_agrees_with_membership_brute_force():
    rng = random.Random(13)
    e = 10
    for _ in range(12):
        a = random_set(rng, e)
        b = random_set(rng, e)
        ma, mb = cell_mask(a, e), cell_mask(b, e)
        assert cell_mask(a.union(b), e) == [x or y for x, y in zip(ma, mb)]
        assert cell_mask(a.intersection(b), e) == [x and y for x, y in zip(ma, mb)]
        assert cell_mask(a.difference(b), e) == [x and not y for x, y in zip(ma, mb)]
        assert cell_mask(a.symmetric_difference(b), e) == [x != y for x, y in zip(ma, mb)]


def test_measure_is_additive_randomized():
    rng = random.Random(7)
    for _ in range(200):
        e = rng.randint(1, 10)
        a = random_set(rng, e)
        b = random_set(rng, e)
        lhs = a.union(b).measure() + a.intersection(b).measure()
        assert lhs == a.measure() + b.measure()


def test_complement_partitions():
    rng = random.Random(5)
    for _ in range(50):
        a = random_set(rng, rng.randint(1, 6))
        assert a.measure() + a.complement().measure() == 1
        assert a.intersection(a.complement()) == TriadicSet.empty()
