"""Exact triadic rationals, ternary words, and unions of triadic intervals.

Everything here is exact: points of [0,1) with denominator a power of 3,
their ternary digit expansions, and finite disjoint unions of half-open
intervals with triadic endpoints, kept in canonical form as the input of
the oracles.  No floating point anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable


class DomainError(ValueError):
    """Raised when a value leaves [0,1) or an input violates a precondition."""


def _pow3_exponent(n: int) -> int | None:
    """Return e with n == 3**e, or None if n is not a power of 3."""
    if n < 1:
        return None
    e = 0
    while n % 3 == 0:
        n //= 3
        e += 1
    return e if n == 1 else None


def is_triadic(q: Fraction) -> bool:
    """True if q has a power-of-3 denominator."""
    return _pow3_exponent(q.denominator) is not None


@dataclass(frozen=True, order=False)
class TriadicRational:
    """A point numerator/3**exponent of [0,1), kept in canonical form.

    Canonical means the numerator is not divisible by 3 unless the value is
    exactly 0 (then numerator == 0 and exponent == 0).
    """

    numerator: int
    exponent: int

    def __post_init__(self):
        if self.numerator < 0 or self.exponent < 0:
            raise DomainError(f"negative components: {self.numerator}/3^{self.exponent}")
        if self.numerator >= 3 ** self.exponent:
            raise DomainError(f"value {self.numerator}/3^{self.exponent} is not in [0,1)")
        if self.numerator == 0:
            if self.exponent != 0:
                raise DomainError("zero must be written 0/3^0")
        elif self.numerator % 3 == 0:
            raise DomainError(f"{self.numerator}/3^{self.exponent} is not canonical")

    @classmethod
    def from_fraction(cls, q: Fraction | int) -> "TriadicRational":
        q = Fraction(q)
        e = _pow3_exponent(q.denominator)
        if e is None:
            raise DomainError(f"{q} does not have a power-of-3 denominator")
        if not 0 <= q < 1:
            raise DomainError(f"{q} is not in [0,1)")
        return cls(q.numerator, e)

    @classmethod
    def parse(cls, text: str) -> "TriadicRational":
        """Parse 'p/3^m', a bare integer numerator of 3^0, or '0.a1a2...' ternary."""
        text = text.strip()
        m = re.fullmatch(r"(\d+)\s*/\s*3\^(\d+)", text)
        if m:
            return normalize(int(m.group(1)), int(m.group(2)))
        m = re.fullmatch(r"0\.([012]+)", text)
        if m:
            return TernaryWord.parse(text).to_rational()
        if re.fullmatch(r"\d+", text):
            return normalize(int(text), 0)
        raise DomainError(f"cannot parse triadic rational {text!r}")

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, 3 ** self.exponent)

    def __str__(self) -> str:
        return f"{self.numerator}/3^{self.exponent}"


def _coerce(x) -> Fraction:
    if isinstance(x, TriadicRational):
        return x.as_fraction()
    return Fraction(x)


def normalize(numerator: int, exponent: int) -> TriadicRational:
    """Canonicalize a pre-canonical pair (0 <= numerator <= 3^exponent)."""
    if numerator < 0 or exponent < 0:
        raise DomainError(f"negative components: {numerator}/3^{exponent}")
    if numerator >= 3 ** exponent:
        raise DomainError(f"value {numerator}/3^{exponent} is not in [0,1)")
    while exponent > 0 and numerator % 3 == 0:
        numerator //= 3
        exponent -= 1
    if numerator == 0:
        exponent = 0
    return TriadicRational(numerator, exponent)


@dataclass(frozen=True)
class TernaryWord:
    """A finite word over {0,1,2} denoting 0.a1a2...am (implicit trailing zeros)."""

    digits: tuple[int, ...]

    def __post_init__(self):
        if any(d not in (0, 1, 2) for d in self.digits):
            raise DomainError(f"digits outside {{0,1,2}}: {self.digits}")

    @classmethod
    def parse(cls, text: str) -> "TernaryWord":
        text = text.strip()
        if text.startswith("0."):
            text = text[2:]
        if text and not re.fullmatch(r"[012]+", text):
            raise DomainError(f"cannot parse ternary word {text!r}")
        return cls(tuple(int(c) for c in text))

    def to_rational(self) -> TriadicRational:
        n = 0
        for d in self.digits:
            n = 3 * n + d
        return normalize(n, len(self.digits))

    def __len__(self) -> int:
        return len(self.digits)

    def __str__(self) -> str:
        return "0." + "".join(str(d) for d in self.digits)


@dataclass(frozen=True)
class TriadicInterval:
    """Half-open interval [start, end) with triadic endpoints, 0 <= start < end <= 1."""

    start: Fraction
    end: Fraction

    def __post_init__(self):
        object.__setattr__(self, "start", _coerce(self.start))
        object.__setattr__(self, "end", _coerce(self.end))
        if not (is_triadic(self.start) and is_triadic(self.end)):
            raise DomainError(f"non-triadic endpoints [{self.start}, {self.end})")
        if not 0 <= self.start < self.end <= 1:
            raise DomainError(f"bad interval [{self.start}, {self.end})")

    def __str__(self) -> str:
        return f"[{self.start}, {self.end})"


class TriadicSet:
    """Finite disjoint union of triadic intervals, kept sorted and merged.

    Canonical form: intervals sorted by start, pairwise disjoint, with
    nonempty gaps between consecutive intervals (adjacent ones are merged),
    so structural equality is set equality.
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[TriadicInterval] = ()):
        self.intervals: tuple[TriadicInterval, ...] = _merge(intervals)

    @classmethod
    def from_endpoints(cls, pairs: Iterable[tuple]) -> "TriadicSet":
        return cls(TriadicInterval(Fraction(a), Fraction(b)) for a, b in pairs)

    def __eq__(self, other) -> bool:
        return isinstance(other, TriadicSet) and self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def __str__(self) -> str:
        return " ∪ ".join(str(iv) for iv in self.intervals) if self.intervals else "∅"

    __repr__ = __str__


def _merge(intervals: Iterable[TriadicInterval]) -> tuple[TriadicInterval, ...]:
    ivs = sorted(intervals, key=lambda iv: (iv.start, iv.end))
    out: list[TriadicInterval] = []
    for iv in ivs:
        if out and iv.start <= out[-1].end:
            if iv.end > out[-1].end:
                out[-1] = TriadicInterval(out[-1].start, iv.end)
        else:
            out.append(iv)
    return tuple(out)

