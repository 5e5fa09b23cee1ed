"""Exact triadic rationals and unions of triadic intervals.

Everything here is exact: points of [0,1) with denominator a power of 3,
and finite disjoint unions of half-open intervals with triadic endpoints,
kept in canonical form as what the oracles take and return.  No floating
point anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable


class DomainError(ValueError):
    """Raised when a value leaves [0,1) or an input violates a precondition."""


class InputError(ValueError):
    """A precondition on extractor input data failed; carries a witness."""


class SizeError(RuntimeError):
    """A requested value exceeds a resource cap.  The parsing of input raises
    it (the command line and TriadicRational.parse), and so does an oracle
    past one of its budgets, as the subclass FragmentationError."""


# the deepest stage k a command takes, and the largest m of a p/3^m point: the
# work of each grows with 3^k or 3^m, which a short argument can make unbounded
MAX_STAGE = 20000


def _pow3_exponent(n: int) -> int | None:
    """Return e with n == 3**e, or None if n is not a power of 3."""
    if n < 1:
        return None
    e = 0
    while n % 3 == 0:
        n //= 3
        e += 1
    return e if n == 1 else None


class TriadicRational:
    """A point numerator/3**exponent of [0,1), kept in canonical form.

    Canonical means the numerator is not divisible by 3 unless the value is
    exactly 0 (then numerator == 0 and exponent == 0).  Immutable, hashable
    and unordered: equal points compare and hash equal.  Not a tuple, whose <
    would order points by numerator first, which is not their order in [0,1).
    """

    __slots__ = ("numerator", "exponent")

    def __init__(self, numerator: int, exponent: int):
        if numerator < 0 or exponent < 0:
            raise DomainError(f"negative components: {numerator}/3^{exponent}")
        if numerator >= 3 ** exponent:
            raise DomainError(f"value {numerator}/3^{exponent} is not in [0,1)")
        if numerator == 0:
            if exponent != 0:
                raise DomainError("zero must be written 0/3^0")
        elif numerator % 3 == 0:
            raise DomainError(f"{numerator}/3^{exponent} is not canonical")
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "exponent", exponent)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.numerator == other.numerator and self.exponent == other.exponent

    def __hash__(self) -> int:
        return hash((self.numerator, self.exponent))

    def __repr__(self) -> str:
        return f"TriadicRational(numerator={self.numerator!r}, exponent={self.exponent!r})"

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
        """Parse 'p/3^m' with m <= MAX_STAGE, a bare integer numerator of 3^0,
        '0.a1a2...' in base 3, a zero with a decimal exponent, or else any
        literal that Fraction reads."""
        text = text.strip()
        m = re.fullmatch(r"(\d+)\s*/\s*3\^(\d+)", text)
        if m:
            numerator, exponent = int(m.group(1)), int(m.group(2))
            if exponent > MAX_STAGE:
                raise SizeError(f"m = {exponent} exceeds cap {MAX_STAGE}")
            return normalize(numerator, exponent)
        m = re.fullmatch(r"0\.([012]+)", text)
        if m:
            return normalize(int(m.group(1), 3), len(m.group(1)))
        if re.fullmatch(r"\d+", text):
            return normalize(int(text), 0)
        m = re.fullmatch(r"[-+]?(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:\.(\d*|\d+(?:_\d+)*))?"
                         r"[eE][-+]?\d+(?:_\d+)*", text)
        if m:
            # Fraction's decimal-exponent form: a decimal times 10^e is triadic
            # only as an integer, so in [0,1) only as 0; read before Fraction
            # would build 10^e
            if any(int(d) for d in (m.group(1) + (m.group(2) or "")).replace("_", "")):
                raise DomainError(f"decimal-exponent point {text!r} is not 0, "
                                  "the only such point of [0,1)")
            return TriadicRational(0, 0)
        try:
            return cls.from_fraction(Fraction(text))
        except ZeroDivisionError:
            raise DomainError(f"zero denominator in point {text!r}") from None

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, 3 ** self.exponent)

    def __str__(self) -> str:
        return f"{self.numerator}/3^{self.exponent}"


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


class TriadicSet:
    """Finite disjoint union of half-open triadic intervals [a, b).

    `intervals` is a tuple of (Fraction, Fraction) pairs sorted by start,
    with a nonempty gap between neighbours (touching ones are merged), so
    equal sets have equal tuples.  Build it with from_endpoints.
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals: tuple[tuple[Fraction, Fraction], ...]):
        self.intervals = intervals

    @classmethod
    def from_endpoints(cls, pairs: Iterable[tuple]) -> "TriadicSet":
        """The union of [a, b) over the pairs, each with triadic endpoints
        and 0 <= a < b <= 1."""
        out: list[tuple[Fraction, Fraction]] = []
        for a, b in sorted((Fraction(a), Fraction(b)) for a, b in pairs):
            if _pow3_exponent(a.denominator) is None or _pow3_exponent(b.denominator) is None:
                raise DomainError(f"non-triadic endpoints [{a}, {b})")
            if not 0 <= a < b <= 1:
                raise DomainError(f"bad interval [{a}, {b})")
            if out and a <= out[-1][1]:
                if b > out[-1][1]:
                    out[-1] = (out[-1][0], b)
            else:
                out.append((a, b))
        return cls(tuple(out))
