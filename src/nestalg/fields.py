"""Ground fields for exact linear algebra: the rationals and GF(p)."""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, int]


_ZERO, _ONE = Fraction(0), Fraction(1)

# The one grammar of a scalar string: an int, or over QQ a ratio of ints, in
# ASCII digits.  int() would also take spaces, underscores and other
# scripts' digits, Fraction() decimals and exponents, and "1e9999999" costs
# it time that grows with the exponent.
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

# Characters of a bad scalar echoed in an error message (`excerpt`).
ECHO = 32

# Deterministic Miller-Rabin: these witnesses decide primality of every
# n below MAX_MODULUS (Sorenson and Webster 2015).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_MODULUS = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in _WITNESSES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """The rationals (p is None) or the prime field GF(p).

    Rational scalars are Fractions (always in lowest terms, positive
    denominator); GF(p) scalars are ints in [0, p).  `ratio` reads any
    accepted scalar as a pair of ints, the form a `Matrix` stores.
    """

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            if p >= MAX_MODULUS:
                raise ValueError(f"field modulus must be below {MAX_MODULUS}, got {p}")
            if not _is_prime(p):
                raise ValueError(f"field modulus must be prime, got {p}")
        object.__setattr__(self, "p", p)

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Field", self.p))

    def __repr__(self) -> str:
        return "QQ" if self.p is None else f"GF({self.p})"

    # -- scalar construction ------------------------------------------------

    def ratio(self, value) -> tuple[int, int]:
        """(n, d) with value = n / d and d > 0, for an int, a Fraction or a
        scalar string: over QQ a string must read [+-]?[0-9]+(/[0-9]+)?, over
        GF(p) [+-]?[0-9]+, and n is then reduced mod p, d being 1.  The pair
        need not be in lowest terms.

        Booleans are refused although bool is an int: a JSON true is not 1.
        """
        p = self.p
        if type(value) is int:
            return (value, 1) if p is None else (value % p, 1)
        if isinstance(value, str):
            match = _RATIONAL.fullmatch(value)
            if match is None or (p is not None and match[2] is not None):
                raise ValueError(f"{excerpt(value)} is not a scalar of {self!r} in ASCII digits")
            n, d = int(match[1]), int(match[2] or 1)
            if not d:
                raise ZeroDivisionError("zero denominator")
        elif isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            n, d = int(value.numerator), int(value.denominator)
        else:
            raise TypeError(f"cannot coerce {excerpt(value)} into {self!r}")
        if p is None:
            return n, d
        if d != 1:
            raise TypeError(f"cannot coerce the ratio {n}/{d} into {self!r}")
        return n % p, 1

    def coerce(self, value) -> Scalar:
        """Normalize an int / Fraction / scalar string (`ratio`) into this field."""
        if self.p is None and type(value) is Fraction:
            return value
        n, d = self.ratio(value)
        return n if self.p is not None else Fraction(n, d) if d != 1 else Fraction(n)

    def zero(self) -> Scalar:
        """One shared Fraction 0 over QQ: comparing two zeros is then an
        identity check, the common case for sparse canonical rows."""
        return _ZERO if self.p is None else 0

    def one(self) -> Scalar:
        return _ONE if self.p is None else 1

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.p is None else (-a) % self.p

    def inv(self, a: Scalar) -> Scalar:
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a if self.p is None else pow(a, -1, self.p)

    def elements(self) -> tuple[Scalar, ...]:
        """All field elements; defined only for GF(p)."""
        if self.p is None:
            raise ValueError("the rationals cannot be enumerated")
        return tuple(range(self.p))

    # -- serialization ------------------------------------------------------

    def format_scalar(self, a: Scalar):
        """JSON form: 'n' or 'n/d' strings over QQ (str of the Fraction, in
        lowest terms), plain ints over GF(p)."""
        return str(a) if self.p is None else int(a)

    def parse_scalar(self, obj) -> Scalar:
        try:
            return self.coerce(obj)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad scalar {excerpt(obj)} for {self!r}") from exc


def excerpt(obj) -> str:
    """repr(obj), or for a longer value its first ECHO characters and length."""
    if isinstance(obj, str) and len(obj) > ECHO:
        return f"{obj[:ECHO]!r}\u2026 ({len(obj)} chars)"
    text = repr(obj)
    return text if len(text) <= 2 * ECHO else f"{text[:ECHO]}\u2026 ({len(text)} chars)"


QQ = Field()


def GF(p: int) -> Field:
    return Field(p)


GF2 = GF(2)
GF3 = GF(3)
