"""Exact scalar arithmetic over the rationals and over prime fields F_p.

Downstream equality checks are exact, never approximate, so scalars are
either `fractions.Fraction` (characteristic 0) or `Residue` instances
(characteristic p with p prime, 5 <= p < 2^31).  The two kinds never mix:
mixing residues of different moduli raises ValueError, mixing a Residue
with a Fraction raises TypeError through the normal operator protocol.

Sparse vectors (Clifford elements, spinors) store their coefficients as
int numerators over one common denominator.  Each field brings them to
its canonical form with `canon`: over Q the denominator is at least 1,
zero numerators are dropped and gcd(den, every numerator) = 1; over F_p
the numerators are reduced mod p and the denominator is 1.  `split`
turns field scalars into that form, and `from_fraction` turns one
numerator and the denominator back into a field scalar.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Hashable, Union

Scalar = Union[Fraction, "Residue"]

# Prime fields are bounded to 5 <= p < 2^31: a product of two canonical
# residues then fits int64, and primality is decided exactly.
MAX_PRIME = (1 << 31) - 1


def is_prime(m: int) -> bool:
    """Exact primality by trial division, for m <= MAX_PRIME only."""
    if m > MAX_PRIME:
        raise ValueError(f"{m} exceeds the prime field bound 2^31 - 1")
    return m > 1 and all(m % d for d in range(2, isqrt(m) + 1))


class Residue:
    """An element of F_p, stored canonically with 0 <= value < p."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int) -> None:
        object.__setattr__(self, "value", value % p)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name: str, val: object) -> None:
        raise AttributeError("Residue is immutable")

    def _lift(self, other: object) -> "Residue":
        if isinstance(other, Residue):
            if other.p != self.p:
                raise ValueError(f"mixed moduli: {self.p} vs {other.p}")
            return other
        if isinstance(other, int):
            return Residue(other, self.p)
        return NotImplemented

    def __add__(self, other: object) -> "Residue":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Residue(self.value + other.value, self.p)

    __radd__ = __add__

    def __sub__(self, other: object) -> "Residue":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Residue(self.value - other.value, self.p)

    def __rsub__(self, other: object) -> "Residue":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Residue(other.value - self.value, self.p)

    def __mul__(self, other: object) -> "Residue":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Residue(self.value * other.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "Residue":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if other.value == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Residue(self.value * pow(other.value, -1, self.p), self.p)

    def __rtruediv__(self, other: object) -> "Residue":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def __neg__(self) -> "Residue":
        return Residue(-self.value, self.p)

    def __pow__(self, k: int) -> "Residue":
        if k < 0 and self.value == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Residue(pow(self.value, k, self.p), self.p)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Residue):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __bool__(self) -> bool:
        return self.value != 0

    def __hash__(self) -> int:
        return hash((self.value, self.p))

    def __repr__(self) -> str:
        return f"{self.value} mod {self.p}"


class Rationals:
    """The field Q; scalars are `fractions.Fraction` values."""

    characteristic = 0
    spec = "q"

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, k: int) -> Fraction:
        return Fraction(k)

    def from_fraction(self, num: int, den: int) -> Fraction:
        return Fraction(num, den)

    def parts(self, s: Scalar | int) -> tuple[int, int]:
        """(numerator, denominator) of one int or Fraction, denominator >= 1."""
        try:
            return s.numerator, s.denominator
        except AttributeError:
            raise TypeError(f"{s!r} is not a rational scalar") from None

    def canon(self, num: dict[Hashable, int], den: int) -> tuple[dict, int]:
        """Drop zero numerators; for den > 1, divide out gcd(den, numerators).

        May return `num` itself: callers hand over a dict they no longer use.
        """
        if 0 in num.values():
            num = {k: c for k, c in num.items() if c}
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {k: c // g for k, c in num.items()}
        return num, den

    def split(self, values: dict[Hashable, Scalar | int]) -> tuple[dict, int]:
        """Canonical (numerators, denominator) of a map to scalars."""
        parts = {k: self.parts(c) for k, c in values.items() if c}
        den = lcm(*(d for _, d in parts.values()))
        return {k: c * (den // d) for k, (c, d) in parts.items()}, den

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("q")

    def __repr__(self) -> str:
        return "Rationals()"


class PrimeField:
    """The field F_p for a prime 5 <= p < 2^31; 2 and 3 are rejected first."""

    def __init__(self, p: int) -> None:
        if p in (2, 3):
            raise ValueError(f"characteristic {p} unsupported")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.spec = f"fp:{p}"

    def zero(self) -> Residue:
        return Residue(0, self.p)

    def one(self) -> Residue:
        return Residue(1, self.p)

    def from_int(self, k: int) -> Residue:
        return Residue(k, self.p)

    def from_fraction(self, num: int, den: int) -> Residue:
        if den != 1:
            if not den % self.p:
                raise ZeroDivisionError(f"division by zero in F_{self.p}")
            num *= pow(den, -1, self.p)
        return Residue(num, self.p)

    def parts(self, s: Scalar | int) -> tuple[int, int]:
        """(canonical residue, 1) of one scalar."""
        if isinstance(s, Residue):
            if s.p != self.p:
                raise ValueError(f"mixed moduli: {s.p} vs {self.p}")
            return s.value, 1
        try:
            num, den = s.numerator, s.denominator
        except AttributeError:
            raise TypeError(f"{s!r} is not a scalar of F_{self.p}") from None
        return self.from_fraction(num, den).value, 1

    def canon(self, num: dict[Hashable, int], den: int) -> tuple[dict, int]:
        """Numerators times den^-1, reduced mod p, zeros dropped; den 1."""
        p = self.p
        if den != 1:
            inv = pow(den, -1, p)
            num = {k: c * inv for k, c in num.items()}
        return {k: r for k, c in num.items() if (r := c % p)}, 1

    def split(self, values: dict[Hashable, Scalar | int]) -> tuple[dict, int]:
        """Canonical (residues, 1) of a map to scalars."""
        return self.canon({k: self.parts(c)[0] for k, c in values.items()}, 1)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("fp", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


Field = Union[Rationals, PrimeField]


def make_field(spec: str) -> Field:
    """Build a field from its run-configuration string: "q" or "fp:<p>",
    with p in ASCII decimal digits only (no sign, space or underscore)."""
    if spec == "q":
        return Rationals()
    digits = spec[3:]
    if not (spec.startswith("fp:") and digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad field spec {spec!r}")
    # int() refuses more than 4300 digits, and MAX_PRIME has 10
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(MAX_PRIME)):
        raise ValueError(f"a {len(digits)}-digit p exceeds the prime field bound 2^31 - 1")
    return PrimeField(int(digits))


def scalar_str(x: Scalar) -> str:
    """Canonical serialization: "p/q" style for Q, "r mod p" for F_p."""
    return str(x)
