"""Exact scalar arithmetic over the rationals and over prime fields F_p.

Downstream equality checks are exact, never approximate, so scalars are
either `fractions.Fraction` (characteristic 0) or `Residue` instances
(characteristic p with p prime, p not in {2, 3}).  The two kinds never mix:
mixing residues of different moduli raises ValueError, mixing a Residue
with a Fraction raises TypeError through the normal operator protocol.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, "Residue"]

# Deterministic Miller-Rabin witness set, valid for all m < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    for q in _MR_WITNESSES:
        if m % q == 0:
            return m == q
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


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

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("q")

    def __repr__(self) -> str:
        return "Rationals()"


class PrimeField:
    """The field F_p.  Characteristic 2 and 3 are rejected outright."""

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
        return Residue(num, self.p) / Residue(den, self.p)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("fp", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


Field = Union[Rationals, PrimeField]


def make_field(spec: str) -> Field:
    """Build a field from its run-configuration string: "q" or "fp:<p>"."""
    if spec == "q":
        return Rationals()
    if spec.startswith("fp:"):
        try:
            p = int(spec[3:])
        except ValueError:
            raise ValueError(f"bad field spec {spec!r}") from None
        return PrimeField(p)
    raise ValueError(f"bad field spec {spec!r}")


def scalar_str(x: Scalar) -> str:
    """Canonical serialization: "p/q" style for Q, "r mod p" for F_p."""
    return str(x)


def parse_scalar(s: str, field: Field) -> Scalar:
    if isinstance(field, Rationals):
        return Fraction(s)
    value, sep, p = s.partition(" mod ")
    if not sep or int(p) != field.p:
        raise ValueError(f"cannot parse {s!r} as an element of {field!r}")
    return Residue(int(value), field.p)
