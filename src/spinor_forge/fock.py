"""The spinor space S as a fermionic Fock model.

S has dimension 2^n with basis e_I.v indexed by subsets I of {1..n}, where
v is the vacuum spinor killed by every annihilation generator and e_I means
the creation generators applied in ascending index order.  Subsets are
stored as bitmasks: bit a-1 set iff a is in I.  Even-popcount masks span
the half-spinor space S_plus containing v, odd masks span S_minus.

A spinor stores int numerators over one denominator, in the field's
canonical form (see `field`).  The moves `create` and `annihilate` work
on those ints; the public accessors return field scalars.
"""

from __future__ import annotations

from math import lcm
from typing import Iterator, Optional

from .field import Field, Rationals, Scalar


class Config:
    """Problem size: V has dimension 2n, S has dimension 2^n, over `field`."""

    __slots__ = ("n", "field", "size")

    def __init__(self, n: int, field: Optional[Field] = None) -> None:
        if not 1 <= n <= 12:
            raise ValueError(f"n must be in 1..12, got {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "field", field if field is not None else Rationals())
        object.__setattr__(self, "size", 1 << n)

    def __setattr__(self, name: str, val: object) -> None:
        raise AttributeError("Config is immutable")

    def __eq__(self, other: object) -> bool:
        return other is self or (
            isinstance(other, Config)
            and other.n == self.n
            and other.field == self.field
        )

    def __hash__(self) -> int:
        return hash((self.n, self.field))

    def __repr__(self) -> str:
        return f"Config(n={self.n}, field={self.field!r})"

    def check_same(self, other: "Config") -> None:
        if other is not self and self != other:
            raise ValueError(f"config mismatch: {self!r} vs {other!r}")


def mask_str(mask: int) -> str:
    """Subset printing: "{1,3}" with ascending elements, "{}" for the vacuum."""
    elems = [str(a + 1) for a in range(mask.bit_length()) if (mask >> a) & 1]
    return "{" + ",".join(elems) + "}"


def parity(mask: int) -> int:
    return mask.bit_count() & 1


def prefix_parity(mask: int) -> int:
    """Bit x holds the parity of the bits of `mask` below x (mask < 2^32)."""
    mask ^= mask << 1
    mask ^= mask << 2
    mask ^= mask << 4
    mask ^= mask << 8
    mask ^= mask << 16
    return mask << 1


def inversion_parity(low: int, high: int) -> int:
    """#{x in low, y in high : y < x} mod 2.

    The sign of reordering a product of anticommuting factors, `low`'s
    block then `high`'s, into one ascending block.  The prefix XOR of
    `high`, shifted up one place, holds at bit x the parity of the bits of
    `high` below x; popcount against `low` sums them.
    """
    return (low & prefix_parity(high)).bit_count() & 1


def apply_monomial(emask: int, imask: int, mask: int) -> Optional[tuple[int, int]]:
    """Apply the normal-ordered generator word e_A i_B to the basis index `mask`.

    Generators act right to left: the i factors in descending index order,
    then the e factors in descending index order.  Each single move on e_I.v
    carries the sign (-1)^#{b in I : b < a}; a repeated creation or an
    annihilation of an absent index kills the term.  Taken in descending
    order, each move sees only the original bits below it, so the word
    sends M to (M - B) u A with sign (-1)^(inv(B, M) + inv(A, M - B)).
    Returns (sign, new mask) or None when the result is zero.
    """
    rest = mask ^ imask
    if imask & ~mask or emask & rest:
        return None
    odd = inversion_parity(imask, mask) ^ inversion_parity(emask, rest)
    return (-1 if odd else 1, rest | emask)


class SparseTerms:
    """Sparse map from a bitmask key to a nonzero field scalar.

    The one storage of spinors and Clifford elements: int numerators keyed
    by mask (`_num`) over one denominator (`_den`), in the field's canonical
    form (see `field`), so equal values compare and hash equal whatever
    denominators built them.  The kernels read `_num` and `_den` and build
    their results with `_make`; every public accessor returns field
    scalars.  Values are immutable; all operations return fresh values.
    """

    __slots__ = ("config", "_num", "_den")

    def __init__(self, config: Config, terms: dict) -> None:
        for key in terms:
            self._check_key(config, key)
        num, den = config.field.split(terms)
        _set_config(self, config)
        _set_num(self, num)
        _set_den(self, den)

    @staticmethod
    def _check_key(config: Config, key) -> None:
        """Raise ValueError unless `key` is a valid key at `config`."""
        raise NotImplementedError

    @staticmethod
    def _key_str(key) -> str:
        raise NotImplementedError

    @classmethod
    def _make(cls, config: Config, num: dict, den: int = 1):
        """The value num / den, brought to canonical form; keys unchecked.

        Takes over `num`: callers pass a dict they no longer use.
        """
        self = object.__new__(cls)
        num, den = config.field.canon(num, den)
        _set_config(self, config)
        _set_num(self, num)
        _set_den(self, den)
        return self

    def __setattr__(self, name: str, val: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, config: Config):
        return cls._make(config, {})

    @property
    def terms(self) -> dict:
        """A fresh map from key to nonzero field scalar."""
        from_fraction, den = self.config.field.from_fraction, self._den
        return {k: from_fraction(c, den) for k, c in self._num.items()}

    def items(self) -> Iterator[tuple]:
        """Terms in ascending key order (deterministic exports)."""
        return iter(sorted(self.terms.items()))

    def get(self, key) -> Scalar:
        return self.config.field.from_fraction(self._num.get(key, 0), self._den)

    def is_zero(self) -> bool:
        return not self._num

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self.config.check_same(other.config)
        xs, xden, ys, yden = self._num, self._den, other._num, other._den
        if xden == yden:
            num = dict(xs)
            for k, c in ys.items():
                num[k] = num.get(k, 0) + c
            return self._make(self.config, num, xden)
        den = lcm(xden, yden)
        fx, fy = den // xden, den // yden
        num = {k: c * fx for k, c in xs.items()}
        for k, c in ys.items():
            num[k] = num.get(k, 0) + c * fy
        return self._make(self.config, num, den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._make(self.config, {k: -c for k, c in self._num.items()}, self._den)

    def scale(self, s: Scalar):
        num, den = self.config.field.parts(s)
        return self._make(
            self.config, {k: c * num for k, c in self._num.items()}, self._den * den
        )

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.config == other.config
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self) -> int:
        return hash((self.config, self._den, tuple(sorted(self._num.items()))))

    def __repr__(self) -> str:
        if not self._num:
            return "0"
        return " ".join(f"+ ({c}) {self._key_str(k)}" for k, c in self.items())


# Slot setters that bypass the immutability guard, for the constructors.
_set_config = SparseTerms.config.__set__
_set_num = SparseTerms._num.__set__
_set_den = SparseTerms._den.__set__


class SpinorVec(SparseTerms):
    """Sparse vector in S: a map from basis bitmask to nonzero coefficient."""

    __slots__ = ()

    @staticmethod
    def _check_key(config: Config, mask: int) -> None:
        if not 0 <= mask < config.size:
            raise ValueError(f"basis index {mask} out of range for n={config.n}")

    _key_str = staticmethod(mask_str)

    @classmethod
    def basis(cls, config: Config, mask: int) -> "SpinorVec":
        cls._check_key(config, mask)
        return cls._make(config, {mask: 1})

    @classmethod
    def vacuum(cls, config: Config) -> "SpinorVec":
        return cls.basis(config, 0)

    def __mul__(self, s: Scalar) -> "SpinorVec":
        return self.scale(s)

    __rmul__ = __mul__


def _apply_words(config: Config, words: dict, den: int, psi: SpinorVec) -> SpinorVec:
    """The element with Witt-word numerators words / den applied to psi,
    each word e_A i_B moving each term of psi by apply_monomial."""
    config.check_same(psi.config)
    out: dict[int, int] = {}
    for (emask, imask), c in words.items():
        for mask, cm in psi._num.items():
            hit = apply_monomial(emask, imask, mask)
            if hit is not None:
                sign, new = hit
                out[new] = out.get(new, 0) + (c * cm if sign > 0 else -(c * cm))
    return SpinorVec._make(config, out, den * psi._den)


def create(a: int, psi: SpinorVec) -> SpinorVec:
    """Left multiplication by e_a.  Kills terms already containing a."""
    if not 1 <= a <= psi.config.n:
        raise ValueError(f"generator index {a} out of range for n={psi.config.n}")
    return _apply_words(psi.config, {(1 << (a - 1), 0): 1}, 1, psi)


def annihilate(a: int, psi: SpinorVec) -> SpinorVec:
    """Left multiplication by i_a.  Kills terms not containing a; i_a.v = 0."""
    if not 1 <= a <= psi.config.n:
        raise ValueError(f"generator index {a} out of range for n={psi.config.n}")
    return _apply_words(psi.config, {(0, 1 << (a - 1)): 1}, 1, psi)
