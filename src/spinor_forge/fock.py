"""The spinor space S as a fermionic Fock model.

S has dimension 2^n with basis e_I.v indexed by subsets I of {1..n}, where
v is the vacuum spinor killed by every annihilation generator and e_I means
the creation generators applied in ascending index order.  Subsets are
stored as bitmasks: bit a-1 set iff a is in I.  Even-popcount masks span
the half-spinor space S_plus containing v, odd masks span S_minus.
"""

from __future__ import annotations

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


def mask_from_indices(indices) -> int:
    mask = 0
    for a in indices:
        mask |= 1 << (a - 1)
    return mask


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


class SpinorVec:
    """Sparse vector in S: a map from basis bitmask to nonzero coefficient.

    Values are immutable; all operations return fresh vectors.
    """

    __slots__ = ("config", "terms")

    def __init__(self, config: Config, terms: dict[int, Scalar]) -> None:
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "terms", {m: c for m, c in terms.items() if c})

    def __setattr__(self, name: str, val: object) -> None:
        raise AttributeError("SpinorVec is immutable")

    @classmethod
    def zero(cls, config: Config) -> "SpinorVec":
        return cls(config, {})

    @classmethod
    def basis(cls, config: Config, mask: int) -> "SpinorVec":
        if not 0 <= mask < config.size:
            raise ValueError(f"basis index {mask} out of range for n={config.n}")
        return cls(config, {mask: config.field.one()})

    @classmethod
    def vacuum(cls, config: Config) -> "SpinorVec":
        return cls.basis(config, 0)

    def items(self) -> Iterator[tuple[int, Scalar]]:
        """Terms in ascending mask order (deterministic exports)."""
        return iter(sorted(self.terms.items()))

    def get(self, mask: int) -> Scalar:
        return self.terms.get(mask, self.config.field.zero())

    def is_zero(self) -> bool:
        return not self.terms

    def parity(self) -> Optional[int]:
        """0 if the vector lies in S_plus, 1 if in S_minus, None if mixed."""
        parities = {parity(m) for m in self.terms}
        if len(parities) == 1:
            return parities.pop()
        return None

    def __add__(self, other: "SpinorVec") -> "SpinorVec":
        self.config.check_same(other.config)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            out[m] = c if s is None else s + c
        return SpinorVec(self.config, out)

    def __sub__(self, other: "SpinorVec") -> "SpinorVec":
        return self + (-other)

    def __neg__(self) -> "SpinorVec":
        return SpinorVec(self.config, {m: -c for m, c in self.terms.items()})

    def scale(self, s: Scalar) -> "SpinorVec":
        if not s:
            return SpinorVec.zero(self.config)
        return SpinorVec(self.config, {m: c * s for m, c in self.terms.items()})

    def __mul__(self, s: Scalar) -> "SpinorVec":
        return self.scale(s)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpinorVec):
            return NotImplemented
        return self.config == other.config and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.config, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " ".join(f"+ ({c}) {mask_str(m)}" for m, c in self.items())


def _apply_single(config: Config, emask: int, imask: int, psi: SpinorVec) -> SpinorVec:
    config.check_same(psi.config)
    out: dict[int, Scalar] = {}
    for mask, c in psi.terms.items():
        hit = apply_monomial(emask, imask, mask)
        if hit is None:
            continue
        sign, new = hit
        term = c if sign > 0 else -c
        s = out.get(new)
        out[new] = term if s is None else s + term
    return SpinorVec(config, out)


def create(a: int, psi: SpinorVec) -> SpinorVec:
    """Left multiplication by e_a.  Kills terms already containing a."""
    if not 1 <= a <= psi.config.n:
        raise ValueError(f"generator index {a} out of range for n={psi.config.n}")
    return _apply_single(psi.config, 1 << (a - 1), 0, psi)


def annihilate(a: int, psi: SpinorVec) -> SpinorVec:
    """Left multiplication by i_a.  Kills terms not containing a; i_a.v = 0."""
    if not 1 <= a <= psi.config.n:
        raise ValueError(f"generator index {a} out of range for n={psi.config.n}")
    return _apply_single(psi.config, 0, 1 << (a - 1), psi)


def epsilon_action(psi: SpinorVec) -> SpinorVec:
    """The grading element: +1 on S_plus, -1 on S_minus."""
    return SpinorVec(
        psi.config,
        {m: (c if not parity(m) else -c) for m, c in psi.terms.items()},
    )
