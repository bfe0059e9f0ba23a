"""The Clifford algebra of a 2n-dimensional hyperbolic space, in a Witt basis.

The generators split into n creation generators e_a and n annihilation
generators i_a subject to

    e_a e_b + e_b e_a = 0,
    i_a i_b + i_b i_a = 0,
    i_a e_b + e_b i_a = delta_ab.

Normal-ordered monomials e_A i_B (all e factors left of all i factors,
ascending indices inside each block) form a basis of the 4^n-dimensional
algebra; elements are sparse maps from the bitmask pair (emask, imask) to a
nonzero scalar.  The algebra acts faithfully on the 2^n-dimensional Fock
space, which is how the trace and all endomorphism questions are resolved.

The kernels work on the masks with integer signs.  The product of two
monomials is Wick's theorem in closed form (see `multiply`): contracting
i_B against e_C over each subset S of B n C leaves one signed monomial,
whose sign is a sum of popcount parities.  `to_blades` expands a monomial
with integer coefficients and scales once, and `_blade_terms` expands an
orthonormal blade back into monomials block by block.

An orthonormal basis is derived from the Witt basis by E_{2a-1} = e_a + i_a
(square +1) and E_{2a} = e_a - i_a (square -1).  Internally these 2n vectors
are numbered by slots 0..2n-1 in that interleaved order, so ascending slots
match the ordered orthonormal basis used by the grade projection.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Optional, Union

from .field import Scalar
from .fock import Config, SpinorVec, apply_monomial, inversion_parity, prefix_parity

Monomial = tuple[int, int]


def monomial_str(mono: Monomial) -> str:
    emask, imask = mono
    if not emask and not imask:
        return "1"
    tokens = [f"e{a + 1}" for a in range(emask.bit_length()) if (emask >> a) & 1]
    tokens += [f"i{a + 1}" for a in range(imask.bit_length()) if (imask >> a) & 1]
    return " ".join(tokens)


class CliffordElem:
    """Sparse element: map from normal-ordered monomial to nonzero scalar."""

    __slots__ = ("config", "terms")

    def __init__(self, config: Config, terms: dict[Monomial, Scalar]) -> None:
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "terms", {m: c for m, c in terms.items() if c})

    def __setattr__(self, name: str, val: object) -> None:
        raise AttributeError("CliffordElem is immutable")

    @classmethod
    def zero(cls, config: Config) -> "CliffordElem":
        return cls(config, {})

    @classmethod
    def one(cls, config: Config) -> "CliffordElem":
        return cls(config, {(0, 0): config.field.one()})

    @classmethod
    def monomial(
        cls, config: Config, emask: int, imask: int, coeff: Optional[Scalar] = None
    ) -> "CliffordElem":
        if emask >= config.size or imask >= config.size:
            raise ValueError(f"monomial masks out of range for n={config.n}")
        return cls(config, {(emask, imask): coeff if coeff is not None else config.field.one()})

    def items(self) -> Iterator[tuple[Monomial, Scalar]]:
        """Terms in canonical (emask, imask) order."""
        return iter(sorted(self.terms.items()))

    def get(self, mono: Monomial) -> Scalar:
        return self.terms.get(mono, self.config.field.zero())

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "CliffordElem") -> "CliffordElem":
        self.config.check_same(other.config)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            out[m] = c if s is None else s + c
        return CliffordElem(self.config, out)

    def __sub__(self, other: "CliffordElem") -> "CliffordElem":
        return self + (-other)

    def __neg__(self) -> "CliffordElem":
        return CliffordElem(self.config, {m: -c for m, c in self.terms.items()})

    def scale(self, s: Scalar) -> "CliffordElem":
        if not s:
            return CliffordElem.zero(self.config)
        return CliffordElem(self.config, {m: c * s for m, c in self.terms.items()})

    def __mul__(self, other: Union["CliffordElem", Scalar, int]) -> "CliffordElem":
        if isinstance(other, CliffordElem):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other: Union[Scalar, int]) -> "CliffordElem":
        return self.scale(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CliffordElem):
            return NotImplemented
        return self.config == other.config and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.config, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " ".join(f"+ ({c}) {monomial_str(m)}" for m, c in self.items())


@lru_cache(maxsize=None)
def witt_e(config: Config, a: int) -> CliffordElem:
    if not 1 <= a <= config.n:
        raise ValueError(f"generator index {a} out of range for n={config.n}")
    return CliffordElem.monomial(config, 1 << (a - 1), 0)


@lru_cache(maxsize=None)
def witt_i(config: Config, a: int) -> CliffordElem:
    if not 1 <= a <= config.n:
        raise ValueError(f"generator index {a} out of range for n={config.n}")
    return CliffordElem.monomial(config, 0, 1 << (a - 1))


def multiply(x: CliffordElem, y: CliffordElem) -> CliffordElem:
    """The Clifford product, renormalized to the e_A i_B monomial basis.

    Wick's theorem in closed form.  For an x-term c_x e_A i_B and a
    y-term c_y e_C i_D, each subset S of B n C (the i factors contracted
    against matching e factors) gives, with B' = B - S and C' = C - S,

        (-1)^sigma c_x c_y e_{A u C'} i_{B' u D},

    which vanishes when A n C' or B' n D is nonempty, where

        sigma = |B'||C'| + C(|S|, 2) + inv(B', S) + inv(S, C')
              + inv(A, C') + inv(B', D)

    and inv(L, H) = #{x in L, y in H : y < x} (`inversion_parity`).  The
    first four terms normal-order i_B e_C, the last two merge the e and i
    blocks.  inv(A, C') is computed as inv(A, C) + inv(A, S), so with the
    prefix parities of C and D taken once per y-term, the common case
    B n C = {} (only S = {}) costs four popcounts.
    """
    x.config.check_same(y.config)
    ys = [
        (c, d, prefix_parity(c), prefix_parity(d), cy)
        for (c, d), cy in y.terms.items()
    ]
    acc: dict[Monomial, Scalar] = {}
    for (amask, bmask), cx in x.terms.items():
        for cmask, dmask, pc, pd, cy in ys:
            both = sub = bmask & cmask
            while True:
                b_rest, c_rest = bmask ^ sub, cmask ^ sub
                if not (amask & c_rest or b_rest & dmask):
                    sigma = (
                        b_rest.bit_count() * c_rest.bit_count()
                        + (amask & pc).bit_count()
                        + (b_rest & pd).bit_count()
                    )
                    if sub:
                        k = sub.bit_count()
                        sigma += (
                            (k * (k - 1) >> 1)
                            + inversion_parity(b_rest, sub)
                            + inversion_parity(sub, c_rest)
                            + inversion_parity(amask, sub)
                        )
                    key = (amask | c_rest, b_rest | dmask)
                    term = -(cx * cy) if sigma & 1 else cx * cy
                    prev = acc.get(key)
                    acc[key] = term if prev is None else prev + term
                if not sub:
                    break
                sub = (sub - 1) & both
    return CliffordElem(x.config, acc)


def act(x: CliffordElem, psi: SpinorVec) -> SpinorVec:
    """Apply x to a spinor: each monomial is the composite of the fock
    creation/annihilation moves in the monomial's written order."""
    x.config.check_same(psi.config)
    out: dict[int, Scalar] = {}
    for (emask, imask), c in x.terms.items():
        for mask, cm in psi.terms.items():
            hit = apply_monomial(emask, imask, mask)
            if hit is None:
                continue
            sign, new = hit
            term = c * cm
            if sign < 0:
                term = -term
            prev = out.get(new)
            out[new] = term if prev is None else prev + term
    return SpinorVec(x.config, out)


def commutator(x: CliffordElem, y: CliffordElem) -> CliffordElem:
    return multiply(x, y) - multiply(y, x)


def transpose(x: CliffordElem) -> CliffordElem:
    """The anti-automorphism extending the identity on V.

    Reversing e_A i_B gives the word i_B-reversed e_A-reversed; reversing
    inside a block of p anticommuting generators costs (-1)^(p(p-1)/2),
    after which the i...e word is renormal-ordered by multiplication.
    """
    config = x.config
    acc: dict[Monomial, Scalar] = {}
    for (emask, imask), c in x.terms.items():
        p, q = emask.bit_count(), imask.bit_count()
        sign = -1 if ((p * (p - 1) // 2) + (q * (q - 1) // 2)) & 1 else 1
        prod = multiply(
            CliffordElem.monomial(config, 0, imask),
            CliffordElem.monomial(config, emask, 0),
        )
        coeff = c if sign > 0 else -c
        for mono, cp in prod.terms.items():
            term = cp * coeff
            prev = acc.get(mono)
            acc[mono] = term if prev is None else prev + term
    return CliffordElem(config, acc)


def trace(x: CliffordElem) -> Scalar:
    """Trace of the Fock action.  Off-diagonal monomials (emask != imask)
    move every basis vector, so only diagonal monomials contribute; their
    constant diagonal entry is read off from one action call and weighted
    by the 2^(n-|A|) basis vectors containing A."""
    config = x.config
    total = config.field.zero()
    for (emask, imask), c in x.terms.items():
        if emask != imask:
            continue
        sign, new = apply_monomial(emask, imask, emask)
        if new != emask:
            raise AssertionError("diagonal monomial moved its own basis vector")
        count = config.field.from_int(sign * (1 << (config.n - emask.bit_count())))
        total = total + c * count
    return total


# Orthonormal slots: slot 2(a-1) is e_a + i_a with square +1, slot 2a-1 is
# e_a - i_a with square -1; ascending slots give the ordered basis.


_ODD_SLOTS = 0xAAAAAA  # slots 1, 3, ..., 23: the vectors of square -1


def slot_metric(slot: int) -> int:
    return -1 if slot & 1 else 1


def slot_str(slot: int) -> str:
    a = slot // 2 + 1
    return f"E{a}~" if slot & 1 else f"E{a}"


@lru_cache(maxsize=None)
def orthonormal_vector(config: Config, slot: int) -> CliffordElem:
    if not 0 <= slot < 2 * config.n:
        raise ValueError(f"slot {slot} out of range for n={config.n}")
    a = slot // 2 + 1
    if slot & 1:
        return witt_e(config, a) - witt_i(config, a)
    return witt_e(config, a) + witt_i(config, a)


def q_map(config: Config, slots: tuple[int, ...] | list[int]) -> CliffordElem:
    """Clifford product of strictly ascending orthonormal basis vectors.

    For orthogonal arguments the exterior-to-Clifford quantization is the
    plain product, so these products are exactly the grade-k basis.
    """
    slots = tuple(slots)
    for s in slots:
        if not 0 <= s < 2 * config.n:
            raise ValueError(f"slot {s} out of range for n={config.n}")
    if any(s2 <= s1 for s1, s2 in zip(slots, slots[1:])):
        raise ValueError(f"slots must be strictly ascending, got {slots}")
    out = CliffordElem.one(config)
    for s in slots:
        out = multiply(out, orthonormal_vector(config, s))
    return out


def blade_mul(m1: int, m2: int) -> tuple[int, int]:
    """Product of two orthonormal blades: (coefficient, blade mask).

    Each pair of slots out of order costs a sign, and each shared slot
    contracts to its metric, -1 on the odd slots.
    """
    odd = inversion_parity(m1, m2) + (m1 & m2 & _ODD_SLOTS).bit_count()
    return (-1 if odd & 1 else 1), m1 ^ m2


def to_blades(x: CliffordElem) -> dict[int, Scalar]:
    """Coordinates of x in the orthonormal blade basis.

    Each Witt generator is half a sum or difference of two orthonormal
    vectors: e_a = (E + E~)/2 and i_a = (E - E~)/2 at block a.  A monomial
    with k generators expands to 2^k signed blade products with integer
    coefficients, which are scaled once by c/2^k.
    """
    field = x.config.field
    out: dict[int, Scalar] = {}
    for (emask, imask), c in x.terms.items():
        factors = [(b, False) for b in range(emask.bit_length()) if (emask >> b) & 1]
        factors += [(b, True) for b in range(imask.bit_length()) if (imask >> b) & 1]
        acc: dict[int, int] = {0: 1}
        for bit, is_i in factors:
            nxt: dict[int, int] = {}
            for bmask, cb in acc.items():
                for slot, odd in ((2 * bit, False), (2 * bit + 1, is_i)):
                    # E_slot passes the blade's higher slots; on a repeat it
                    # contracts to its metric, -1 on an odd slot
                    odd += (bmask >> (slot + 1)).bit_count()
                    odd += bmask >> slot & slot & 1
                    new = bmask ^ (1 << slot)
                    nxt[new] = nxt.get(new, 0) + (-cb if odd & 1 else cb)
            acc = {m: cb for m, cb in nxt.items() if cb}
        scale = c * field.from_fraction(1, 1 << len(factors))
        for bmask, cb in acc.items():
            term = scale * cb
            prev = out.get(bmask)
            out[bmask] = term if prev is None else prev + term
    return {m: cb for m, cb in out.items() if cb}


def _blade_terms(bmask: int) -> dict[Monomial, int]:
    """Integer Witt coordinates of the ascending orthonormal blade `bmask`.

    The blade is the product of its block words in ascending block order:
    E = e_a + i_a, E~ = e_a - i_a, and E E~ = 1 - 2 e_a i_a when both
    slots of block a are present.  Choosing one Witt term per block gives
    the word e_A i_B with its e and i factors interleaved by block;
    normal-ordering it passes each e_y over the i_x with x < y, which
    costs (-1)^inv(A, B).
    """
    terms: dict[Monomial, int] = {(0, 0): 1}
    for a in range((bmask.bit_length() + 1) >> 1):
        pair = (bmask >> (2 * a)) & 3
        if not pair:
            continue
        bit = 1 << a
        nxt: dict[Monomial, int] = {}
        for (emask, imask), c in terms.items():
            if pair == 3:
                nxt[(emask, imask)] = c
                nxt[(emask | bit, imask | bit)] = -2 * c
            else:
                nxt[(emask | bit, imask)] = c
                nxt[(emask, imask | bit)] = -c if pair == 2 else c
        terms = nxt
    return {
        (emask, imask): -c if inversion_parity(emask, imask) else c
        for (emask, imask), c in terms.items()
    }


def blade_to_elem(config: Config, bmask: int) -> CliffordElem:
    """The orthonormal blade `bmask` (bit s set for slot s) as an element.

    Equal to q_map of its ascending slots, expanded in closed form by
    `_blade_terms` instead of as a product of vectors.
    """
    if not 0 <= bmask < 1 << (2 * config.n):
        raise ValueError(f"blade mask {bmask} out of range for n={config.n}")
    field = config.field
    return CliffordElem(
        config, {mono: field.from_int(c) for mono, c in _blade_terms(bmask).items()}
    )


def _project(config: Config, blades: dict[int, Scalar], k: int) -> CliffordElem:
    """The grade-k part of the element with blade coordinates `blades`.

    Every blade passed in has grade k.  The orthonormal trace formula's
    factors are evaluated per blade, and each blade is expanded once by
    `_blade_terms` into one accumulator.
    """
    field = config.field
    inv_dim = field.from_fraction(1, config.size)
    rev_sign = -1 if (k * (k - 1) // 2) & 1 else 1
    acc: dict[Monomial, Scalar] = {}
    for bmask, cb in blades.items():
        gpref = -1 if (bmask & _ODD_SLOTS).bit_count() & 1 else 1
        square_coeff, _ = blade_mul(bmask, bmask)
        tr = cb * field.from_int(rev_sign * square_coeff * config.size)
        scalar = inv_dim * field.from_int(gpref) * tr
        for mono, c in _blade_terms(bmask).items():
            term = scalar * c
            prev = acc.get(mono)
            acc[mono] = term if prev is None else prev + term
    return CliffordElem(config, acc)


def grade_project(x: CliffordElem, k: int) -> CliffordElem:
    """Projection onto grade k via the orthonormal trace formula.

    For the ordered basis the formula reads, summed over ascending index
    combinations of size k,

        (1/2^n) g(E_1,E_1)...g(E_k,E_k) Tr(E_k...E_1 x) E_1...E_k.

    The trace factor vanishes unless the blade coordinates of x meet the
    combination, so the sum runs over the grade-k blades of one
    `to_blades(x)`; every sign and metric factor of the formula is
    evaluated literally, and each kept blade is expanded once in closed
    form.  The cost is the blade expansion of x's own terms, so every n
    that `Config` accepts is accepted.  Completeness (the projections sum
    to x) is the independent crosscheck.
    """
    config = x.config
    if not 0 <= k <= 2 * config.n:
        raise ValueError(f"grade {k} out of range for n={config.n}")
    blades = {m: cb for m, cb in to_blades(x).items() if m.bit_count() == k}
    return _project(config, blades, k)


def grade_projections(x: CliffordElem) -> list[CliffordElem]:
    """[grade_project(x, k) for k in 0..2n] from one `to_blades(x)`."""
    config = x.config
    by_grade: list[dict[int, Scalar]] = [{} for _ in range(2 * config.n + 1)]
    for bmask, cb in to_blades(x).items():
        by_grade[bmask.bit_count()][bmask] = cb
    return [_project(config, blades, k) for k, blades in enumerate(by_grade)]


@lru_cache(maxsize=None)
def grading_element(config: Config) -> CliffordElem:
    """The product (i_1 - e_1)(i_1 + e_1)...(i_n - e_n)(i_n + e_n).

    Acts as +1 on S_plus and -1 on S_minus, squares to 1, and is the
    top-grade volume element of the ordered orthonormal basis.
    """
    out = CliffordElem.one(config)
    for a in range(1, config.n + 1):
        out = multiply(out, witt_i(config, a) - witt_e(config, a))
        out = multiply(out, witt_i(config, a) + witt_e(config, a))
    return out


@lru_cache(maxsize=None)
def h_operator(config: Config) -> CliffordElem:
    """The grade-2 element (1/2) sum_a (e_a i_a - i_a e_a), the particle
    number shifted by -n/2."""
    half = config.field.from_fraction(1, 2)
    out = CliffordElem.zero(config)
    for a in range(1, config.n + 1):
        ea, ia = witt_e(config, a), witt_i(config, a)
        out = out + (multiply(ea, ia) - multiply(ia, ea)).scale(half)
    return out


def to_endomorphism_matrix(x: CliffordElem) -> list[list[Scalar]]:
    """Dense matrix of the Fock action: M[row][col] is the coefficient of
    basis vector `row` in x applied to basis vector `col`."""
    config = x.config
    zero = config.field.zero()
    size = config.size
    mat = [[zero] * size for _ in range(size)]
    for col in range(size):
        image = act(x, SpinorVec.basis(config, col))
        for row, c in image.terms.items():
            mat[row][col] = c
    return mat
