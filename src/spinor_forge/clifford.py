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

An element stores int numerators over one denominator (see `field`);
the kernels compute on those ints alone, with integer signs on the
masks, build each result through one private constructor that brings it
to canonical form, and turn numbers into field scalars only at the
public boundary (`terms`, `get`, `items`, the returned traces).  The
product of two monomials is Wick's theorem in closed form, and one walk,
`_wick`, writes it: contracting i_B against e_C over each subset S of
B n C leaves one signed monomial, whose sign is a sum of popcount
parities, and the walk visits only the subsets whose monomial survives.
`multiply` and `commutator` run it on all term pairs.

The trace form and the transpose never build a product.  With
u_a = 2 e_a i_a - 1 = e_a i_a - i_a e_a, each plane span(e_a, i_a) of V
has the algebra basis {1, e_a, i_a, u_a}, and products of one basis
element per plane (the plane terms e_A0 i_B0 u_T, A0, B0 and T
disjoint) span the algebra.  On one plane the trace pairs 1 with 1 and
u_a with u_a (trace 2 each), e_a with i_a (trace 1), and nothing else,
since e_a, i_a and u_a are traceless; so e_A0 i_B0 u_T pairs only with
its dual e_B0 i_A0 u_T, one dict lookup in `trace_rows`.  The transpose
sends u_a to -u_a, so on e_A i_B it is a sign per subset of A n B.
`vector_commutators` gives [x, E_s] for an even x and every orthonormal
vector in closed form, one pass over the terms, with `commutator` as
its test oracle.  `_blade_terms`, the one blade constructor, expands an
orthonormal blade into monomials block by block: `q_map` and
`grading_element` (the top blade) build their blades from it, and the
tests keep the vector-by-vector products as its oracle.  The grade
projections never leave the Witt basis: V is the orthogonal sum of the
planes span(e_a, i_a), so grades add over blocks, and
`grade_projections` splits each e_a i_a of a term as
(e_a i_a - 1/2) + 1/2, into grades 2 and 0.

An orthonormal basis is derived from the Witt basis by E_{2a-1} = e_a + i_a
(square +1) and E_{2a} = e_a - i_a (square -1).  Internally these 2n vectors
are numbered by slots 0..2n-1 in that interleaved order, so ascending slots
match the ordered orthonormal basis of `q_map`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import comb
from typing import Iterable, Iterator, Optional, Union

from .field import Scalar
from .fock import (
    Config,
    SparseTerms,
    SpinorVec,
    _apply_words,
    inversion_parity,
    prefix_parity,
)

Monomial = tuple[int, int]


def monomial_str(mono: Monomial) -> str:
    emask, imask = mono
    if not emask and not imask:
        return "1"
    tokens = [f"e{a + 1}" for a in range(emask.bit_length()) if (emask >> a) & 1]
    tokens += [f"i{a + 1}" for a in range(imask.bit_length()) if (imask >> a) & 1]
    return " ".join(tokens)


class CliffordElem(SparseTerms):
    """Sparse element: map from normal-ordered monomial to nonzero scalar."""

    __slots__ = ()

    @staticmethod
    def _check_key(config: Config, mono: Monomial) -> None:
        emask, imask = mono
        if not (0 <= emask < config.size and 0 <= imask < config.size):
            raise ValueError(
                f"monomial masks ({emask}, {imask}) out of range for n={config.n}"
            )

    _key_str = staticmethod(monomial_str)

    @classmethod
    def one(cls, config: Config) -> "CliffordElem":
        return cls._make(config, {(0, 0): 1})

    @classmethod
    def monomial(
        cls, config: Config, emask: int, imask: int, coeff: Optional[Scalar] = None
    ) -> "CliffordElem":
        if coeff is not None:
            return cls(config, {(emask, imask): coeff})
        cls._check_key(config, (emask, imask))
        return cls._make(config, {(emask, imask): 1})

    def __mul__(self, other: Union["CliffordElem", Scalar, int]) -> "CliffordElem":
        if isinstance(other, CliffordElem):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other: Union[Scalar, int]) -> "CliffordElem":
        return self.scale(other)


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


def _y_terms(ys: dict[Monomial, int]) -> list[tuple[int, ...]]:
    """(C, D, prefix parities of C and D, c_y) for each term c_y e_C i_D."""
    return [(c, d, prefix_parity(c), prefix_parity(d), v) for (c, d), v in ys.items()]


def _wick(acc: dict[Monomial, int], rows: Iterable, flip: int) -> None:
    """acc += (-1)^flip times the sum, over the rows (x-term, y-terms), of
    the products of the x-term ((A, B), c_x) with each of its y-terms (see
    `_y_terms`).

    Wick's theorem in closed form, and the one walk over its contractions;
    its two callers are `multiply` and `commutator` (`transpose` and
    `trace_rows` need no product).  For an x-term c_x e_A i_B and a
    y-term c_y e_C i_D, each subset S of B n C (the i factors contracted
    against matching e factors) gives, with B' = B - S and C' = C - S,

        (-1)^sigma c_x c_y e_{A u C'} i_{B' u D},

    which vanishes when A n C' or B' n D is nonempty, where

        sigma = |B'||C'| + C(|S|, 2) + inv(B', S) + inv(S, C')
              + inv(A, C') + inv(B', D)

    and inv(L, H) = #{x in L, y in H : y < x} (`inversion_parity`).  The
    first four terms normal-order i_B e_C, the last two merge the e and i
    blocks.  inv(A, C') is computed as inv(A, C) + inv(A, S), so the
    common case B n C = {} (only S = {}) costs four popcounts.

    A contraction survives iff S contains forced = (A n C) u (B n D), so
    none does unless forced lies in B n C; then exactly the sets forced u P,
    for each subset P of free = (B n C) - forced, survive, and only those
    are walked.
    """
    for ((amask, bmask), cx), ys in rows:
        for cmask, dmask, pc, pd, cy in ys:
            both = bmask & cmask
            forced = (amask & cmask) | (bmask & dmask)
            if forced & ~both:
                continue
            free = part = both ^ forced
            while True:
                sub = forced | part
                b_rest, c_rest = bmask ^ sub, cmask ^ sub
                sigma = (
                    flip
                    + b_rest.bit_count() * c_rest.bit_count()
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
                acc[key] = acc.get(key, 0) + term
                if not part:
                    break
                part = (part - 1) & free


def multiply(x: CliffordElem, y: CliffordElem) -> CliffordElem:
    """The Clifford product, renormalized to the e_A i_B monomial basis.

    Wick's theorem in closed form on the int numerators (see `_wick`);
    the denominators multiply.
    """
    x.config.check_same(y.config)
    acc: dict[Monomial, int] = {}
    _wick(acc, zip(x._num.items(), repeat(_y_terms(y._num))), 0)
    return CliffordElem._make(x.config, acc, x._den * y._den)


def commutator(x: CliffordElem, y: CliffordElem) -> CliffordElem:
    """xy - yx, both Wick products summed into one accumulator."""
    x.config.check_same(y.config)
    acc: dict[Monomial, int] = {}
    _wick(acc, zip(x._num.items(), repeat(_y_terms(y._num))), 0)
    _wick(acc, zip(y._num.items(), repeat(_y_terms(x._num))), 1)
    return CliffordElem._make(x.config, acc, x._den * y._den)


def vector_commutators(x: CliffordElem) -> dict[int, dict[Monomial, int]]:
    """[x, E_s] for an even element x and every slot s at once, as
    {s: numerators} over x's denominator, one contraction per term and bit.

    E_s = e_a + i_a (even slot) or e_a - i_a (odd slot).  For an even
    monomial the uncontracted parts of the two products cancel, leaving

        [e_A i_B, e_c] =  [c in B] (-1)^#{b in B : b > c} e_A i_{B - c},
        [e_A i_B, i_c] = -[c in A] (-1)^#{a in A : a < c} e_{A - c} i_B,

    so both slots of mode c take the first term and the odd one negates
    the second.  `commutator(x, orthonormal_vector(config, s))` is the
    oracle.  Raises ValueError for an odd term.
    """
    rows: dict[int, dict[Monomial, int]] = {}
    for (emask, imask), c in x._num.items():
        if (emask.bit_count() + imask.bit_count()) & 1:
            raise ValueError("vector_commutators expects an even element")
        both = emask | imask
        while both:
            bit = both & -both
            both ^= bit
            mode = bit.bit_length() - 1
            even = rows.setdefault(2 * mode, {})
            odd = rows.setdefault(2 * mode + 1, {})
            if imask & bit:
                key = (emask, imask ^ bit)
                v = -c if (imask >> (mode + 1)).bit_count() & 1 else c
                even[key] = even.get(key, 0) + v
                odd[key] = odd.get(key, 0) + v
            if emask & bit:
                key = (emask ^ bit, imask)
                v = c if (emask & (bit - 1)).bit_count() & 1 else -c
                even[key] = even.get(key, 0) + v
                odd[key] = odd.get(key, 0) - v
    return rows


def act(x: CliffordElem, psi: SpinorVec) -> SpinorVec:
    """Apply x to a spinor: each monomial is the composite of the fock
    creation/annihilation moves in the monomial's written order."""
    return _apply_words(x.config, x._num, x._den, psi)


def _diag_keys(amask: int, bmask: int) -> list[Monomial]:
    """The keys (A0 u S, B0 u S) over the subsets S of D = A n B, with
    A0 = A - D and B0 = B - D, built block by block; S = {} comes first."""
    diag = amask & bmask
    keys = [(amask ^ diag, bmask ^ diag)]
    for a in range(diag.bit_length()):
        if (diag >> a) & 1:
            bit = 1 << a
            keys += [(emask | bit, imask | bit) for emask, imask in keys]
    return keys


def transpose(x: CliffordElem) -> CliffordElem:
    """The anti-automorphism extending the identity on V, in closed form.

    A term c e_A i_B is (-1)^inv(A, B) c times its block word: e_a, i_a,
    or e_d i_d for d in D = A n B.  Reversal costs (-1)^C(m, 2) on the
    m = |A ^ B| one-generator blocks and sends e_d i_d to 1 - e_d i_d, so
    the term goes to the sum over S in D (`_diag_keys`) of
    (-1)^(inv(A, B) + C(m, 2) + |S| + inv(A0 u S, B0 u S)) c e_A0uS i_B0uS,
    A0 = A - D, B0 = B - D.  By blocks, inv(A0 u T, B0 u T) = inv(A0, B0)
    + C(|T|, 2) + |T n W| mod 2 for T in D, W the d in D with
    #{b in B0 : b < d} + #{a in A0 : a > d} odd; so, with T = D and S, the
    sign is (-1)^(C(m, 2) + C(|D|, 2) + C(|S| + 1, 2) + |(D - S) n W|).
    """
    acc: dict[Monomial, int] = {}
    for (amask, bmask), c in x._num.items():
        diag, keys = amask & bmask, _diag_keys(amask, bmask)
        a0, b0 = keys[0]
        m, d = (a0 | b0).bit_count(), diag.bit_count()
        flip = (m * (m - 1) >> 1) + (d * (d - 1) >> 1)
        w = diag and prefix_parity(a0) ^ prefix_parity(b0) ^ -(a0.bit_count() & 1)
        for key in keys:
            sub = key[0] & diag
            k = sub.bit_count()
            odd = flip + (k * (k + 1) >> 1) + ((diag ^ sub) & w).bit_count()
            acc[key] = acc.get(key, 0) + (-c if odd & 1 else c)
    return CliffordElem._make(x.config, acc, x._den)


def _plane_row(num: dict[Monomial, int], n: int) -> dict[Monomial, int]:
    """{(A0 u T, B0 u T): v} for the sum of c e_A i_B over the numerators
    `num`, written as the plane terms v 2^-n e_A0 i_B0 u_T.

    For a term c e_A i_B put D = A n B, A0 = A - D and B0 = B - D.  Each
    e_a i_a of D is (1 + u_a)/2, and the u_a commute with the other
    planes, so the term is +-c 2^-|D| times the sum of e_A0 i_B0 u_T over
    the subsets T of D (`_diag_keys`), the sign (-1)^(inv(A, B) +
    inv(A0, B0)) of reordering the block word.
    """
    row: dict[Monomial, int] = {}
    for (amask, bmask), c in num.items():
        keys = _diag_keys(amask, bmask)
        v = c << (n - (amask & bmask).bit_count())
        if (inversion_parity(amask, bmask) + inversion_parity(*keys[0])) & 1:
            v = -v
        for key in keys:
            row[key] = row.get(key, 0) + v
    return row


def trace_rows(config: Config, xs: Iterable, ys: Iterable) -> Iterator[list[Scalar]]:
    """For each x of xs in turn, the row [Tr(x y) for y in ys], with no
    product built.

    The trace form pairs e_A0 i_B0 u_T only with its dual e_B0 i_A0 u_T
    (see the module docstring), and with m = |A0| + |B0| their product has
    trace (-1)^(|A0||B0| + C(m, 2)) 2^(n - m).  So the plane rows of the ys
    go once into one index under their dual keys, and each plane term of x
    looks its partners up.  A trace is an int over den(x) den(y) 4^n; only
    a nonzero int becomes a scalar, every other entry one shared zero.
    """
    n, field = config.n, config.field
    zero, ys = field.zero(), list(ys)
    index: dict[Monomial, list[tuple[int, int]]] = {}
    for j, y in enumerate(ys):
        config.check_same(y.config)
        for (emask, imask), w in _plane_row(y._num, n).items():
            if w:
                index.setdefault((imask, emask), []).append((j, w))
    for x in xs:
        config.check_same(x.config)
        totals: dict[int, int] = {}
        for (emask, imask), v in _plane_row(x._num, n).items():
            if hits := index.get((emask, imask)):
                diag = emask & imask
                p, q = (emask ^ diag).bit_count(), (imask ^ diag).bit_count()
                m = p + q
                v = (-v if (p * q + (m * (m - 1) >> 1)) & 1 else v) << (n - m)
                for j, w in hits:
                    totals[j] = totals.get(j, 0) + v * w
        row = [zero] * len(ys)
        for j, total in totals.items():
            if total:
                row[j] = field.from_fraction(total, x._den * ys[j]._den << 2 * n)
        yield row


# Orthonormal slots: slot 2(a-1) is e_a + i_a with square +1, slot 2a-1 is
# e_a - i_a with square -1; ascending slots give the ordered basis.
def slot_metric(slot: int) -> int:
    return -1 if slot & 1 else 1


@lru_cache(maxsize=None)
def orthonormal_vector(config: Config, slot: int) -> CliffordElem:
    """E_slot = e_a + i_a (even slot) or e_a - i_a (odd slot), a blade."""
    return q_map(config, (slot,))


def q_map(config: Config, slots: tuple[int, ...] | list[int]) -> CliffordElem:
    """Clifford product of strictly ascending orthonormal basis vectors.

    For orthogonal arguments the exterior-to-Clifford quantization is the
    plain product, so these products are exactly the grade-k basis.  The
    product is expanded in closed form by `_blade_terms`.
    """
    slots = tuple(slots)
    for s in slots:
        if not 0 <= s < 2 * config.n:
            raise ValueError(f"slot {s} out of range for n={config.n}")
    if any(s2 <= s1 for s1, s2 in zip(slots, slots[1:])):
        raise ValueError(f"slots must be strictly ascending, got {slots}")
    return CliffordElem._make(config, _blade_terms(sum(1 << s for s in slots)))


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


def grade_project(x: CliffordElem, k: int) -> CliffordElem:
    """The grade-k part of x (see `grade_projections`).

    Raises ValueError for k outside 0..2n.
    """
    if not 0 <= k <= 2 * x.config.n:
        raise ValueError(f"grade {k} out of range for n={x.config.n}")
    return grade_projections(x)[k]


def grade_projections(x: CliffordElem) -> list[CliffordElem]:
    """[grade_project(x, k) for k in 0..2n], block by block in Witt
    coordinates.

    V is the orthogonal sum of the planes span(e_a, i_a), so grades add
    over blocks: a block holding e_a or i_a alone has grade 1, and one
    holding both splits as e_a i_a = (e_a i_a - 1/2) + 1/2 into grades 2
    and 0.  A term c e_A i_B is (-1)^inv(A, B) times its block word; with
    D = A n B, keeping e_a i_a on the blocks T of D (`_diag_keys`) and
    -1/2 or 1/2 on the rest of D leaves e_A' i_B', A' = (A - D) u T and
    B' = (B - D) u T, whose block word costs (-1)^inv(A', B') to
    normal-order.  Choosing -1/2 on j of the |D - T| other blocks puts it
    in grade |A ^ B| + 2(|T| + j) with numerator (-1)^j C(|D - T|, j)
    c 2^(n - |D| + |T|) over den(x) 2^n.  The tests'
    `project_by_products` evaluates the orthonormal trace formula
    literally.
    """
    config, n = x.config, x.config.n
    parts: list[dict[Monomial, int]] = [{} for _ in range(2 * n + 1)]
    for (amask, bmask), c in x._num.items():
        diag, flip = amask & bmask, inversion_parity(amask, bmask)
        d, base = diag.bit_count(), (amask ^ bmask).bit_count()
        for key in _diag_keys(amask, bmask):
            t = (key[0] & diag).bit_count()
            v = c << (n - d + t)
            if (flip + inversion_parity(*key)) & 1:
                v = -v
            for j in range(d - t + 1):
                part = parts[base + 2 * (t + j)]
                part[key] = part.get(key, 0) + (-v if j & 1 else v) * comb(d - t, j)
    den = x._den << n
    return [CliffordElem._make(config, part, den) for part in parts]


@lru_cache(maxsize=None)
def grading_element(config: Config) -> CliffordElem:
    """The top blade E_1 E_1~ ... E_n E_n~, which is the product
    (i_1 - e_1)(i_1 + e_1)...(i_n - e_n)(i_n + e_n).

    Acts as +1 on S_plus and -1 on S_minus, squares to 1, and is the
    top-grade volume element of the ordered orthonormal basis.
    """
    return q_map(config, range(2 * config.n))


@lru_cache(maxsize=None)
def h_operator(config: Config) -> CliffordElem:
    """The grade-2 element (1/2) sum_a (e_a i_a - i_a e_a), the particle
    number shifted by -n/2: sum_a e_a i_a - n/2, as numerators over 2."""
    num = {(1 << a, 1 << a): 2 for a in range(config.n)}
    num[(0, 0)] = -config.n
    return CliffordElem._make(config, num, 2)
