"""Deterministic random generators and Clifford-route oracles shared by the tests.

The Clifford-route oracles (the endomorphism pairing with its matrix units
and vacuum projector, the dense Fock matrix, the trace, the transpose
as a sum of products, blades as elements
and blade coordinates, blades, the grading element and H built as
products, the blade product and the literal grade projection, the
unnormalized grade-2 pairing, slot names), the top-grade coefficient on
two Fock basis masks, the four-sum taken one word at a time and without
its i-mask groups (the oracles of grade2_pairing's pruning), the CAR
identities on spinor values, the bracket relations one slot at a time
(with the exact zero test of a linear combination, one slot's vector
commutator and the adjoint after one move), the grading element's
action on a spinor, the polarisation change of a basis-index triple,
the e6 coefficient sweep, the dense Gauss-Jordan elimination (the
oracle of linalg's sparse reducer: its ranks), the root data read
through the inverse of the restricted Killing form (the oracle of
root_decomposition's coroot read), the e7
constant solve through field-scalar Jacobi rows and a dense kernel (the
oracle of builders._solve_e7_constants) and its seeded triples, the
graded chassis's per-pair dispatch (the oracle of its row source),
the row source of a bracket on label pairs and the one-pair read of a
row source, the parity of a spinor vector, masks from 1-based
indices, scalar parsing and a parity-breaking patch of builders._c2_move
are used only by the tests, so they live here rather than in the package.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import spinor_forge.builders as builders_mod
from spinor_forge import props
from spinor_forge.builders import (
    SPINOR_N,
    _builder_setup,
    _e7_chassis,
    block_rows,
    build_e6,
)
from spinor_forge.clifford import (
    CliffordElem,
    _blade_terms,
    act,
    multiply,
    orthonormal_vector,
    slot_metric,
    vector_commutators,
    witt_e,
    witt_i,
)
from spinor_forge.exceptional import LieAlgebra, verify_jacobi
from spinor_forge.field import Field, Rationals, Residue, Scalar
from spinor_forge.fock import (
    Config,
    SparseTerms,
    SpinorVec,
    annihilate,
    apply_monomial,
    create,
    inversion_parity,
    mask_str,
    parity,
)
from spinor_forge.norms import BilinearForm, b_eval, solve_spinor_norm
from spinor_forge.pairings import (
    _accum,
    _check_masks,
    _check_pair,
    _four_sum_elements,
    _four_sum_words,
    _l2_coords,
    _slot_move,
    _top_num,
    grade2_pairing,
    orbit_map_adjoint,
)


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def dense_rref(
    rows: list[list[Scalar]], ncols: int, field: Field
) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form of a copy, and its pivot columns.

    Dense Gauss-Jordan elimination.  Stops once every row holds a pivot:
    the columns after that are free, and the rows are already reduced in
    every pivot column.
    """
    work = [list(r) for r in rows]
    for r in work:
        if len(r) != ncols:
            raise ValueError("row length does not match ncols")
    pivot_cols: list[int] = []
    for col in range(ncols):
        rank = len(pivot_cols)
        if rank == len(work):
            break
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = field.one() / work[rank][col]
        work[rank] = [x * inv for x in work[rank]]
        for i in range(len(work)):
            if i == rank or not work[i][col]:
                continue
            f = work[i][col]
            work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        pivot_cols.append(col)
    return work, pivot_cols


def killing_inverse_roots(roots) -> tuple:
    """(simple roots, Cartan matrix, root norms) of a list of roots, read
    through the inverse of the restricted Killing form.

    K[s][t] = sum over the roots g of g[s] g[t] is inverted by dense_rref
    of [K | I], (a, b) = a K^-1 b, positive means first nonzero entry
    positive, simple means no difference with another positive root is
    positive, and a_ij = 2 (a_i, a_j) / (a_j, a_j).
    """
    r, field = len(roots[0]), Rationals()
    aug = [
        [Fraction(sum(g[s] * g[t] for g in roots)) for t in range(r)]
        + [Fraction(int(s == t)) for t in range(r)]
        for s in range(r)
    ]
    work, pivot_cols = dense_rref(aug, 2 * r, field)
    assert pivot_cols == list(range(r)), "restricted Killing form is singular"
    kinv = [row[r:] for row in work]

    def ip(al, be):
        return sum(al[s] * kinv[s][t] * be[t] for s in range(r) for t in range(r))

    positive = sorted(g for g in roots if next(v for v in g if v) > 0)
    pos_set = set(positive)
    simple = tuple(
        al
        for al in positive
        if not any(
            tuple(a - b for a, b in zip(al, be)) in pos_set for be in positive if be != al
        )
    )
    cartan = tuple(tuple(2 * ip(al, be) / ip(be, be) for be in simple) for al in simple)
    return simple, cartan, frozenset(ip(g, g) for g in roots)


def dense_rank(rows: list[list[Scalar]], field: Field) -> int:
    """Rank of a dense matrix by dense_rref on a copy."""
    return len(dense_rref(rows, len(rows[0]) if rows else 0, field)[1])


def e7_constants_by_nullspace(
    field: Optional[Field] = None, form: Optional[BilinearForm] = None
) -> tuple[int, int]:
    """builders._solve_e7_constants through field scalars: the Jacobi rows
    of its 60 seeded triples read through L.bracket, their kernel from
    dense_rref, scaled to lead with 1 (residues over F_p, the primitive int
    pair over Q)."""
    config, form = _builder_setup(SPINOR_N["e7"], field, form)
    zero = config.field.zero()
    parts = (_e7_chassis(config, form, 1, 0), _e7_chassis(config, form, 0, 1))
    rows: list[list[Scalar]] = []
    for triple in e7_seeded_triples(parts[0]):
        p, q = (_scalar_jacobi_sum(L, *triple) for L in parts)
        rows += ([p.get(k, zero), q.get(k, zero)] for k in sorted(p.keys() | q.keys()))
    work, pivot_cols = dense_rref(rows, 2, config.field)
    if len(pivot_cols) != 1:
        raise RuntimeError(f"Jacobi rows of rank {len(pivot_cols)}, not 1")
    free = 1 - pivot_cols[0]
    vec = [zero, zero]
    vec[free] = config.field.one()
    vec[pivot_cols[0]] = -work[0][free]
    a, b = (x / (vec[0] or vec[1]) for x in vec)
    if config.field.characteristic:
        return a.value, b.value
    den = a.denominator * b.denominator
    return int(a * den), int(b * den)


def e7_seeded_triples(L: LieAlgebra) -> list[list[int]]:
    """The 60 seeded spinor-tensor index triples that
    builders._solve_e7_constants reads, drawn as it draws them, on e7's
    chassis L."""
    rnd = random.Random(20240801)
    evens = [m for m in range(L.config.size) if parity(m) == 0]
    return [
        [L.index[("s2", rnd.choice(evens), rnd.choice((0, 1)))] for _ in range(3)]
        for _ in range(60)
    ]


def _scalar_jacobi_sum(L: LieAlgebra, x: int, y: int, z: int) -> dict[int, Scalar]:
    """[[x, y], z] + [[y, z], x] + [[z, x], y] on basis indices, through L.bracket."""
    out: dict[int, Scalar] = {}
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        for k, s in L.bracket(a, b):
            for m, t in L.bracket(k, c):
                out[m] = out[m] + s * t if m in out else s * t
    return out


def mask_from_indices(indices) -> int:
    """The Fock mask of a set of 1-based indices."""
    mask = 0
    for a in indices:
        mask |= 1 << (a - 1)
    return mask


def spinor_parity(psi: SpinorVec) -> Optional[int]:
    """0 if psi lies in S_plus, 1 if in S_minus, None if mixed (or zero)."""
    parities = {parity(m) for m in psi._num}
    if len(parities) == 1:
        return parities.pop()
    return None


def parse_scalar(s: str, field: Field) -> Scalar:
    """The inverse of scalar_str: "p/q" over Q, "r mod p" over F_p."""
    if isinstance(field, Rationals):
        return Fraction(s)
    value, sep, p = s.partition(" mod ")
    if not sep or int(p) != field.p:
        raise ValueError(f"cannot parse {s!r} as an element of {field!r}")
    return Residue(int(value), field.p)


def rand_scalar(config: Config, r: random.Random):
    k = 0
    while k == 0:
        k = r.randint(-6, 6)
    if config.field.characteristic == 0:
        return Fraction(k, r.randint(1, 4))
    return config.field.from_int(k)


def rand_spinor(config: Config, r: random.Random, nterms: int = 3) -> SpinorVec:
    terms = {}
    for _ in range(nterms):
        terms[r.randrange(config.size)] = rand_scalar(config, r)
    return SpinorVec(config, terms)


def rand_monomial(config: Config, r: random.Random) -> tuple[int, int]:
    return r.randrange(config.size), r.randrange(config.size)


def rand_elem(config: Config, r: random.Random, nmono: int = 3) -> CliffordElem:
    terms = {}
    for _ in range(nmono):
        terms[rand_monomial(config, r)] = rand_scalar(config, r)
    return CliffordElem(config, terms)


# ------------------------------------------- grade-2 labels as Clifford elements


@lru_cache(maxsize=None)
def c2_elem(config: Config, label: tuple) -> CliffordElem:
    """The grade-2 basis element a label names, as a Clifford element."""
    kind = label[0]
    if kind == "ee":
        return multiply(witt_e(config, label[1]), witt_e(config, label[2]))
    if kind == "ii":
        return multiply(witt_i(config, label[1]), witt_i(config, label[2]))
    if kind == "ei":
        ea, ib = witt_e(config, label[1]), witt_i(config, label[2])
        return multiply(ea, ib) - multiply(ib, ea)
    raise ValueError(f"not a grade-2 label: {label!r}")


def c2_coords(x: CliffordElem) -> dict:
    """Write a grade-2 element in the c2_labels basis.

    Monomial pattern (2,0) is an ee term, (0,2) an ii term, (1,1) half an
    F_ab; the scalar monomial must equal minus the diagonal F_aa total
    (each F_aa = 2 e_a i_a - 1 carries a constant).  Anything else raises
    ValueError.  Read on x's int numerators; each coordinate is turned
    into a field scalar once.
    """
    field = x.config.field
    scalar, den = field.from_fraction, x._den
    coords = {}
    const = 0
    diag = 0
    for (emask, imask), c in x._num.items():
        en, im = emask.bit_count(), imask.bit_count()
        if en == 0 and im == 0:
            const = c
        elif en == 2 and im == 0:
            a = (emask & -emask).bit_length()
            coords[("ee", a, emask.bit_length())] = scalar(c, den)
        elif en == 0 and im == 2:
            a = (imask & -imask).bit_length()
            coords[("ii", a, imask.bit_length())] = scalar(c, den)
        elif en == 1 and im == 1:
            a, b = emask.bit_length(), imask.bit_length()
            coords[("ei", a, b)] = scalar(c, 2 * den)
            if a == b:
                diag += c
        else:
            raise ValueError(f"monomial {(emask, imask)} lies outside the grade-2 span")
    if field.from_int(2 * const + diag):
        raise ValueError("constant term does not match the diagonal part")
    return coords


# ------------------------------------------- Clifford-route oracles


def l2_scalars(form: BilinearForm, imask: int, jmask: int) -> dict:
    """pairings._l2_coords decoded: its int numerators over 2 form._den as
    field scalars."""
    scalar, den = form.config.field.from_fraction, 2 * form._den
    return {lab: scalar(c, den) for lab, c in _l2_coords(form, imask, jmask).items()}


def basis_top_grade_coefficient(form: BilinearForm, imask: int, jmask: int) -> Scalar:
    """top_grade_coefficient(form, e_I.v, e_J.v) for two Fock basis masks:
    B(e_I.v, e_J.v) (-1)^|J| / 2^n (`_top_num`)."""
    config = form.config
    _check_masks(config, imask, jmask)
    return config.field.from_fraction(
        _top_num(form, imask, jmask), config.size * form._den
    )


def slot_str(slot: int) -> str:
    a = slot // 2 + 1
    return f"E{a}~" if slot & 1 else f"E{a}"


def transpose_by_copies(x: CliffordElem) -> CliffordElem:
    """The transpose as a sum of products i_B e_A, one per reversed term:
    the route before the Wick walk and the closed form."""
    config = x.config
    out = CliffordElem.zero(config)
    for (emask, imask), c in x.terms.items():
        p, q = emask.bit_count(), imask.bit_count()
        sign = -1 if ((p * (p - 1) // 2) + (q * (q - 1) // 2)) & 1 else 1
        prod = multiply(
            CliffordElem.monomial(config, 0, imask),
            CliffordElem.monomial(config, emask, 0),
        )
        out = out + prod.scale(c if sign > 0 else -c)
    return out


def trace(x: CliffordElem) -> Scalar:
    """Trace of the Fock action, the oracle of `trace_rows`.

    Off-diagonal monomials (emask != imask) move every basis vector, so
    only diagonal monomials e_K i_K contribute.  e_K i_K fixes each of
    the 2^(n-|K|) basis vectors e_M.v with K in M, with sign
    (-1)^C(|K|, 2) (`apply_monomial` on M = K), and kills the others.
    Summed on the int numerators and divided once.
    """
    n = x.config.n
    total = 0
    for (emask, imask), c in x._num.items():
        if emask != imask:
            continue
        k = emask.bit_count()
        term = c << (n - k)
        total += -term if (k * (k - 1) >> 1) & 1 else term
    return x.config.field.from_fraction(total, x._den)


def q_map_by_products(config: Config, slots) -> CliffordElem:
    """q_map as the Clifford product of its orthonormal vectors, one at a
    time, each vector written as e_a + i_a (even slot) or e_a - i_a (odd
    slot)."""
    out = CliffordElem.one(config)
    for s in slots:
        a = s // 2 + 1
        if s & 1:
            vec = witt_e(config, a) - witt_i(config, a)
        else:
            vec = witt_e(config, a) + witt_i(config, a)
        out = multiply(out, vec)
    return out


def grading_element_by_products(config: Config) -> CliffordElem:
    """The product (i_1 - e_1)(i_1 + e_1)...(i_n - e_n)(i_n + e_n)."""
    out = CliffordElem.one(config)
    for a in range(1, config.n + 1):
        out = multiply(out, witt_i(config, a) - witt_e(config, a))
        out = multiply(out, witt_i(config, a) + witt_e(config, a))
    return out


def h_by_multiply(config: Config) -> CliffordElem:
    """(1/2) sum_a (e_a i_a - i_a e_a), each product by `multiply`."""
    half = config.field.from_fraction(1, 2)
    out = CliffordElem.zero(config)
    for a in range(1, config.n + 1):
        ea, ia = witt_e(config, a), witt_i(config, a)
        out = out + (multiply(ea, ia) - multiply(ia, ea)).scale(half)
    return out


def blade_to_elem(config: Config, bmask: int) -> CliffordElem:
    """The orthonormal blade `bmask` (bit s set for slot s) as an element.

    q_map of its ascending slots, addressed by mask: both expand the
    blade in closed form by `_blade_terms`.
    """
    if not 0 <= bmask < 1 << (2 * config.n):
        raise ValueError(f"blade mask {bmask} out of range for n={config.n}")
    return CliffordElem._make(config, _blade_terms(bmask))


_ODD_SLOTS = 0xAAAAAA  # slots 1, 3, ..., 23: the vectors of square -1


def blade_mul(m1: int, m2: int) -> tuple[int, int]:
    """Product of two orthonormal blades: (coefficient, blade mask).

    Each pair of slots out of order costs a sign, and each shared slot
    contracts to its metric, -1 on the odd slots.
    """
    odd = inversion_parity(m1, m2) + (m1 & m2 & _ODD_SLOTS).bit_count()
    return (-1 if odd & 1 else 1), m1 ^ m2


def blade_slots(n: int, bmask: int) -> tuple[int, ...]:
    return tuple(s for s in range(2 * n) if (bmask >> s) & 1)


def project_by_products(x: CliffordElem, k: int) -> CliffordElem:
    """grade_project by the literal trace formula: each kept blade built
    by `q_map_by_products` and added as an element, every sign and metric
    factor of the formula evaluated as written (they cancel in
    grade_project)."""
    config = x.config
    field = config.field
    out = CliffordElem.zero(config)
    for bmask, cb in sorted(to_blades(x).items()):
        if bmask.bit_count() != k:
            continue
        gpref = 1
        for s in blade_slots(config.n, bmask):
            gpref *= slot_metric(s)
        rev_sign = -1 if (k * (k - 1) // 2) & 1 else 1
        square_coeff, _ = blade_mul(bmask, bmask)
        tr = cb * field.from_int(rev_sign * square_coeff * config.size)
        scalar = field.from_fraction(1, config.size) * field.from_int(gpref) * tr
        blade = q_map_by_products(config, blade_slots(config.n, bmask))
        out = out + blade.scale(scalar)
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


def grade2_pairing_projected(
    form: BilinearForm, psi1: SpinorVec, psi2: SpinorVec
) -> CliffordElem:
    """The unnormalized variant: 1/2^(n-1) times grade2_pairing."""
    config = form.config
    scale = config.field.from_fraction(1, 1 << (config.n - 1))
    return grade2_pairing(form, psi1, psi2).scale(scale)



# ------------------------------------------- the four-sum, one word at a time


def _move_pairing(
    form: BilinearForm, word: CliffordElem, phi: SpinorVec, psi: SpinorVec
) -> Optional[int]:
    """B(word.phi, psi) by direct Fock moves, or None if no term meets psi.

    Each (word term, phi term) pair is one move of `apply_monomial`, taken
    in the order that settles most pairs soonest: the masks alone decide
    whether e_A i_B survives on e_M.v, then psi's coefficient at the
    complement of the image and the form entry are looked up, and only on
    a hit is the sign (-1)^(inv(B, M) + inv(A, M - B)) computed.  Equals
    b_eval(form, act(word, phi), psi) without building the spinor.
    Returns the int numerator over den(word) den(phi) den(psi) den(B).
    """
    full = form.config.size - 1
    entries, psi_num = form._num, psi._num
    acc = None
    for (emask, imask), cw in word._num.items():
        for mask, cp in phi._num.items():
            rest = mask ^ imask
            if imask & ~mask or emask & rest:
                continue
            new = rest | emask
            cq = psi_num.get(new ^ full)
            if cq is None:
                continue
            val = entries.get(new)
            if val is None:
                continue
            term = cw * cp * cq * val
            if inversion_parity(imask, mask) ^ inversion_parity(emask, rest):
                term = -term
            acc = term if acc is None else acc + term
    return acc


def grade2_pairing_per_word(
    form: BilinearForm, psi1: SpinorVec, psi2: SpinorVec
) -> CliffordElem:
    """pairings.grade2_pairing as one `_move_pairing` call per four-sum
    word, each coefficient accumulated onto its target element."""
    config = _check_pair(form, psi1, psi2)
    ee, ii, ei, ie_minus, diag_in, diag_out = _four_sum_elements(config)
    out: dict = {}
    for a in range(1, config.n + 1):
        for b in range(1, config.n + 1):
            if a == b:
                continue
            for word, target in ((ee, ii), (ii, ee), (ei, ie_minus)):
                c = _move_pairing(form, word[(a, b)], psi1, psi2)
                if c:
                    _accum(out, target[(a, b)]._num, 2 * c)
    for a in range(1, config.n + 1):
        c = _move_pairing(form, diag_in[a], psi1, psi2)
        if c:
            _accum(out, diag_out[a]._num, c)
    return CliffordElem._make(config, out, 2 * psi1._den * psi2._den * form._den)


def grade2_pairing_unpruned(
    form: BilinearForm, psi1: SpinorVec, psi2: SpinorVec
) -> CliffordElem:
    """pairings.grade2_pairing without its i-mask groups: one pass over
    words x word terms x psi1 terms, every word term tried on every psi1
    term, each word's coefficient added to its target in word order."""
    config = _check_pair(form, psi1, psi2)
    full = config.size - 1
    entries, psi2_num = form._num, psi2._num
    terms1 = tuple(psi1._num.items())
    out: dict = {}
    for word, target, weight in _four_sum_words(config):
        acc = 0
        for (emask, imask), cw in word:
            for mask, cp in terms1:
                rest = mask ^ imask
                if imask & ~mask or emask & rest:
                    continue
                new = rest | emask
                cq = psi2_num.get(new ^ full)
                if cq is not None and (val := entries.get(new)) is not None:
                    term = cw * cp * cq * val
                    odd = inversion_parity(imask, mask) ^ inversion_parity(emask, rest)
                    acc += -term if odd else term
        if acc:
            _accum(out, target, weight * acc)
    return CliffordElem._make(config, out, 2 * psi1._den * psi2._den * form._den)


@lru_cache(maxsize=None)
def vacuum_projector(config: Config) -> CliffordElem:
    """The product of (1 - e_a i_a) over all a: kills e_I.v unless I = {}."""
    out = CliffordElem.one(config)
    for a in range(1, config.n + 1):
        factor = CliffordElem.one(config) - multiply(
            witt_e(config, a), witt_i(config, a)
        )
        out = multiply(out, factor)
    return out


@lru_cache(maxsize=None)
def matrix_unit(config: Config, pmask: int, qmask: int) -> CliffordElem:
    """The element sending e_Q.v to e_P.v and every other basis vector to 0.

    e_P N i_Q up to the sign of i_Q e_Q.v = (-1)^{C(|Q|,2)} v.
    """
    left = CliffordElem.monomial(config, pmask, 0)
    right = CliffordElem.monomial(config, 0, qmask)
    unit = multiply(multiply(left, vacuum_projector(config)), right)
    k = qmask.bit_count()
    if (k * (k - 1) // 2) & 1:
        return -1 * unit
    return unit


def endomorphism_pairing(
    form: BilinearForm, phi: SpinorVec, psi: SpinorVec
) -> CliffordElem:
    """The rank-one endomorphism xi -> B(phi, xi) psi as a Clifford element.

    Works for either flavor; grade projections of this element are the
    independent oracle for the specialized pairings.
    """
    config = _check_pair(form, phi, psi)
    out: dict = {}
    full = config.size - 1
    for imask, ci in phi._num.items():
        val = form._num.get(imask)
        if val is None:
            continue
        bval = ci * val
        for pmask, cp in psi._num.items():
            # every matrix unit is integral (denominator 1)
            _accum(out, matrix_unit(config, pmask, imask ^ full)._num, bval * cp)
    return CliffordElem._make(config, out, phi._den * psi._den * form._den)


def sweep_e6_coefficients(
    candidates: list[tuple[int, int]], field: Field | None = None
) -> list[tuple[int, int]]:
    """The (a, b) candidates whose e6 spinor bracket satisfies Jacobi.

    Only spinor-spinor pairs are scanned: triples with at most one spinor
    hold for every (a, b) because both pairing components are equivariant
    for the degree-zero action.  (0, 0) passes vacuously but gives an
    algebra whose spinor brackets span nothing.
    """
    good = []
    for a, b in candidates:
        L = build_e6(field=field, spinor_coeffs=(a, b))
        spin = L.spinor_indices()
        pairs = [(x, y) for i, x in enumerate(spin) for y in spin[i + 1 :]]
        if verify_jacobi(L, pairs=pairs):
            good.append((a, b))
    return good


def _blade_ints(x: CliffordElem) -> tuple[dict[int, int], int]:
    """Blade coordinates of x as canonical (numerators, denominator).

    Each Witt generator is half a sum or difference of two orthonormal
    vectors: e_a = (E + E~)/2 and i_a = (E - E~)/2 at block a.  A monomial
    with k generators expands to 2^k signed blade products with integer
    coefficients; over the common denominator den(x) 2^K, K the most
    generators in a term, its blades carry c 2^(K-k).
    """
    top = max((e.bit_count() + i.bit_count() for e, i in x._num), default=0)
    out: dict[int, int] = {}
    for (emask, imask), c in x._num.items():
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
        scale = c << (top - len(factors))
        for bmask, cb in acc.items():
            out[bmask] = out.get(bmask, 0) + scale * cb
    return x.config.field.canon(out, x._den << top)


def to_blades(x: CliffordElem) -> dict[int, Scalar]:
    """Coordinates of x in the orthonormal blade basis (see `_blade_ints`)."""
    num, den = _blade_ints(x)
    scalar = x.config.field.from_fraction
    return {bmask: scalar(cb, den) for bmask, cb in num.items()}


def car_relations_by_spinors(config: Config) -> tuple[bool, str]:
    """check_car_relations's (ok, detail), on SpinorVec values: each side of
    each identity built by create/annihilate on a basis vector and summed."""
    n = config.n
    zero = SpinorVec.zero(config)
    for m in range(config.size):
        psi = SpinorVec.basis(config, m)
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                cc = create(a, create(b, psi)) + create(b, create(a, psi))
                aa = annihilate(a, annihilate(b, psi)) + annihilate(
                    b, annihilate(a, psi)
                )
                mixed = annihilate(a, create(b, psi)) + create(b, annihilate(a, psi))
                if not (
                    cc.is_zero()
                    and aa.is_zero()
                    and mixed == (psi if a == b else zero)
                ):
                    return False, f"identity failed at basis mask {m}, a={a}, b={b}"
    return True, (
        f"all {config.size * n * n} (a, b, basis vector) operator identities "
        "hold exactly"
    )


def is_zero_combination(terms: list[tuple[int, SparseTerms]]) -> bool:
    """Whether sum k x over (k, x) in terms is zero, for int k.

    One cross-multiplied pass on the numerators: x's numerator map is
    scaled by k times the other values' denominators, and the field's
    canonical form of the sum decides.
    """
    config = terms[0][1].config
    total = 1
    for _, x in terms:
        config.check_same(x.config)
        total *= x._den
    acc: dict = {}
    for k, x in terms:
        f = k * (total // x._den)
        for key, c in x._num.items():
            acc[key] = acc.get(key, 0) + f * c
    return not config.field.canon(acc, 1)[0]


def vector_commutator(x: CliffordElem, slot: int) -> CliffordElem:
    """[x, E_slot]: one row of clifford.vector_commutators, as an element."""
    if not 0 <= slot < 2 * x.config.n:
        raise ValueError(f"slot {slot} out of range for n={x.config.n}")
    return CliffordElem._make(x.config, vector_commutators(x).get(slot, {}), x._den)


def adjoint_after_move(
    form: BilinearForm, phi: SpinorVec, slot: int, psi: SpinorVec
) -> CliffordElem:
    """phi^*(E_slot.psi), one slot at a time: psi's terms moved by
    _slot_move into a spinor, then orbit_map_adjoint."""
    num = {}
    for mask, c in psi._num.items():
        odd, new = _slot_move(mask, slot)
        num[new] = -c if odd & 1 else c
    return orbit_map_adjoint(form, phi, SpinorVec._make(psi.config, num, psi._den))


def bracket_relations_by_slots(config: Config) -> tuple[bool, str]:
    """check_bracket_relations's (ok, detail) on the same pairs, one slot at
    a time: for each slot each relation is its own exact zero test, on one
    row of the commutator and the adjoint after one move."""
    n = config.n
    form = solve_spinor_norm(config)
    field = config.field
    sign = -1 if (n * (n - 1) // 2) & 1 else 1

    def pair_ok(phi: SpinorVec, psi: SpinorVec) -> bool:
        elem = grade2_pairing(form, phi, psi)
        b_num, b_den = field.parts(b_eval(form, phi, psi))
        for slot in range(2 * n):
            first = adjoint_after_move(form, psi, slot, phi)
            second = adjoint_after_move(form, phi, slot, psi)
            comm = vector_commutator(elem, slot)
            if not is_zero_combination([(2, comm), (-sign, first), (1, second)]):
                return False
            vec = orthonormal_vector(config, slot)
            if not is_zero_combination(
                [(2 * b_num, vec), (-sign * b_den, first), (-b_den, second)]
            ):
                return False
        return True

    def basis(mask: int) -> SpinorVec:
        return SpinorVec.basis(config, mask)

    detail = f"1000 seeded pairs (250 sparse) over all {2 * n} vectors"
    if n <= 3:
        for im in range(config.size):
            for jm in range(config.size):
                if not pair_ok(basis(im), basis(jm)):
                    return False, f"relation failed at basis pair ({im}, {jm})"
        detail = f"exhaustive over {config.size ** 2} basis pairs, plus " + detail
    r = random.Random(8009 + n)
    for idx in range(750):
        if not pair_ok(basis(r.randrange(config.size)), basis(r.randrange(config.size))):
            return False, f"relation failed at random basis pair {idx}"
    for idx in range(250):
        phi = props._sample_spinor(config, r)
        if not pair_ok(phi, props._sample_spinor(config, r)):
            return False, f"relation failed at random sparse pair {idx}"
    return True, detail


def epsilon_action(psi: SpinorVec) -> SpinorVec:
    """The grading element: +1 on S_plus, -1 on S_minus."""
    return SpinorVec._make(
        psi.config,
        {m: (c if not parity(m) else -c) for m, c in psi._num.items()},
        psi._den,
    )


def chassis_with_dispatch(monkeypatch, build, field: Field):
    """build(field=field) and the per-pair bracket of its chassis, as the
    chassis dispatched each ordered label pair by label kind before its
    rules became the blocks of one row source: int numerators over den,
    read from the same rules (_c2_bracket, _c2_move, the builder's pair,
    extra_bracket, extra_act).  The oracle of every source row (see
    dispatch_row)."""
    calls = []
    real = builders_mod._graded_algebra

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(builders_mod, "_graded_algebra", spy)
    L = build(field=field)
    monkeypatch.setattr(builders_mod, "_graded_algebra", real)
    ((args, kwargs),) = calls  # e7's constant solve reads the one chassis
    _, _, den, extra, module, pair = args[:6]
    extra_bracket, extra_act = (list(args[6:]) + [None, None])[:2]
    extra_bracket = kwargs.get("extra_bracket", extra_bracket)
    extra_act = kwargs.get("extra_act", extra_act)
    half = den // 2
    module_kinds = {lab[0] for lab in module}
    extra_kinds = {lab[0] for lab in extra}

    def fn(la, lb):
        ka, kb = la[0], lb[0]
        ma, mb = ka in module_kinds, kb in module_kinds
        if ma and mb:
            return pair(la, lb)
        if not (ma or mb):
            xa, xb = ka in extra_kinds, kb in extra_kinds
            if not (xa or xb):
                return builders_mod._c2_bracket(la, lb, half)
            return extra_bracket(la, lb) if xa and xb and extra_bracket else {}
        x, m = (lb, la) if ma else (la, lb)
        if x[0] in extra_kinds:
            out = extra_act(x, m)
            return {lab: -c for lab, c in out.items()} if ma else out
        hit = builders_mod._c2_move(x, m[1])
        if hit is None:
            return {}
        return {(m[0], hit[0]) + m[2:]: -hit[1] * den if ma else hit[1] * den}

    return L, fn, den


def dispatch_row(L: LieAlgebra, fn, den: int, i: int, j: int) -> tuple:
    """fn(b_i, b_j) in the table's form: ((k, numerator), ...) ascending in
    k, numerators over L.den (residues of num / den in [1, p) over F_p),
    zeros dropped."""
    p = L.config.field.characteristic
    out = fn(L.basis[i], L.basis[j])
    terms = [(L.index[lab], c * pow(den, -1, p) % p if p else c) for lab, c in out.items()]
    return tuple(sorted((k, c) for k, c in terms if c))


def label_rule(basis: list, fn):
    """The row source of a bracket given on label pairs over Q:
    fn(label_a, label_b) -> {label: int numerator}, each row in index form
    (k ascending, zeros dropped), through builders.block_rows."""
    index, every = {lab: i for i, lab in enumerate(basis)}, range(len(basis))

    def row(i: int, j: int) -> tuple:
        out = fn(basis[i], basis[j])
        return tuple(sorted((index[lab], c) for lab, c in out.items() if c))

    return lambda: block_rows(every, every, row)


@lru_cache(maxsize=1)
def _source_rows(L: LieAlgebra) -> dict:
    """(i, j) -> ([b_i, b_j], [b_j, b_i]) over one pass of L's row source,
    kept for the last algebra read."""
    return {(i, j): (t, u) for i, j, t, u in L._fn()}


def bracket_1x1(L: LieAlgebra, la, lb) -> dict:
    """[la, lb] read off L's row source, keyed by label: numerators in the
    table's form, nothing stored in L's table.  The source is read in one
    pass per algebra, not per call."""
    i, j = L.index[la], L.index[lb]
    t, u = _source_rows(L)[min(i, j), max(i, j)]
    return {L.basis[k]: c for k, c in (t if i <= j else u)}


def flip_f12_parity(monkeypatch) -> None:
    """Patch builders._c2_move so that F_12 = ("ei", 1, 2) moves e_M.v to a
    mask of the other parity (bit 5 toggled), every other move kept: a
    grade-2 label that no longer commutes with e6's grading element."""
    real = builders_mod._c2_move

    def moved(label, mask):
        hit = real(label, mask)
        if label == ("ei", 1, 2) and hit is not None:
            return hit[0] ^ 0b10000, hit[1]
        return hit

    monkeypatch.setattr(builders_mod, "_c2_move", moved)


class PolarisationChange:
    """Result of rewriting a basis-index triple in a swapped polarisation.

    source and target are (I, J, K) mask triples; swap_mask marks the
    positions where the creation and annihilation roles exchange; sign
    relates the first component: e'_{I'}.v' = sign * e_I.v.
    """

    __slots__ = ("source", "target", "swap_mask", "sign")

    def __init__(
        self,
        source: tuple[int, int, int],
        target: tuple[int, int, int],
        swap_mask: int,
        sign: int,
    ) -> None:
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "swap_mask", swap_mask)
        object.__setattr__(self, "sign", sign)

    def __setattr__(self, name: str, val: object) -> None:
        raise AttributeError("PolarisationChange is immutable")

    def __repr__(self) -> str:
        src = ",".join(mask_str(m) for m in self.source)
        tgt = ",".join(mask_str(m) for m in self.target)
        return (
            f"PolarisationChange(({src}) -> ({tgt}), "
            f"swap={mask_str(self.swap_mask)}, sign={self.sign:+d})"
        )


def apply_swapped_word(
    config: Config, word_mask: int, swap_mask: int
) -> tuple[int, int]:
    """Apply the primed creation word e'_W to e_{swap}.v in original terms.

    Primed creation at a swapped position is original annihilation.  The
    word lists generators in ascending index order and factors apply right
    to left, so the result is a signed basis vector (sign, mask); the
    proposition guarantees no term dies.
    """
    mask = swap_mask
    sign = 1
    for bit in range(config.n - 1, -1, -1):
        if not (word_mask >> bit) & 1:
            continue
        b = 1 << bit
        step = apply_monomial(0, b, mask) if (swap_mask >> bit) & 1 else apply_monomial(
            b, 0, mask
        )
        if step is None:
            raise AssertionError("swapped word annihilated the swapped vacuum")
        sign *= step[0]
        mask = step[1]
    return sign, mask


def change_polarisation(
    config: Config, imask: int, jmask: int, kmask: int
) -> PolarisationChange:
    """Rewrite (I, J, K) in the polarisation that swaps the overlaps.

    Preconditions: I n J n K and I^c n J^c n K^c are empty.  The target
    triple is pairwise disjoint with union {1..n} and K' = I'^c n J'^c,
    and the sign satisfies e'_{I'}.v' = sign * e_I.v with v' = e_M.v over
    the swap set M.
    """
    full = config.size - 1
    for m in (imask, jmask, kmask):
        if not 0 <= m <= full:
            raise ValueError(f"mask {m} out of range for n={config.n}")
    if imask & jmask & kmask:
        raise ValueError("masks share a common element")
    if full & ~imask & ~jmask & ~kmask:
        raise ValueError("complements share a common element")

    ip = (full & ~jmask & ~kmask) | (jmask & kmask)
    jp = (full & ~kmask & ~imask) | (kmask & imask)
    kp = (full & ~imask & ~jmask) | (imask & jmask)
    swap = (imask & jmask) | (jmask & kmask) | (kmask & imask)

    sign, mask = apply_swapped_word(config, ip, swap)
    if mask != imask:
        raise AssertionError("swapped word did not reproduce the source index")
    return PolarisationChange(
        (imask, jmask, kmask), (ip, jp, kp), swap, sign
    )
