"""The e6, e7 and e8 constructions from spinor pairings.

Each algebra is g0 + M on one chassis (_graded_algebra): the degree-zero
part g0 = so(2n) + z is the grade-2 part of the Clifford algebra plus the
extras z (the grading element for e6, sl2 for e7, none for e8), acting on
a spinor module M.  The chassis owns the shape of g0: z centralizes
so(2n) by construction, so an extra and a grade-2 label bracket to zero
and a builder brackets only extras with extras.  The chassis writes each
rule once, as a block routine over two index ranges that yields one
indexed row per unordered pair, holding both orders in the table's form,
so the table's one sweep fills it block by block; one Fock move gives
both orders of a grade-2 label on a spinor.  The builders work on labels
only and form no Clifford element:
the spinor-spinor bracket is the paper's L_2 on a pair of basis spinors,
written straight in grade-2 labels by its closed form (pairings._l2_coords,
the package's one copy of that case table), plus the top-grade term for
e6; brackets inside the grade-2 part come from the so(2n) table on labels
(_c2_bracket), and a grade-2 label acts on a spinor basis vector by one
Fock move (pairings._c2_move).  Every bracket is int numerators over one
denominator per algebra, and no field scalar is formed.  The e7 bracket
is written once, in _e7_chassis; its constants are solved from the
Jacobi identity of that same bracket, on the one chassis build_e7
returns when they are (1, 1).  The generic Clifford route (the four-sum
pairing, commutators, act) is the test oracle.

The result of each builder is a LieAlgebra; the checks of the
construction live in exceptional and use none of this module.
"""

from __future__ import annotations

import random
from functools import partial
from math import gcd
from typing import Optional

from .exceptional import Bracket, LieAlgebra, block_rows
from .field import Field
from .fock import Config, parity
from .norms import BilinearForm, solve_spinor_norm
from .pairings import Label, _b_num, _c2_move, _l2_coords, _top_num

SPINOR_N = {"e6": 5, "e7": 6, "e8": 8}  # the n of each construction's form=


def c2_labels(n: int) -> list[Label]:
    """Basis labels for the grade-2 part, dimension n(2n-1).

    ("ee", a, b) and ("ii", a, b) with a < b name e_a e_b and i_a i_b;
    ("ei", a, b) over all pairs names F_ab = e_a i_b - i_b e_a.  The order
    is ee block, ii block, ei block, each lexicographic.
    """
    out: list[Label] = []
    out += [("ee", a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    out += [("ii", a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    out += [("ei", a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    return out


def _builder_setup(
    n: int, field: Optional[Field], form: Optional[BilinearForm]
) -> tuple[Config, BilinearForm]:
    config = Config(n, field)
    if form is None:
        form = solve_spinor_norm(config)
    else:
        config.check_same(form.config)
        if form.flavor != "plain":
            raise ValueError("builders expect the plain-flavor norm")
    return config, form


def _c2_bracket(la: Label, lb: Label, half: int) -> dict[Label, int]:
    """[la, lb] for grade-2 labels as int numerators over 2 half, read off
    the so(2n) table.

    With F_ab = 2 e_a i_b - delta_ab, E_ab = e_a e_b and I_ab = i_a i_b
    (E and I antisymmetric in their indices, zero on a = b), the Witt
    relations give

        [F_ab, F_cd] = 2 d_bc F_ad - 2 d_ad F_cb,
        [F_ab, E_cd] = 2 d_bc E_ad - 2 d_bd E_ac,
        [F_ab, I_cd] = 2 d_ac I_db - 2 d_ad I_cb,
        [E_ab, I_cd] = (d_bc F_ad - d_bd F_ac - d_ac F_bd + d_ad F_bc) / 2,

    and E's commute with E's, I's with I's.  No Clifford product is formed.
    """
    ka, kb = la[0], lb[0]
    if (ka != "ei" and kb == "ei") or (ka, kb) == ("ii", "ee"):
        return {lab: -c for lab, c in _c2_bracket(lb, la, half).items()}
    _, a, b = la
    _, c, d = lb
    if ka == "ei":
        if kb == "ei":
            terms = ((b == c, 2, "ei", a, d), (a == d, -2, "ei", c, b))
        elif kb == "ee":
            terms = ((b == c, 2, "ee", a, d), (b == d, -2, "ee", a, c))
        else:
            terms = ((a == c, 2, "ii", d, b), (a == d, -2, "ii", c, b))
        half *= 2  # integer coefficients, where E-I brackets carry a half
    elif ka == kb:
        return {}
    else:
        terms = (
            (b == c, 1, "ei", a, d),
            (b == d, -1, "ei", a, c),
            (a == c, -1, "ei", b, d),
            (a == d, 1, "ei", b, c),
        )
    coeffs: dict[Label, int] = {}
    for hit, k, kind, x, y in terms:
        if not hit or (kind != "ei" and x == y):
            continue
        if kind != "ei" and x > y:
            x, y, k = y, x, -k
        coeffs[(kind, x, y)] = coeffs.get((kind, x, y), 0) + k
    return {lab: k * half for lab, k in coeffs.items() if k}


def _graded_algebra(
    name: str,
    config: Config,
    den: int,
    extra: list[Label],
    module: list[Label],
    pair: Bracket,
    extra_bracket: Optional[Bracket] = None,
    extra_act: Optional[Bracket] = None,
) -> LieAlgebra:
    """g0 + M with basis c2_labels(n) + extra + module, bracketed by blocks.

    g0 is the grade-2 part plus the `extra` degree-zero labels.  Each rule
    is written once, in the block routine fn over two index ranges, whose
    one row per unordered pair holds both orders in the table's form (k
    ascending, residues in [1, p) over F_p): _c2_bracket on two grade-2
    labels and pair(m, m') on two module labels, each order evaluated; one
    Fock move of a grade-2 label on the mask of a module label (kind, mask,
    ...), or extra_act of an extra label, gives [x, m] and [m, x] = -[x, m]
    at once; extra_bracket takes two extras (zero when it is None); an
    extra and a grade-2 label bracket to zero.  Every bracket is int
    numerators over den, an even number.
    """
    half, p = den // 2, config.field.characteristic
    unit = pow(den, -1, p) if p else 1
    basis = c2_labels(config.n) + extra + module
    index = {lab: i for i, lab in enumerate(basis)}
    module_kinds = {lab[0] for lab in module}
    extra_kinds = {lab[0] for lab in extra}

    def terms(coords: dict[Label, int]) -> tuple:
        if not coords:
            return ()
        if p:
            coords = {lab: r for lab, c in coords.items() if (r := c * unit % p)}
        return tuple(sorted((index[lab], c) for lab, c in coords.items() if c))

    def move(x: Label, m: Label) -> tuple:
        hit = _c2_move(x, m[1])
        if hit is None:
            return ()
        c = hit[1] * den
        return ((index[(m[0], hit[0]) + m[2:]], c * unit % p if p else c),)

    def acts(X: range, M: range, act):
        for x in X:
            for m in M:
                t = act(basis[x], basis[m])
                yield x, m, t, tuple((k, p - c) for k, c in t)

    def fn(A: range, B: range):
        ka, kb = basis[A[0]][0], basis[B[0]][0]
        ma, mb = ka in module_kinds, kb in module_kinds
        xa, xb = ka in extra_kinds, kb in extra_kinds
        if ma != mb:
            X, M, x_extra = (B, A, xb) if ma else (A, B, xa)
            return acts(X, M, (lambda x, m: terms(extra_act(x, m))) if x_extra else move)
        if ma:
            f = pair
        elif not (xa or xb):
            f = partial(_c2_bracket, half=half)
        elif xa and xb and extra_bracket:
            f = extra_bracket
        else:  # g0 = so(2n) + z with z the centralizer of so(2n) in g0
            return block_rows(A, B, lambda i, j: ())
        return block_rows(A, B, lambda i, j: terms(f(basis[i], basis[j])))

    return LieAlgebra(name, config, basis, fn, den)


def build_e8(
    field: Optional[Field] = None,
    half: str = "+",
    form: Optional[BilinearForm] = None,
) -> LieAlgebra:
    """248-dimensional: grade-2 part (120) plus a half-spinor module (128).

    The spinor-spinor bracket is the normalized grade-2 pairing.  Either
    half-spinor module works; `half` selects the even ("+") or odd ("-")
    basis masks.  A plain-flavor norm may be injected to check that the
    construction only depends on it up to scale.
    """
    if half not in ("+", "-"):
        raise ValueError("half must be '+' or '-'")
    config, form = _builder_setup(SPINOR_N["e8"], field, form)
    want = 0 if half == "+" else 1
    module = [("s", m) for m in range(config.size) if parity(m) == want]

    def pair(la: Label, lb: Label) -> dict[Label, int]:
        return _l2_coords(form, la[1], lb[1])

    return _graded_algebra("e8", config, 2 * form._den, [], module, pair)


# sl2 = span(h, e, f) with [h,e] = 2e, [h,f] = -2f, [e,f] = h, acting on
# k^2 = span(x1, x2) by h x1 = x1, h x2 = -x2, e x2 = x1, f x1 = x2.
# omega is the symplectic form with omega(x1, x2) = 1 and sigma(x, y) the
# symmetrized operator sigma(x, y) z = omega(x, z) y + omega(y, z) x.
_SL2_TABLE = {
    ("h", "e"): (("e", 2),),
    ("e", "h"): (("e", -2),),
    ("h", "f"): (("f", -2),),
    ("f", "h"): (("f", 2),),
    ("e", "f"): (("h", 1),),
    ("f", "e"): (("h", -1),),
}
_SL2_ACTION: dict[str, dict[int, tuple[tuple[int, int], ...]]] = {
    "h": {0: ((0, 1),), 1: ((1, -1),)},
    "e": {1: ((0, 1),)},
    "f": {0: ((1, 1),)},
}
_OMEGA = {(0, 1): 1, (1, 0): -1}
_SIGMA = {
    (0, 0): (("e", 2),),
    (1, 1): (("f", -2),),
    (0, 1): (("h", -1),),
    (1, 0): (("h", -1),),
}


def _jacobi_sum(L: LieAlgebra, x: int, y: int, z: int) -> tuple[dict, dict]:
    """[[x, y], z] + [[y, z], x] + [[z, x], y] in two parts, through inner
    terms b_k off sl2 and in sl2: int numerators over L.den^2, not mod p."""
    parts: tuple[dict[int, int], dict[int, int]] = ({}, {})
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        for k, s in L.numerators(a, b):
            out = parts[L.basis[k][0] == "sl2"]
            for m, t in L.numerators(k, c):
                out[m] = out.get(m, 0) + s * t
    return parts


def _e7_chassis(config: Config, form: BilinearForm, c1: int, c2: int) -> LieAlgebra:
    """e7 on the graded chassis with the int spinor bracket constants (c1, c2)."""
    den = 2 * form._den
    evens = [m for m in range(config.size) if parity(m) == 0]
    module = [("s2", m, s) for m in evens for s in (0, 1)]

    def pair(la: Label, lb: Label) -> dict[Label, int]:
        ma, sa = la[1], la[2]
        mb, sb = lb[1], lb[2]
        coords: dict[Label, int] = {}
        w = _OMEGA.get((sa, sb))
        if w:
            for lab, c in _l2_coords(form, ma, mb).items():
                coords[lab] = c * c1 * w
        # B's numerator is over form._den, half of den
        bval = 2 * c2 * _b_num(form, ma, mb)
        if bval:
            for t, k in _SIGMA[(sa, sb)]:
                coords[("sl2", t)] = bval * k
        return coords

    def sl2_bracket(la: Label, lb: Label) -> dict[Label, int]:
        return {("sl2", t): k * den for t, k in _SL2_TABLE.get((la[1], lb[1]), ())}

    def slot_act(la: Label, lb: Label) -> dict[Label, int]:
        moves = _SL2_ACTION[la[1]].get(lb[2], ())
        return {("s2", lb[1], s): k * den for s, k in moves}

    sl2 = [("sl2", t) for t in ("h", "e", "f")]
    return _graded_algebra("e7", config, den, sl2, module, pair, sl2_bracket, slot_act)


def _solve_e7_constants(L: LieAlgebra) -> tuple[int, int]:
    """The e7 bracket constants (c1, c2) as ints, solved from sampled Jacobi
    triples on L, e7's chassis at (c1, c2) = (1, 1) (residues over F_p).

    The cyclic Jacobi sum on 60 seeded triples of spinor-tensor basis
    vectors is read as int numerators off L, whose first read sweeps its
    table: at each index its parts through so(12) and sl2 are c1 a and
    c2 b, a row (a, b), mod p over F_p, with c1 a + c2 b = 0.  The pair is
    (b, -a) of the first nonzero row, primitive and leading positive over
    Q, leading 1 over F_p, and every other row must have a zero 2 x 2
    minor with it.  No nonzero row means the sampled triples constrain
    nothing, a nonzero minor that no choice of constants closes the
    bracket.  Never hardcoded; the full identity is verified downstream
    by verify_jacobi.
    """
    p = L.config.field.characteristic
    rnd = random.Random(20240801)
    evens = [m for m in range(L.config.size) if parity(m) == 0]
    rows: list[tuple[int, int]] = []
    for _ in range(60):
        triple = [
            L.index[("s2", rnd.choice(evens), rnd.choice((0, 1)))] for _ in range(3)
        ]
        # the sum is linear in the constants: c1 P + c2 Q = 0 at each index
        P, Q = _jacobi_sum(L, *triple)
        for k in sorted(P.keys() | Q.keys()):
            a, b = P.get(k, 0), Q.get(k, 0)
            rows.append((a % p, b % p) if p else (a, b))
    nonzero = [row for row in rows if any(row)]
    if not nonzero:
        raise RuntimeError("sampled Jacobi triples constrain no bracket constants")
    a, b = nonzero[0]
    if any((a * y - b * x) % p if p else a * y - b * x for x, y in nonzero):
        raise RuntimeError("no bracket constants satisfy the Jacobi identity")
    x, y = b, -a
    if p:
        lead = pow(x or y, -1, p)
        return x * lead % p, y * lead % p
    g = gcd(x, y) if (x or y) > 0 else -gcd(x, y)
    return x // g, y // g


def solve_e7_constants() -> tuple[int, int]:
    """The e7 bracket constants (c1, c2) over Q, as build_e7 solves them."""
    config, form = _builder_setup(SPINOR_N["e7"], None, None)
    return _solve_e7_constants(_e7_chassis(config, form, 1, 1))


def build_e7(
    field: Optional[Field] = None, form: Optional[BilinearForm] = None
) -> LieAlgebra:
    """133-dimensional: grade-2 part (66) + sl2 (3) + spinors tensor k^2 (64).

    n=6 pairings are symmetric where n=8 ones are antisymmetric, so the
    spinor module is doubled and twisted by the symplectic form:

        [psi (x) x, phi (x) y] = c1 omega(x, y) pairing(psi, phi)
                               + c2 B(psi, phi) sigma(x, y)

    with (c1, c2) solved at build time from the Jacobi identity of this
    same bracket on its chassis at (1, 1), which the solve sweeps and which
    is the algebra if the pair is (1, 1); another pair gets its own chassis.
    """
    config, form = _builder_setup(SPINOR_N["e7"], field, form)
    L = _e7_chassis(config, form, 1, 1)
    c1, c2 = _solve_e7_constants(L)
    return L if (c1, c2) == (1, 1) else _e7_chassis(config, form, c1, c2)


def build_e6(
    field: Optional[Field] = None,
    spinor_coeffs: tuple[int, int] = (2, 96),
    form: Optional[BilinearForm] = None,
) -> LieAlgebra:
    """78-dimensional: grade-2 part (45) + grading element (1) + spinors (32).

    The degree-zero part gains the grading element, whose bracket grades
    the spinor module by basis-mask parity.  The spinor-spinor bracket is

        [psi1, psi2] = a * pairing(psi1, psi2) + b * top_pairing(psi1, psi2)

    with (a, b) = spinor_coeffs, two ints (ValueError otherwise, before the
    norm solve), default (2, 96); Jacobi holds exactly on the line b = 48a.
    """
    if type(spinor_coeffs) is not tuple or list(map(type, spinor_coeffs)) != [int, int]:
        raise ValueError(f"spinor_coeffs must be two ints, got {spinor_coeffs!r}")
    config, form = _builder_setup(SPINOR_N["e6"], field, form)
    a, b = spinor_coeffs
    # a L_2 is over 2 form._den and b top over 2^n form._den: both go over
    # den = 2 form._den m, with m the least for which 2^n divides 2 b m
    m = config.size // gcd(config.size, 2 * b)
    den, a, b = 2 * form._den * m, a * m, 2 * b * m // config.size
    module = [("s", mask) for mask in range(config.size)]

    def parity_act(la: Label, lb: Label) -> dict[Label, int]:
        # eps e_M.v = (-1)^|M| e_M.v
        return {lb: -den if parity(lb[1]) else den}

    def pair(la: Label, lb: Label) -> dict[Label, int]:
        coords = {lab: c * a for lab, c in _l2_coords(form, la[1], lb[1]).items()}
        top = _top_num(form, la[1], lb[1])
        if top:
            coords[("eps",)] = top * b
        return coords

    return _graded_algebra(
        "e6", config, den, [("eps",)], module, pair, extra_act=parity_act
    )
