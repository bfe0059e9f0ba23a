"""The exceptional Lie algebras assembled from spinor pairings.

Three constructions on one chassis: a labeled basis, a bracket function on
label pairs, and a sparse structure-constant table memoized per unordered
pair.  The degree-zero part is always the grade-2 part of the Clifford
algebra (plus sl2 or the grading element where the construction calls for
it) acting on one of its spinor modules; the spinor-spinor bracket is built
from the grade-2 and top-grade pairings, evaluated on basis pairs by their
closed forms (basis_grade2_pairing, basis_top_grade_coefficient).  Each
bracket enters the table once: verify_antisymmetry hands the results it
computes to the table, so a later sweep does not evaluate them again.

Verification is numeric and exact: the Jacobi identity is checked as the
matrix identity ad([x,y]) = [ad x, ad y] over integer lifts, the Killing
form and its rank certify semisimplicity, and the root decomposition
recovers the Dynkin type from scratch.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, gcd, lcm
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from .clifford import CliffordElem, act, commutator, grading_element, multiply, witt_e, witt_i
from .field import Field, Rationals, Scalar, scalar_str
from .fock import Config, SpinorVec, mask_str, parity
from .linalg import IncrementalRank, echelon_rank, nullspace, rank_mod_p
from .norms import BilinearForm, solve_spinor_norm
from .pairings import basis_grade2_pairing, basis_top_grade_coefficient

Label = tuple


class DecompositionError(ValueError):
    """An element fell outside the span it was asked to be written in."""


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


def label_str(label: Label) -> str:
    """Short printable form, also used in the JSON export."""
    kind = label[0]
    if kind == "ee":
        return f"e{label[1]}e{label[2]}"
    if kind == "ii":
        return f"i{label[1]}i{label[2]}"
    if kind == "ei":
        return f"ei({label[1]},{label[2]})"
    if kind == "sl2":
        return f"sl2({label[1]})"
    if kind == "eps":
        return "eps"
    if kind == "s":
        return "S" + mask_str(label[1])
    if kind == "s2":
        return f"S{mask_str(label[1])}x{label[2] + 1}"
    raise ValueError(f"unknown label {label!r}")


def is_spinor_label(label: Label) -> bool:
    return label[0] in ("s", "s2")


@lru_cache(maxsize=None)
def c2_elem(config: Config, label: Label) -> CliffordElem:
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


def c2_coords(x: CliffordElem) -> dict[Label, Scalar]:
    """Write a grade-2 element in the c2_labels basis.

    Monomial pattern (2,0) is an ee term, (0,2) an ii term, (1,1) half an
    F_ab; the scalar monomial must equal minus the diagonal F_aa total
    (each F_aa = 2 e_a i_a - 1 carries a constant).  Anything else raises
    DecompositionError.
    """
    field = x.config.field
    half = field.from_fraction(1, 2)
    coords: dict[Label, Scalar] = {}
    const = field.zero()
    diag = field.zero()
    for (emask, imask), c in x.terms.items():
        en, im = emask.bit_count(), imask.bit_count()
        if en == 0 and im == 0:
            const = c
        elif en == 2 and im == 0:
            a = (emask & -emask).bit_length()
            coords[("ee", a, emask.bit_length())] = c
        elif en == 0 and im == 2:
            a = (imask & -imask).bit_length()
            coords[("ii", a, imask.bit_length())] = c
        elif en == 1 and im == 1:
            a, b = emask.bit_length(), imask.bit_length()
            val = c * half
            coords[("ei", a, b)] = val
            if a == b:
                diag = diag + val
        else:
            raise DecompositionError(
                f"monomial {(emask, imask)} lies outside the grade-2 span"
            )
    if const != -diag:
        raise DecompositionError("constant term does not match the diagonal part")
    return coords


class LieAlgebra:
    """A Lie algebra with labeled basis and lazily computed sparse brackets.

    Structure constants come from fn(label_a, label_b) -> {label: scalar}
    on first use; only the i < j entry is stored and the flipped order is
    resolved by a sign, so the stored table is antisymmetric by
    construction (verify_antisymmetry checks fn itself).  Each entry is
    stored once and never replaced, so every bracket is evaluated at most
    once into the table.
    """

    __slots__ = ("name", "config", "basis", "index", "_fn", "_table")

    def __init__(
        self,
        name: str,
        config: Config,
        basis: list[Label],
        fn: Callable[[Label, Label], dict[Label, Scalar]],
    ) -> None:
        self.name = name
        self.config = config
        self.basis = tuple(basis)
        self.index = {lab: i for i, lab in enumerate(self.basis)}
        if len(self.index) != len(self.basis):
            raise ValueError("duplicate basis labels")
        self._fn = fn
        self._table: dict[tuple[int, int], tuple[tuple[int, Scalar], ...]] = {}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def raw_bracket(self, la: Label, lb: Label) -> dict[Label, Scalar]:
        """fn evaluated directly, zero coefficients dropped, unmemoized."""
        return {lab: c for lab, c in self._fn(la, lb).items() if c}

    def bracket(self, i: int, j: int) -> tuple[tuple[int, Scalar], ...]:
        """[b_i, b_j] as ((k, coefficient), ...) ascending in k."""
        if i == j:
            return ()
        if i > j:
            return tuple((k, -c) for k, c in self.bracket(j, i))
        got = self._table.get((i, j))
        if got is None:
            got = self.remember(i, j, self.raw_bracket(self.basis[i], self.basis[j]))
        return got

    def remember(self, i: int, j: int, coords: dict[Label, Scalar]) -> tuple:
        """Store coords = raw_bracket(b_i, b_j), i < j, unless [b_i, b_j] is stored.

        For callers that have already evaluated the bracket function on
        the pair, so the table does not evaluate it again.  An entry
        already present (a mutated copy's flipped sign, say) is kept.
        Returns the stored entry.
        """
        if not 0 <= i < j < self.dim:
            raise ValueError(f"bad index pair ({i}, {j})")
        got = self._table.get((i, j))
        if got is None:
            got = tuple(sorted((self.index[lab], c) for lab, c in coords.items()))
            self._table[(i, j)] = got
        return got

    def with_entry(
        self, i: int, j: int, terms: tuple[tuple[int, Scalar], ...], name: str
    ) -> "LieAlgebra":
        """A copy named `name` that shares every stored bracket but [b_i, b_j]."""
        clone = LieAlgebra(name, self.config, self.basis, self._fn)
        clone._table = dict(self._table)
        clone._table[(i, j)] = terms
        return clone

    def materialize(self) -> "LieAlgebra":
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                self.bracket(i, j)
        return self

    def nonzero_brackets(self) -> list[tuple[tuple[int, int], tuple]]:
        """Sorted ((i, j), terms) over the memoized nonzero brackets."""
        return [(ij, t) for ij, t in sorted(self._table.items()) if t]

    def spinor_indices(self) -> list[int]:
        return [i for i, lab in enumerate(self.basis) if is_spinor_label(lab)]

    def degree_zero_indices(self) -> list[int]:
        return [i for i, lab in enumerate(self.basis) if not is_spinor_label(lab)]

    def __repr__(self) -> str:
        return (
            f"LieAlgebra({self.name!r}, dim={self.dim}, "
            f"field={self.config.field.spec})"
        )


def with_flipped_sign(L: LieAlgebra, i: int, j: int, k: int) -> LieAlgebra:
    """A copy of L with the sign of one structure constant flipped.

    The copy shares every other table entry; it exists to feed the
    verifiers deliberately broken input.
    """
    if i == j:
        raise ValueError("mutation needs two distinct basis indices")
    if i > j:
        i, j = j, i
    terms = L.bracket(i, j)
    if k not in {t[0] for t in terms}:
        raise ValueError(f"no structure constant at ({i}, {j}, {k})")
    flipped = tuple((kk, -c if kk == k else c) for kk, c in terms)
    return L.with_entry(i, j, flipped, f"{L.name}~flip({i},{j},{k})")


def _builder_setup(
    n: int, field: Optional[Field], form: Optional[BilinearForm]
) -> tuple[Config, BilinearForm]:
    config = Config(n, field if field is not None else Rationals())
    if form is None:
        form = solve_spinor_norm(config)
    else:
        config.check_same(form.config)
        if form.flavor != "plain":
            raise ValueError("builders expect the plain-flavor norm")
    return config, form


def _c2_pair_coords(config: Config, la: Label, lb: Label) -> dict[Label, Scalar]:
    return c2_coords(commutator(c2_elem(config, la), c2_elem(config, lb)))


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
    config, form = _builder_setup(8, field, form)
    if half not in ("+", "-"):
        raise ValueError("half must be '+' or '-'")
    want = 0 if half == "+" else 1
    labels = c2_labels(8)
    labels += [("s", m) for m in range(config.size) if parity(m) == want]

    def fn(la: Label, lb: Label) -> dict[Label, Scalar]:
        sa, sb = la[0] == "s", lb[0] == "s"
        if not sa and not sb:
            return _c2_pair_coords(config, la, lb)
        if not sa:
            out = act(c2_elem(config, la), SpinorVec.basis(config, lb[1]))
            return {("s", m): c for m, c in out.terms.items()}
        if not sb:
            out = act(c2_elem(config, lb), SpinorVec.basis(config, la[1]))
            return {("s", m): -c for m, c in out.terms.items()}
        return c2_coords(basis_grade2_pairing(form, la[1], lb[1]))

    return LieAlgebra("e8", config, labels, fn)


# sl2 = span(h, e, f) with [h,e] = 2e, [h,f] = -2f, [e,f] = h, acting on
# k^2 = span(x1, x2) by h x1 = x1, h x2 = -x2, e x2 = x1, f x1 = x2.
# omega is the symplectic form with omega(x1, x2) = 1 and sigma(x, y) the
# symmetrized operator sigma(x, y) z = omega(x, z) y + omega(y, z) x.
_SL2_TABLE = {
    ("h", "e"): (("e", 2),),
    ("h", "f"): (("f", -2),),
    ("e", "f"): (("h", 1),),
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


def _e7_jacobi_rows(
    config: Config, form: BilinearForm, triple: tuple
) -> list[list[Scalar]]:
    """Constraint rows c1 * P + c2 * Q = 0 from one spinor-tensor triple.

    For [psi (x) x, phi (x) y] = c1 omega(x,y) pairing(psi,phi)
    + c2 B(psi,phi) sigma(x,y), the cyclic Jacobi sum over a triple is
    linear in (c1, c2); P collects the pairing-action part and Q the
    sigma part, one row per output coordinate.
    """
    field = config.field
    pvals: dict[tuple[int, int], Scalar] = {}
    qvals: dict[tuple[int, int], Scalar] = {}
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        ma, sa = triple[a]
        mb, sb = triple[b]
        mc, sc = triple[c]
        w = _OMEGA.get((sa, sb))
        if w:
            elem = basis_grade2_pairing(form, ma, mb)
            out = act(elem, SpinorVec.basis(config, mc))
            ws = field.from_int(w)
            for m, coeff in out.terms.items():
                key = (m, sc)
                add = coeff * ws
                prev = pvals.get(key)
                pvals[key] = add if prev is None else prev + add
        bval = form.entry(ma, mb)
        if bval:
            for slot, w2 in ((sb, _OMEGA.get((sa, sc))), (sa, _OMEGA.get((sb, sc)))):
                if not w2:
                    continue
                key = (mc, slot)
                add = bval * field.from_int(w2)
                prev = qvals.get(key)
                qvals[key] = add if prev is None else prev + add
    zero = field.zero()
    return [
        [pvals.get(key, zero), qvals.get(key, zero)]
        for key in sorted(set(pvals) | set(qvals))
    ]


def _normalize_pair(field: Field, vec: list[Scalar]) -> tuple[Scalar, Scalar]:
    a, b = vec
    if field.characteristic == 0:
        den = lcm(a.denominator, b.denominator)
        ai, bi = int(a * den), int(b * den)
        g = gcd(ai, bi)
        if g:
            ai, bi = ai // g, bi // g
        if ai < 0 or (ai == 0 and bi < 0):
            ai, bi = -ai, -bi
        return field.from_int(ai), field.from_int(bi)
    lead = a if a else b
    return a / lead, b / lead


def _solve_e7_constants(
    config: Config, form: BilinearForm
) -> tuple[Scalar, Scalar]:
    """The bracket constants (c1, c2), solved from sampled Jacobi triples.

    The solution space must be exactly one-dimensional: rank 0 would mean
    the sampled triples constrain nothing, rank 2 that no choice of
    constants closes the bracket.  Never hardcoded; the full identity is
    verified downstream by verify_jacobi.
    """
    rnd = random.Random(20240801)
    evens = [m for m in range(config.size) if parity(m) == 0]
    rows: list[list[Scalar]] = []
    for _ in range(60):
        triple = tuple(
            (rnd.choice(evens), rnd.choice((0, 1))) for _ in range(3)
        )
        rows.extend(_e7_jacobi_rows(config, form, triple))
    rank = echelon_rank(rows, config.field)
    if rank == 0:
        raise RuntimeError("sampled Jacobi triples constrain no bracket constants")
    if rank > 1:
        raise RuntimeError("no bracket constants satisfy the Jacobi identity")
    return _normalize_pair(config.field, nullspace(rows, 2, config.field)[0])


def solve_e7_constants(
    field: Optional[Field] = None, form: Optional[BilinearForm] = None
) -> tuple[Scalar, Scalar]:
    """Public wrapper around the n=6 constant solve (same defaults as build_e7)."""
    config, form = _builder_setup(6, field, form)
    return _solve_e7_constants(config, form)


def build_e7(
    field: Optional[Field] = None, form: Optional[BilinearForm] = None
) -> LieAlgebra:
    """133-dimensional: grade-2 part (66) + sl2 (3) + spinors tensor k^2 (64).

    n=6 pairings are symmetric where n=8 ones are antisymmetric, so the
    spinor module is doubled and twisted by the symplectic form:

        [psi (x) x, phi (x) y] = c1 omega(x, y) pairing(psi, phi)
                               + c2 B(psi, phi) sigma(x, y)

    with (c1, c2) solved at build time from the Jacobi identity itself.
    """
    config, form = _builder_setup(6, field, form)
    field_ = config.field
    c1, c2 = _solve_e7_constants(config, form)
    labels = c2_labels(6) + [("sl2", t) for t in ("h", "e", "f")]
    labels += [
        ("s2", m, s)
        for m in range(config.size)
        if parity(m) == 0
        for s in (0, 1)
    ]

    def fn(la: Label, lb: Label) -> dict[Label, Scalar]:
        ka, kb = la[0], lb[0]
        if ka == "s2" and kb == "s2":
            ma, sa = la[1], la[2]
            mb, sb = lb[1], lb[2]
            coords: dict[Label, Scalar] = {}
            w = _OMEGA.get((sa, sb))
            if w:
                pair = basis_grade2_pairing(form, ma, mb)
                cw = c1 * field_.from_int(w)
                for lab, c in c2_coords(pair).items():
                    coords[lab] = c * cw
            bval = form.entry(ma, mb)
            if bval:
                cb = c2 * bval
                for t, k in _SIGMA[(sa, sb)]:
                    lab = ("sl2", t)
                    add = cb * field_.from_int(k)
                    prev = coords.get(lab)
                    coords[lab] = add if prev is None else prev + add
            return coords
        if ka == "sl2" and kb == "sl2":
            ta, tb = la[1], lb[1]
            if ta == tb:
                return {}
            entry = _SL2_TABLE.get((ta, tb))
            if entry is not None:
                return {("sl2", t): field_.from_int(k) for t, k in entry}
            return {
                ("sl2", t): field_.from_int(-k) for t, k in _SL2_TABLE[(tb, ta)]
            }
        if ka == "sl2" and kb == "s2":
            moves = _SL2_ACTION[la[1]].get(lb[2], ())
            return {("s2", lb[1], s): field_.from_int(k) for s, k in moves}
        if ka == "s2" and kb == "sl2":
            moves = _SL2_ACTION[lb[1]].get(la[2], ())
            return {("s2", la[1], s): field_.from_int(-k) for s, k in moves}
        if ka == "sl2" or kb == "sl2":
            # sl2 commutes with the grade-2 part
            return {}
        if ka == "s2":
            out = act(c2_elem(config, lb), SpinorVec.basis(config, la[1]))
            return {("s2", m, la[2]): -c for m, c in out.terms.items()}
        if kb == "s2":
            out = act(c2_elem(config, la), SpinorVec.basis(config, lb[1]))
            return {("s2", m, lb[2]): c for m, c in out.terms.items()}
        return _c2_pair_coords(config, la, lb)

    return LieAlgebra("e7", config, labels, fn)


def build_e6(
    field: Optional[Field] = None,
    spinor_coeffs: tuple[int, int] = (2, 96),
    form: Optional[BilinearForm] = None,
) -> LieAlgebra:
    """78-dimensional: grade-2 part (45) + grading element (1) + spinors (32).

    The degree-zero part gains the grading element, whose bracket grades
    the spinor module by basis-mask parity.  The spinor-spinor bracket is

        [psi1, psi2] = a * pairing(psi1, psi2) + b * top_pairing(psi1, psi2)

    with (a, b) = spinor_coeffs, default (2, 96); Jacobi holds exactly on
    the line b = 48a (see sweep_e6_coefficients).
    """
    config, form = _builder_setup(5, field, form)
    field_ = config.field
    a_s = field_.from_int(spinor_coeffs[0])
    b_s = field_.from_int(spinor_coeffs[1])
    labels = c2_labels(5) + [("eps",)]
    labels += [("s", m) for m in range(config.size)]
    eps = grading_element(config)

    def zero_part(lab: Label) -> CliffordElem:
        return eps if lab[0] == "eps" else c2_elem(config, lab)

    def fn(la: Label, lb: Label) -> dict[Label, Scalar]:
        ka, kb = la[0], lb[0]
        if ka != "s" and kb != "s":
            x = commutator(zero_part(la), zero_part(lb))
            if ka == "eps" or kb == "eps":
                if not x.is_zero():
                    raise RuntimeError(
                        "grading element failed to centralize the grade-2 part"
                    )
                return {}
            return c2_coords(x)
        if ka != "s":
            out = act(zero_part(la), SpinorVec.basis(config, lb[1]))
            return {("s", m): c for m, c in out.terms.items()}
        if kb != "s":
            out = act(zero_part(lb), SpinorVec.basis(config, la[1]))
            return {("s", m): -c for m, c in out.terms.items()}
        pair = basis_grade2_pairing(form, la[1], lb[1])
        coords: dict[Label, Scalar] = {
            lab: c * a_s for lab, c in c2_coords(pair).items()
        }
        top = basis_top_grade_coefficient(form, la[1], lb[1])
        if top:
            coords[("eps",)] = top * b_s
        return coords

    return LieAlgebra("e6", config, labels, fn)


def sweep_e6_coefficients(
    candidates: list[tuple[int, int]], field: Optional[Field] = None
) -> list[tuple[int, int]]:
    """The (a, b) candidates whose spinor bracket satisfies Jacobi.

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


# --- integer lifts and the keyed-product engine for Jacobi and Killing ---


def _lifted_table(L: LieAlgebra) -> tuple[dict, int, Optional[int]]:
    """Materialize L and lift its structure constants to integers.

    Over Q every constant is scaled by D = lcm of all denominators, so a
    product of two constants lives on the D^2 scale; over F_p constants
    are lifted to canonical representatives and residuals reduced mod p.
    """
    table = L.materialize().nonzero_brackets()
    p = L.config.field.characteristic or None
    if p is None:
        d = 1
        for _, terms in table:
            for _, c in terms:
                d = lcm(d, c.denominator)
        lifted = {ij: tuple((k, int(c * d)) for k, c in terms) for ij, terms in table}
        return lifted, d, None
    lifted = {ij: tuple((k, c.value) for k, c in terms) for ij, terms in table}
    return lifted, 1, p


# Index pairs per batch of the product engine: the joined arrays of one
# batch stay a few MiB on e8, so memory does not grow with the sweep.
_BATCH_PAIRS = 1024


def _ragged(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, index) over every index in every range [starts[q], stops[q])."""
    lens = stops - starts
    owner = np.repeat(np.arange(lens.size), lens)
    offsets = np.cumsum(lens) - lens
    return owner, np.arange(owner.size) - offsets[owner] + starts[owner]


class _AdjointProducts:
    """Every ad b_a stored once, as row-sorted COO arrays over integer lifts.

    Indices are int64 arrays and values Python ints in object arrays, so
    no product or sum can overflow and one code path serves Q and every
    prime.  Products ad_a ad_b for a batch of index pairs come from a
    ragged join of the entries of ad_a with the rows of ad_b.
    """

    def __init__(self, L: LieAlgebra) -> None:
        lifted, self.scale, self.p = _lifted_table(L)
        n = self.n = L.dim
        mat, row, col, val = [], [], [], []
        keys, ptr, term_k, term_v = [], [0], [], []
        for (i, j), terms in lifted.items():
            keys.append(i * n + j)
            for k, v in terms:
                term_k.append(k)
                term_v.append(v)
                # ad_i[k, j] = v and ad_j[k, i] = -v
                mat += (i, j)
                row += (k, k)
                col += (j, i)
                val += (v, -v)
            ptr.append(len(term_k))
        # a sentinel past every real key keeps lookups in range
        self.pair_key = np.array(keys + [n * n], dtype=np.int64)
        self.term_ptr = np.array(ptr + [len(term_k)], dtype=np.int64)
        self.term_k = np.array(term_k, dtype=np.int64)
        self.term_v = np.array(term_v, dtype=object)
        mat_a = np.array(mat, dtype=np.int64)
        row_a = np.array(row, dtype=np.int64)
        order = np.lexsort((row_a, mat_a))
        self.row = row_a[order]
        self.col = np.array(col, dtype=np.int64)[order]
        self.val = np.array(val, dtype=object)[order]
        mat_a = mat_a[order]
        self.mat_ptr = np.searchsorted(mat_a, np.arange(n + 1))
        self.row_ptr = np.searchsorted(mat_a * n + self.row, np.arange(n * n + 1))

    def join(self, left: np.ndarray, right: np.ndarray):
        """(q, e, f): entry e of ad_left[q] meets entry f of ad_right[q].

        Each triple is one term of (ad_left[q] ad_right[q])[row[e], col[f]],
        with value val[e] * val[f].
        """
        q, e = _ragged(self.mat_ptr[left], self.mat_ptr[left + 1])
        at = right[q] * self.n + self.col[e]
        hit, f = _ragged(self.row_ptr[at], self.row_ptr[at + 1])
        return q[hit], e[hit], f

    def jacobi_violations(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Batch positions q, ascending, where ad [b_l, b_r] != [ad b_l, ad b_r]
        for l = left[q] < r = right[q]."""
        n = self.n
        keys, vals = [], []
        for a, b, sign in ((left, right, 1), (right, left, -1)):
            q, e, f = self.join(a, b)
            keys.append((q * n + self.row[e]) * n + self.col[f])
            vals.append(sign * (self.val[e] * self.val[f]))
        # minus sum_m c_lr^m ad_m, from the stored terms of [b_l, b_r]
        want = left * n + right
        pos = np.searchsorted(self.pair_key, want)
        found = self.pair_key[pos] == want
        q, s = _ragged(
            np.where(found, self.term_ptr[pos], 0),
            np.where(found, self.term_ptr[pos + 1], 0),
        )
        m = self.term_k[s]
        hit, g = _ragged(self.mat_ptr[m], self.mat_ptr[m + 1])
        keys.append((q[hit] * n + self.row[g]) * n + self.col[g])
        vals.append(-(self.term_v[s[hit]] * self.val[g]))
        key = np.concatenate(keys)
        if not key.size:
            return key
        order = np.argsort(key)
        key = key[order]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        sums = np.add.reduceat(np.concatenate(vals)[order], starts)
        if self.p is not None:
            sums = sums % self.p
        return np.unique(key[starts][sums != 0] // (n * n))

    def gram(self) -> list[list[int]]:
        """tr(ad_i ad_j) for all i, j: the diagonal terms of the products."""
        n = self.n
        gram = [[0] * n for _ in range(n)]
        upper_i, upper_j = np.triu_indices(n)
        for s in range(0, upper_i.size, _BATCH_PAIRS):
            left = upper_i[s : s + _BATCH_PAIRS]
            right = upper_j[s : s + _BATCH_PAIRS]
            q, e, f = self.join(left, right)
            diag = self.row[e] == self.col[f]
            q, e, f = q[diag], e[diag], f[diag]
            if not q.size:
                continue
            starts = np.flatnonzero(np.r_[True, q[1:] != q[:-1]])
            sums = np.add.reduceat(self.val[e] * self.val[f], starts)
            for t, v in zip(q[starts].tolist(), sums):
                i, j = int(left[t]), int(right[t])
                gram[i][j] = gram[j][i] = v
        return gram


class JacobiReport:
    """Outcome of a Jacobi sweep; truthy exactly when no pair violated."""

    __slots__ = (
        "algebra",
        "field",
        "dim",
        "pairs_checked",
        "triples_covered",
        "violations",
        "seconds",
    )

    def __init__(
        self, algebra, field, dim, pairs_checked, triples_covered, violations, seconds
    ) -> None:
        self.algebra = algebra
        self.field = field
        self.dim = dim
        self.pairs_checked = pairs_checked
        self.triples_covered = triples_covered
        self.violations = violations
        self.seconds = seconds

    def __bool__(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "field": self.field,
            "dim": self.dim,
            "pairs_checked": self.pairs_checked,
            "triples_covered": self.triples_covered,
            "violations": [list(v) for v in self.violations],
            "ok": bool(self),
            "seconds": round(self.seconds, 3),
        }

    def __repr__(self) -> str:
        return (
            f"JacobiReport({self.algebra}, pairs={self.pairs_checked}, "
            f"triples={self.triples_covered}, violations={len(self.violations)})"
        )


def verify_jacobi(L: LieAlgebra, pairs=None) -> JacobiReport:
    """Check ad([b_i, b_j]) = [ad b_i, ad b_j] for the given index pairs.

    Each pair identity covers every Jacobi triple (b_i, b_j, b_k) at once,
    so the default full sweep covers all C(dim, 3) distinct triples.  Work
    is exact, on Python ints over integer lifts (reduced mod p over F_p):
    the pairs go through the keyed-product engine in batches of at most
    _BATCH_PAIRS, whose terms of ad_i ad_j, ad_j ad_i and
    sum_k c_ij^k ad_k are summed by (pair, row, column) key.
    """
    t0 = perf_counter()
    n = L.dim
    if pairs is None:
        pair_list = [(i, j) for i in range(n) for j in range(i + 1, n)]
        triples = comb(n, 3)
    else:
        pair_list = sorted({(min(i, j), max(i, j)) for i, j in pairs})
        for i, j in pair_list:
            if i == j or not 0 <= i < j < n:
                raise ValueError(f"bad index pair ({i}, {j})")
        covered = {
            (i, j, k) if k > j else ((i, k, j) if k > i else (k, i, j))
            for i, j in pair_list
            for k in range(n)
            if k != i and k != j
        }
        triples = len(covered)

    engine = _AdjointProducts(L)
    violations = []
    for s in range(0, len(pair_list), _BATCH_PAIRS):
        batch = np.array(pair_list[s : s + _BATCH_PAIRS], dtype=np.int64)
        bad = engine.jacobi_violations(batch[:, 0], batch[:, 1])
        violations += [pair_list[s + q] for q in bad.tolist()]

    return JacobiReport(
        L.name,
        L.config.field.spec,
        n,
        len(pair_list),
        triples,
        tuple(violations),
        perf_counter() - t0,
    )


def verify_antisymmetry(L: LieAlgebra, pairs=None) -> list[tuple[int, int]]:
    """Index pairs where the builder function itself fails antisymmetry.

    The stored table is antisymmetric by construction, so this evaluates
    the raw bracket function in both orders (and on the diagonal, which
    must vanish).  The ascending-order result is handed to L.remember, so
    a later materialize or Jacobi sweep does not evaluate it again.
    """
    n = L.dim
    if pairs is None:
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
    bad = []
    for i, j in pairs:
        fwd = L.raw_bracket(L.basis[i], L.basis[j])
        if i == j:
            if fwd:
                bad.append((i, j))
            continue
        rev = L.raw_bracket(L.basis[j], L.basis[i])
        if i < j:
            L.remember(i, j, fwd)
        else:
            L.remember(j, i, rev)
        if fwd != {lab: -c for lab, c in rev.items()}:
            bad.append((i, j))
    return bad


def killing_form(L: LieAlgebra) -> tuple[list[list[Scalar]], int]:
    """The Killing matrix kappa(b_i, b_j) = tr(ad b_i ad b_j) and its rank.

    The Gram matrix comes from the keyed-product engine of verify_jacobi:
    exact Python ints over the integer lifts, the pairs i <= j in bounded
    batches, each entry the sum of the diagonal terms of ad_i ad_j.  Over
    Q the rank is certified mod 2^31 - 1 (full rank mod a prime implies
    full rank over Q) with an exact fraction elimination fallback; over
    F_p the modular rank is the exact field rank.
    """
    engine = _AdjointProducts(L)
    gram = engine.gram()
    n = L.dim
    field = L.config.field
    p = engine.p
    if p is None:
        denom = engine.scale * engine.scale
        matrix = [[Fraction(v, denom) for v in row] for row in gram]
        rank = rank_mod_p(gram, (1 << 31) - 1)
        if rank < n:
            rank = echelon_rank(matrix, field)
    else:
        matrix = [[field.from_int(v) for v in row] for row in gram]
        if p <= (1 << 31) - 1:
            rank = rank_mod_p(gram, p)
        else:
            rank = echelon_rank(matrix, field)
    return matrix, rank


class SpanReport:
    """Rank of the degree-zero span of all spinor-spinor brackets."""

    __slots__ = ("rank", "expected", "pairs_used")

    def __init__(self, rank: int, expected: int, pairs_used: int) -> None:
        self.rank = rank
        self.expected = expected
        self.pairs_used = pairs_used

    def __bool__(self) -> bool:
        return self.rank == self.expected

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "expected": self.expected,
            "pairs_used": self.pairs_used,
            "ok": bool(self),
        }

    def __repr__(self) -> str:
        return f"SpanReport(rank={self.rank}, expected={self.expected})"


def spanning_check(L: LieAlgebra) -> SpanReport:
    """Do the spinor-spinor brackets span the whole degree-zero part?

    Incremental rank with early exit; pairs_used counts the brackets fed
    before the span filled up (or all nonzero ones if it never did).
    """
    zero_idx = L.degree_zero_indices()
    expected = len(zero_idx)
    pos = {k: t for t, k in enumerate(zero_idx)}
    acc = IncrementalRank(L.config.field)
    pairs_used = 0
    for a, b in combinations(L.spinor_indices(), 2):
        terms = L.bracket(a, b)
        if not terms:
            continue
        vec = {}
        for k, c in terms:
            t = pos.get(k)
            if t is None:
                raise RuntimeError(
                    "spinor bracket leaked outside the degree-zero part"
                )
            vec[t] = c
        pairs_used += 1
        acc.add(vec)
        if acc.rank == expected:
            break
    return SpanReport(acc.rank, expected, pairs_used)


class RootDatum:
    """Cartan weights, roots, simple roots and the detected Dynkin type."""

    __slots__ = (
        "algebra",
        "cartan_labels",
        "cartan_indices",
        "weights",
        "roots",
        "positive_roots",
        "simple_roots",
        "cartan_matrix",
        "rank",
        "type_name",
        "root_norms",
    )

    def __init__(self, **kw) -> None:
        for name in self.__slots__:
            setattr(self, name, kw[name])

    def to_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "type": self.type_name,
            "rank": self.rank,
            "root_count": len(self.roots),
            "simple_roots": [list(r) for r in self.simple_roots],
            "cartan_matrix": [list(r) for r in self.cartan_matrix],
            "root_norms": sorted(str(v) for v in self.root_norms),
        }

    def __repr__(self) -> str:
        return (
            f"RootDatum({self.algebra}: type={self.type_name}, rank={self.rank}, "
            f"roots={len(self.roots)})"
        )


def _first_nonzero_positive(vec: tuple[int, ...]) -> bool:
    for v in vec:
        if v:
            return v > 0
    return False


def _fraction_inverse(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    r = len(mat)
    aug = [
        list(row) + [Fraction(int(i == j)) for j in range(r)]
        for i, row in enumerate(mat)
    ]
    for col in range(r):
        piv = next((i for i in range(col, r) if aug[i][col]), None)
        if piv is None:
            raise ValueError("restricted Killing form is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for i in range(r):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[r:] for row in aug]


def _dynkin_type(a: list[tuple[int, ...]]) -> str:
    r = len(a)
    adj = {i: [j for j in range(r) if j != i and a[i][j]] for i in range(r)}
    if sum(len(v) for v in adj.values()) != 2 * (r - 1):
        raise ValueError("Dynkin graph is not a tree")
    seen = {0}
    queue = [0]
    while queue:
        cur = queue.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    if len(seen) != r:
        raise ValueError("Dynkin graph is not connected")
    hubs = [i for i in range(r) if len(adj[i]) == 3]
    if len(hubs) != 1 or any(len(adj[i]) > 3 for i in range(r)):
        raise ValueError("unrecognised Dynkin diagram")
    hub = hubs[0]
    lengths = []
    for start in adj[hub]:
        ln, prev, cur = 1, hub, start
        while True:
            nxt = [x for x in adj[cur] if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            ln += 1
        lengths.append(ln)
    names = {(1, 2, 2): "E6", (1, 2, 3): "E7", (1, 2, 4): "E8"}
    key = tuple(sorted(lengths))
    if key not in names:
        raise ValueError("unrecognised Dynkin diagram")
    return names[key]


def root_decomposition(L: LieAlgebra) -> RootDatum:
    """Decompose L under its diagonal Cartan subalgebra and name the type.

    The Cartan basis is the diagonal grade-2 part F_aa (plus the sl2 h or
    the grading element when present); every other basis vector must be a
    simultaneous ad-eigenvector with integer weights.  Root lengths use
    the Killing form restricted to the Cartan, computed from the roots
    themselves.  Rational field only.
    """
    if L.config.field.characteristic != 0:
        raise ValueError("root decomposition requires the rational field")
    cartan_idx = [
        i
        for i, lab in enumerate(L.basis)
        if (lab[0] == "ei" and lab[1] == lab[2])
        or lab == ("sl2", "h")
        or lab == ("eps",)
    ]
    for a, b in combinations(cartan_idx, 2):
        if L.bracket(a, b):
            raise ValueError("chosen Cartan subalgebra is not abelian")
    r = len(cartan_idx)
    weights = []
    for x in range(L.dim):
        w = []
        for c in cartan_idx:
            terms = L.bracket(c, x)
            if not terms:
                w.append(0)
            elif len(terms) == 1 and terms[0][0] == x:
                val = terms[0][1]
                if val.denominator != 1:
                    raise ValueError(
                        f"non-integral weight on {label_str(L.basis[x])}"
                    )
                w.append(int(val))
            else:
                raise ValueError(
                    f"{label_str(L.basis[x])} is not a Cartan eigenvector"
                )
        weights.append(tuple(w))
    cartan_set = set(cartan_idx)
    roots = []
    for x in range(L.dim):
        if x in cartan_set:
            continue
        if not any(weights[x]):
            raise ValueError("zero weight outside the Cartan subalgebra")
        roots.append(weights[x])
    if len(set(roots)) != len(roots):
        raise ValueError("repeated root")

    killing = [
        [Fraction(sum(g[s] * g[t] for g in roots)) for t in range(r)]
        for s in range(r)
    ]
    kinv = _fraction_inverse(killing)

    def ip(al, be):
        return sum(
            Fraction(al[s]) * sum(kinv[s][t] * be[t] for t in range(r))
            for s in range(r)
        )

    positive = sorted(g for g in roots if _first_nonzero_positive(g))
    if 2 * len(positive) != len(roots):
        raise ValueError("roots do not split into opposite halves")
    pos_set = set(positive)
    simple = []
    for al in positive:
        if not any(
            tuple(al[s] - be[s] for s in range(r)) in pos_set
            for be in positive
            if be != al
        ):
            simple.append(al)
    if len(simple) != r:
        raise ValueError(f"found {len(simple)} simple roots, expected {r}")
    simple = sorted(simple)

    cartan_matrix = []
    for al in simple:
        row = []
        for be in simple:
            val = 2 * ip(al, be) / ip(be, be)
            if val.denominator != 1:
                raise ValueError("non-integral Cartan matrix entry")
            row.append(int(val))
        cartan_matrix.append(tuple(row))
    for i in range(r):
        if cartan_matrix[i][i] != 2:
            raise ValueError("Cartan matrix diagonal is not 2")
        for j in range(r):
            if i != j and cartan_matrix[i][j] not in (0, -1):
                raise ValueError("unexpected off-diagonal Cartan matrix entry")

    return RootDatum(
        algebra=L.name,
        cartan_labels=tuple(L.basis[i] for i in cartan_idx),
        cartan_indices=tuple(cartan_idx),
        weights=tuple(weights),
        roots=tuple(sorted(roots)),
        positive_roots=tuple(positive),
        simple_roots=tuple(simple),
        cartan_matrix=tuple(cartan_matrix),
        rank=r,
        type_name=_dynkin_type(cartan_matrix),
        root_norms=frozenset(ip(g, g) for g in roots),
    )


def to_json(L: LieAlgebra) -> str:
    """Deterministic structure-constant export: same build, same bytes.

    Schema: {"name", "field", "dim", "basis": [label strings],
    "brackets": [{"i", "j", "terms": [[k, scalar string], ...]}, ...]}
    with i < j ascending and only nonzero brackets listed.
    """
    brackets = [
        {"i": i, "j": j, "terms": [[k, scalar_str(c)] for k, c in terms]}
        for (i, j), terms in L.materialize().nonzero_brackets()
    ]
    obj = {
        "name": L.name,
        "field": L.config.field.spec,
        "dim": L.dim,
        "basis": [label_str(lab) for lab in L.basis],
        "brackets": brackets,
    }
    return json.dumps(obj, separators=(",", ":")) + "\n"
