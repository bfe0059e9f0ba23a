"""Spinor-pair operators valued in the Clifford algebra.

The central object is the normalized grade-2 pairing taking two spinors to
an element of the grade-2 part (the orthogonal Lie algebra inside C).  The
four-sum grade2_pairing works on any two spinors and is the oracle: one
signed Fock move per (word term, spinor term), pruned by masks alone (a
spinor term visits the word terms whose i-mask lies in its mask and whose
e-mask misses the rest), never by the basis case table.  On Fock basis
pairs the pairing has the paper's closed form, the one case table of
this package: _l2_coords writes it as int numerators on grade-2 labels,
grade2_pairing_on_basis applies it to a third basis spinor through
_c2_move, and the e6/e7/e8 builders run the two themselves, with the
norm's numerator (_b_num) and the top-grade one (_top_num).  The
top-grade and graded pairings and the orbit-map adjoint (after every
slot's move at once: _slot_adjoints) round out the toolkit.
Each rule is written once: E_s on e_M.v in _slot_move, the modes whose
moves can reach a partner in _reach_modes (graded_pairing and
_slot_adjoints), the adjoint's pairing of terms in _adjoint_rows
(orbit_map_adjoint and _slot_adjoints both read it), (-1)^|J| of the
top-grade term in _top_num.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Optional

from .clifford import (
    CliffordElem,
    _blade_terms,
    act,
    grading_element,
    multiply,
    witt_e,
    witt_i,
)
from .field import Scalar
from .fock import (
    Config,
    SpinorVec,
    apply_monomial,
    inversion_parity,
    parity,
)
from .norms import BilinearForm, b_eval

Label = tuple


def _check_pair(form: BilinearForm, psi1: SpinorVec, psi2: SpinorVec) -> Config:
    config = form.config
    config.check_same(psi1.config)
    config.check_same(psi2.config)
    return config


def _accum(dst: dict, num: dict, scalar: int) -> None:
    """dst += scalar * num on int numerator maps, avoiding element copies."""
    for mono, c in num.items():
        dst[mono] = dst.get(mono, 0) + c * scalar


@lru_cache(maxsize=None)
def _four_sum_elements(config: Config):
    """Constant Clifford elements appearing in the four-sum formula.

    Products and differences of Witt generators, so all of them are
    integral (denominator 1): callers read their numerators directly.
    """
    ee, ii, ei, ie_minus = {}, {}, {}, {}
    diag_in, diag_out = {}, {}
    for a in range(1, config.n + 1):
        ea, ia = witt_e(config, a), witt_i(config, a)
        diag_in[a] = multiply(ea, ia) - multiply(ia, ea)
        diag_out[a] = multiply(ia, ea) - multiply(ea, ia)
        for b in range(1, config.n + 1):
            if a == b:
                continue
            eb, ib = witt_e(config, b), witt_i(config, b)
            ee[(a, b)] = multiply(ea, eb)
            ii[(a, b)] = multiply(ia, ib)
            ei[(a, b)] = multiply(ea, ib)
            ie_minus[(a, b)] = multiply(ia, eb) - multiply(eb, ia)
    return ee, ii, ei, ie_minus, diag_in, diag_out


@lru_cache(maxsize=None)
def _four_sum_words(config: Config) -> tuple:
    """The four-sum's 3n(n-1) + n words in grade2_pairing's order, each as
    (its ((emask, imask), numerator) terms, its target's numerator map,
    weight 2 off the diagonal or 1 on it, where the sum carries a half)."""
    ee, ii, ei, ie_minus, diag_in, diag_out = _four_sum_elements(config)
    sums, indices = ((ee, ii), (ii, ee), (ei, ie_minus)), range(1, config.n + 1)
    words = [(w[ab], t[ab], 2) for ab in permutations(indices, 2) for w, t in sums]
    words += [(diag_in[a], diag_out[a], 1) for a in indices]
    return tuple((tuple(w._num.items()), t._num, k) for w, t, k in words)


@lru_cache(maxsize=None)
def _four_sum_groups(config: Config) -> tuple:
    """(imask, ((emask, [(w, t), ...]), ...)): term t of word w of
    _four_sum_words, grouped by i-mask, then by e-mask, in word order.
    Masks and places only: the words stay the one source of coefficients."""
    groups: dict[int, dict[int, list]] = {}
    for w, (word, _, _) in enumerate(_four_sum_words(config)):
        for t, ((emask, imask), _) in enumerate(word):
            groups.setdefault(imask, {}).setdefault(emask, []).append((w, t))
    return tuple((imask, tuple(by_e.items())) for imask, by_e in groups.items())


def grade2_pairing(form: BilinearForm, psi1: SpinorVec, psi2: SpinorVec) -> CliffordElem:
    """The normalized grade-2 pairing of two spinors, in Witt coordinates.

    Four sums over the Witt generators:

        sum_{a != b} B(e_a e_b.psi1, psi2) i_a i_b
      + sum_{a != b} B(i_a i_b.psi1, psi2) e_a e_b
      + sum_{a != b} B(e_a i_b.psi1, psi2) (i_a e_b - e_b i_a)
      + (1/2) sum_a B((e_a i_a - i_a e_a).psi1, psi2) (i_a e_a - e_a i_a).

    Every coefficient B(w.psi1, psi2), all n(n-1) off-diagonal words of
    each sum and all n diagonal ones, is summed with no pruning by the
    basis case table, so this is the oracle of _l2_coords and
    grade2_pairing_on_basis: e_A i_B survives on e_M.v iff B lies in M and
    A misses M - B, so each psi1 term visits only the i-mask groups inside
    M and in each the e-mask groups missing M - B (_four_sum_groups), psi2
    and the form are looked up once per e-mask group, at the image, and
    only a hit computes the sign (-1)^(inv(B, M) + inv(A, M - B)).
    Int numerators over den(psi1) den(psi2) den(B) times 2, the 2 carrying
    the diagonal half.  Equals 2^(n-1) times the grade-2 projection of the
    endomorphism pairing (checked in tests).
    """
    config = _check_pair(form, psi1, psi2)
    full = config.size - 1
    # B(e_new.v, psi2) as a numerator, for each new that meets psi2
    weights = {
        m ^ full: cq * val
        for m, cq in psi2._num.items()
        if (val := form._num.get(m ^ full)) is not None
    }
    words, groups = _four_sum_words(config), _four_sum_groups(config)
    accs = [0] * len(words)
    for mask, cp in psi1._num.items():
        for imask, by_e in groups:
            if imask & ~mask:
                continue
            rest = mask ^ imask
            for emask, places in by_e:
                if not emask & rest and (wt := weights.get(rest | emask)) is not None:
                    odd = inversion_parity(imask, mask) ^ inversion_parity(emask, rest)
                    for w, t in places:
                        term = words[w][0][t][1] * cp * wt
                        accs[w] += -term if odd else term
    out: dict = {}
    for (_, target, weight), acc in zip(words, accs):
        if acc:
            _accum(out, target, weight * acc)
    return CliffordElem._make(config, out, 2 * psi1._den * psi2._den * form._den)


def _check_masks(config: Config, *masks: int) -> None:
    for m in masks:
        if not 0 <= m < config.size:
            raise ValueError(f"mask {m} out of range for n={config.n}")


def top_grade_coefficient(
    form: BilinearForm, psi1: SpinorVec, psi2: SpinorVec
) -> Scalar:
    """The scalar c with top_grade_pairing = c times the grading element."""
    config = _check_pair(form, psi1, psi2)
    inv = config.field.from_fraction(1, config.size)
    eps = grading_element(config)
    return inv * b_eval(form, psi1, act(eps, psi2))


def _b_num(form: BilinearForm, imask: int, jmask: int) -> int:
    """B(e_I.v, e_J.v) as an int numerator over form._den (zero unless J = I^c)."""
    return form._num.get(imask, 0) if jmask == imask ^ (form.config.size - 1) else 0


def _top_num(form: BilinearForm, imask: int, jmask: int) -> int:
    """B(e_I.v, eps e_J.v) = B(e_I.v, e_J.v) (-1)^|J| as an int numerator
    over form._den: the grading element acts on e_J.v by (-1)^|J|."""
    val = _b_num(form, imask, jmask)
    return -val if parity(jmask) else val


def _c2_move(label: Label, mask: int) -> Optional[tuple[int, int]]:
    """label . e_M.v for a grade-2 label: (new mask, int coefficient) or None.

    Each label is one Fock move: e_a e_b and i_a i_b are the monomials
    themselves, F_ab = 2 e_a i_b for a != b, and F_aa = 2 e_a i_a - 1
    acts on e_M.v by 2[a in M] - 1.
    """
    kind, a, b = label
    if kind not in ("ee", "ii", "ei"):
        raise ValueError(f"not a grade-2 label: {label!r}")
    bit_a, bit_b = 1 << (a - 1), 1 << (b - 1)
    if kind == "ee":
        hit, scale = apply_monomial(bit_a | bit_b, 0, mask), 1
    elif kind == "ii":
        hit, scale = apply_monomial(0, bit_a | bit_b, mask), 1
    elif a == b:
        return mask, 1 if mask & bit_a else -1
    else:
        hit, scale = apply_monomial(bit_a, bit_b, mask), 2
    if hit is None:
        return None
    sign, moved = hit
    return moved, sign * scale


def _l2_coords(form: BilinearForm, imask: int, jmask: int) -> dict[Label, int]:
    """The normalized grade-2 pairing L_2(e_I.v, e_J.v) in grade-2 labels, as
    int numerators over 2 form._den.

    B pairs e_J.v only with e_{J^c}.v; write beta = B(e_{J^c}.v, e_J.v).
    With P = I n J and R = I^c n J^c, the monomial e_R i_P sends e_I.v to
    s e_{J^c}.v for a sign s, and the paper's basis matrix of L_2 reads

        (|P|, |R|) = (0, 2): 2 s beta on ii(R),
                     (2, 0): 2 s beta on ee(P),
                     (1, 1):  -s beta on ei(b, a), P = {b} and R = {a},
                     (0, 0): J = I^c, and beta/2 on ei(a, a) for a not
                             in I, -beta/2 for a in I;

    every other pair of masks gives zero; beta's numerator over the form's
    denominator gives each numerator.  These are the values of the four-sum
    grade2_pairing in builders.c2_labels coordinates, which the tests keep
    as the oracle.
    """
    config = form.config
    partner = jmask ^ (config.size - 1)
    val = form._num.get(partner)
    if val is None:
        return {}
    p, r = imask & jmask, partner & ~imask
    if p == 0 and r == 0:
        return {
            ("ei", a, a): -val if imask >> (a - 1) & 1 else val
            for a in range(1, config.n + 1)
        }
    if p.bit_count() + r.bit_count() != 2:
        return {}
    # P lies in I and R outside it, so the move never vanishes
    sign = apply_monomial(r, p, imask)[0]
    if p and r:
        label = ("ei", p.bit_length(), r.bit_length())
        return {label: -2 * sign * val}
    pair = p | r
    label = ("ee" if p else "ii", (pair & -pair).bit_length(), pair.bit_length())
    return {label: 4 * sign * val}


def grade2_pairing_on_basis(
    form: BilinearForm, imask: int, jmask: int, kmask: int
) -> SpinorVec:
    """grade2_pairing(e_I.v, e_J.v) applied to e_K.v, by the basis matrix.

    Each grade-2 label of _l2_coords(form, I, J) moves e_K.v by one Fock
    move (_c2_move); the int numerators add up on the image masks.
    """
    config = form.config
    _check_masks(config, imask, jmask, kmask)
    out: dict[int, int] = {}
    for label, c in _l2_coords(form, imask, jmask).items():
        hit = _c2_move(label, kmask)
        if hit is not None:
            out[hit[0]] = out.get(hit[0], 0) + c * hit[1]
    return SpinorVec._make(config, out, 2 * form._den)


def top_grade_pairing(
    form: BilinearForm, psi1: SpinorVec, psi2: SpinorVec
) -> CliffordElem:
    """Top-grade pairing: (1/2^n) B(psi1, eps.psi2) eps."""
    config = form.config
    return grading_element(config).scale(top_grade_coefficient(form, psi1, psi2))


def _slot_move(mask: int, slot: int) -> tuple[int, int]:
    """E_slot e_M.v = (-1)^odd e_new.v as (odd, new): of E_slot = e_a +- i_a
    only i_a (a in M) or e_a (a not in M) survives, moving M to M xor {a}
    with sign (-1)^#{b in M : b < a}, and the odd slot's i_a adds a minus."""
    bit = 1 << (slot >> 1)
    odd = (mask & (bit - 1)).bit_count() + (slot & 1 and mask & bit != 0)
    return odd, mask ^ bit


def _reach_modes(mask: int, others, full: int) -> int:
    """The modes (as bits) whose slot moves can carry e_M.v to the
    complement of a mask P in `others`: all of them if M xor P xor full is
    empty (one mode moved twice), its bits if it has one or two, none from
    a P at three bits or more."""
    modes = 0
    for other in others:
        flip = mask ^ other ^ full
        if not flip:
            return full
        if flip.bit_count() <= 2:
            modes |= flip
    return modes


def graded_pairing(
    form: BilinearForm, psi1: SpinorVec, psi2: SpinorVec
) -> CliffordElem:
    """Grades 1 and 2 of the graded endomorphism pairing.

    Over the orthonormal slot basis:

        (1/2^n) ( sum_s g_ss B_eps(psi1, E_s.psi2) E_s
                + sum_{s<t} g_ss g_tt B_eps(psi1, E_t E_s.psi2) E_s E_t ).

    Evaluated by direct Fock moves (_slot_move): E_s and E_t E_s send
    each psi2 term to one signed basis vector, which B pairs only with
    psi1's coefficient at the complement, so s and t run over the slots
    of _reach_modes only.  One scalar is summed per blade and each blade
    is expanded once.

    Expects the graded norm; with it the result is equivariant for the
    degree one-plus-two part, not just for grade 2.
    """
    if form.flavor != "graded":
        raise ValueError("graded_pairing expects the graded norm")
    config = _check_pair(form, psi1, psi2)
    full = config.size - 1
    # B_eps(psi1, e_new.v) as a numerator, for each new that meets psi1
    weights = {
        m ^ full: cp * val
        for m, cp in psi1._num.items()
        if (val := form._num.get(m)) is not None
    }
    scal: dict[int, int] = {}
    for mask, c in psi2._num.items():
        modes = _reach_modes(mask, psi1._num, full)
        slots = [s for s in range(2 * config.n) if modes >> (s >> 1) & 1]
        for k, s in enumerate(slots):
            # the metric g_ss = -1 sits on the odd slots
            odd_s, m1 = _slot_move(mask, s)
            odd_s += s & 1
            moves = [(1 << s, odd_s, m1)]
            for t in slots[k + 1:]:
                odd_t, m2 = _slot_move(m1, t)
                moves.append(((1 << s) | (1 << t), odd_s + odd_t + (t & 1), m2))
            for blade, odd, new in moves:
                if (w := weights.get(new)) is not None:
                    scal[blade] = scal.get(blade, 0) + (-w * c if odd & 1 else w * c)
    out: dict = {}
    for blade, c in scal.items():
        if c:
            _accum(out, _blade_terms(blade), c)
    den = config.size * psi1._den * psi2._den * form._den
    return CliffordElem._make(config, out, den)


def _adjoint_rows(form: BilinearForm, phi: SpinorVec, terms) -> dict:
    """phi^*(x_r) for each x_r = sum c e_M.v over the (r, M, c) in terms, as
    {r: numerators} over den(phi) den(x_r) den(B).  Terms pair directly:
    e_M.v meets phi's e_P.v only if P xor M is the complement of one bit b,
    and then only i_b (b in M) or e_b (b not in M) survives, moving M to
    M xor {b} with sign (-1)^#{a in M : a < b}; each of phi's terms is
    weighted by its form entry once."""
    full = form.config.size - 1
    partners = [
        (mask ^ full, 2 * cp * val)
        for mask, cp in phi._num.items()
        if (val := form._num.get(mask)) is not None
    ]
    rows: dict = {}
    for r, mask, c in terms:
        for new, w in partners:
            one = mask ^ new
            if one and not one & (one - 1):
                row = rows.setdefault(r, {})
                key = (one, 0) if mask & one else (0, one)
                odd = (mask & (one - 1)).bit_count() & 1
                row[key] = row.get(key, 0) + (-w * c if odd else w * c)
    return rows


def orbit_map_adjoint(
    form: BilinearForm, phi: SpinorVec, psi: SpinorVec
) -> CliffordElem:
    """The vector phi^*(psi) = sum_s g_ss B(phi, E_s.psi) E_s.

    Adjoint to the orbit map v -> v.phi in the sense
    B(v.phi, psi) = g(v, phi^*(psi)).  As E_s = e_a +- i_a with g_ss = +-1,

        phi^*(psi) = 2 sum_a ( B(phi, i_a.psi) e_a + B(phi, e_a.psi) i_a ),

    the one row of _adjoint_rows on psi's terms.
    """
    config = _check_pair(form, phi, psi)
    row = _adjoint_rows(form, phi, ((0, m, c) for m, c in psi._num.items()))
    return CliffordElem._make(config, row.get(0, {}), phi._den * psi._den * form._den)


def _slot_adjoints(form: BilinearForm, phi: SpinorVec, psi: SpinorVec) -> tuple:
    """phi^*(E_s.psi) for every slot s, as ({s: numerators}, den): psi's terms
    moved by _slot_move go through _adjoint_rows, and no E_s.psi is built.

    E_s flips its mode's bit and the adjoint one more, so M is moved only
    for the modes that _reach_modes allows.  The tests hold every row to
    orbit_map_adjoint(form, phi, act(E_s, psi)).
    """
    config = _check_pair(form, phi, psi)
    full = config.size - 1
    terms = []
    for mask, c in psi._num.items():
        modes = _reach_modes(mask, phi._num, full)
        for s in range(2 * config.n):
            if modes >> (s >> 1) & 1:
                odd, new = _slot_move(mask, s)
                terms.append((s, new, -c if odd & 1 else c))
    return _adjoint_rows(form, phi, terms), phi._den * psi._den * form._den
