"""The int-numerator kernels against Fraction-valued oracles.

Every Clifford and spinor kernel computes on int numerators with one
denominator per element.  The oracles below are the same kernels written
on field scalars (`Fraction` or `Residue`) throughout, as they stood
before the int representation; each takes and returns plain maps of
field scalars.  Inputs carry non-dyadic coefficients (1/3, -5/7, 3/4) so
that every denominator path is exercised, over Q and over F_7.
"""

import ast
import inspect
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

from spinor_forge import clifford as clifford_mod
from spinor_forge.clifford import (
    CliffordElem,
    _diag_keys,
    _plane_row,
    act,
    commutator,
    grade_project,
    grade_projections,
    grading_element,
    multiply,
    orthonormal_vector,
    q_map,
    trace_rows,
    transpose,
)
from spinor_forge.builders import c2_labels
from spinor_forge.field import PrimeField, Rationals, Residue
from spinor_forge.fock import (
    Config,
    SpinorVec,
    annihilate,
    apply_monomial,
    create,
    inversion_parity,
    prefix_parity,
)
from spinor_forge.norms import BilinearForm, b_eval, graded_norm, solve_spinor_norm
from spinor_forge.pairings import (
    _reach_modes,
    _slot_adjoints,
    _slot_move,
    _four_sum_elements,
    _four_sum_words,
    grade2_pairing,
    grade2_pairing_on_basis,
    graded_pairing,
    orbit_map_adjoint,
)

from .helpers import (
    _move_pairing,
    basis_top_grade_coefficient,
    blade_to_elem,
    c2_coords,
    c2_elem,
    grade2_pairing_per_word,
    grade2_pairing_unpruned,
    l2_scalars,
    rng,
    to_blades,
    trace,
    transpose_by_copies,
)

FIELDS = {"q": Rationals(), "fp7": PrimeField(7)}
NS = range(1, 7)
ODD_SLOTS = 0xAAAAAA


def coeff_pool(field):
    """Non-dyadic coefficients; over F_7 the ones whose denominator is a unit."""
    if field.characteristic == 0:
        return [Fraction(1, 3), Fraction(-5, 7), Fraction(3, 4), Fraction(2), Fraction(-1)]
    return [field.from_fraction(1, 3), field.from_fraction(3, 4),
            field.from_fraction(-5, 2), field.from_int(2), field.from_int(-1)]


def rand_elem(config, r, nterms=None):
    pool = coeff_pool(config.field)
    nterms = r.randint(1, 4) if nterms is None else nterms
    return CliffordElem(config, {
        (r.randrange(config.size), r.randrange(config.size)): r.choice(pool)
        for _ in range(nterms)
    })


def rand_spinor(config, r, nterms=None):
    pool = coeff_pool(config.field)
    nterms = r.randint(1, 4) if nterms is None else nterms
    return SpinorVec(config, {r.randrange(config.size): r.choice(pool) for _ in range(nterms)})


def scaled_form(form, s):
    """The form with every entry times s: entries that are not +-1."""
    return BilinearForm(form.config, form.flavor, {k: v * s for k, v in form.entries.items()})


def forms(config):
    """(plain, graded) norm pairs: the solved norms, and both times -5/3 (3 in F_7)."""
    field = config.field
    plain = solve_spinor_norm(config)
    s = Fraction(-5, 3) if field.characteristic == 0 else field.from_int(3)
    graded = graded_norm(plain)
    return [(plain, graded), (scaled_form(plain, s), scaled_form(graded, s))]


def nonzero(d):
    return {k: c for k, c in d.items() if c}


@pytest.fixture(params=[(f, n) for f in FIELDS for n in NS], ids=lambda p: f"{p[0]}-n{p[1]}")
def config(request):
    field, n = request.param
    return Config(n, FIELDS[field])


# ------------------------------------------------------------------ oracles


def o_multiply(xt, yt):
    ys = [(c, d, prefix_parity(c), prefix_parity(d), cy) for (c, d), cy in yt.items()]
    acc = {}
    for (amask, bmask), cx in xt.items():
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
    return nonzero(acc)


def o_add(xt, yt, sign=1):
    out = dict(xt)
    for m, c in yt.items():
        out[m] = out[m] + sign * c if m in out else sign * c
    return nonzero(out)


def o_act(xt, pt):
    out = {}
    for (emask, imask), c in xt.items():
        for mask, cm in pt.items():
            hit = apply_monomial(emask, imask, mask)
            if hit is None:
                continue
            sign, new = hit
            term = c * cm if sign > 0 else -(c * cm)
            out[new] = out[new] + term if new in out else term
    return nonzero(out)


def o_transpose(xt):
    acc = {}
    for (emask, imask), c in xt.items():
        p, q = emask.bit_count(), imask.bit_count()
        sign = -1 if ((p * (p - 1) // 2) + (q * (q - 1) // 2)) & 1 else 1
        prod = o_multiply({(0, imask): 1}, {(emask, 0): 1})
        coeff = c if sign > 0 else -c
        for mono, cp in prod.items():
            term = cp * coeff
            acc[mono] = acc[mono] + term if mono in acc else term
    return nonzero(acc)


def o_trace(config, xt):
    total = config.field.zero()
    for (emask, imask), c in xt.items():
        if emask != imask:
            continue
        sign, _ = apply_monomial(emask, imask, emask)
        total = total + c * config.field.from_int(sign * (1 << (config.n - emask.bit_count())))
    return total


def trace_product(x, y):
    """Tr(x y) as the one entry of the 1 x 1 case of `trace_rows`."""
    (row,) = trace_rows(x.config, [x], [y])
    return row[0]


def o_to_blades(config, xt):
    field = config.field
    out = {}
    for (emask, imask), c in xt.items():
        factors = [(b, False) for b in range(emask.bit_length()) if (emask >> b) & 1]
        factors += [(b, True) for b in range(imask.bit_length()) if (imask >> b) & 1]
        acc = {0: 1}
        for bit, is_i in factors:
            nxt = {}
            for bmask, cb in acc.items():
                for slot, odd in ((2 * bit, False), (2 * bit + 1, is_i)):
                    odd += (bmask >> (slot + 1)).bit_count()
                    odd += bmask >> slot & slot & 1
                    new = bmask ^ (1 << slot)
                    nxt[new] = nxt.get(new, 0) + (-cb if odd & 1 else cb)
            acc = {m: cb for m, cb in nxt.items() if cb}
        scale = c * field.from_fraction(1, 1 << len(factors))
        for bmask, cb in acc.items():
            out[bmask] = out[bmask] + scale * cb if bmask in out else scale * cb
    return nonzero(out)


def o_blade(config, bmask):
    """The blade as the product of its ascending orthonormal vectors."""
    out = {(0, 0): config.field.one()}
    for slot in range(2 * config.n):
        if bmask >> slot & 1:
            bit = 1 << (slot >> 1)
            one = config.field.one()
            vec = {(bit, 0): one, (0, bit): -one if slot & 1 else one}
            out = o_multiply(out, vec)
    return out


def o_grade_project(config, xt, k):
    field = config.field
    inv_dim = field.from_fraction(1, config.size)
    rev_sign = -1 if (k * (k - 1) // 2) & 1 else 1
    acc = {}
    for bmask, cb in o_to_blades(config, xt).items():
        if bmask.bit_count() != k:
            continue
        gpref = -1 if (bmask & ODD_SLOTS).bit_count() & 1 else 1
        square = -1 if (inversion_parity(bmask, bmask) + (bmask & ODD_SLOTS).bit_count()) & 1 else 1
        scalar = inv_dim * field.from_int(gpref) * cb * field.from_int(rev_sign * square * config.size)
        for mono, c in o_blade(config, bmask).items():
            acc[mono] = acc[mono] + scalar * c if mono in acc else scalar * c
    return nonzero(acc)


def o_apply_single(emask, imask, pt):
    return o_act({(emask, imask): 1}, pt)


def o_b_eval(form, pt, qt):
    full = form.config.size - 1
    acc = form.config.field.zero()
    for imask, ci in pt.items():
        cj = qt.get(imask ^ full)
        val = form.entries.get((imask, imask ^ full))
        if cj is not None and val is not None:
            acc = acc + ci * cj * val
    return acc


def o_move_pairing(form, wt, pt, qt):
    full = form.config.size - 1
    acc = None
    for (emask, imask), cw in wt.items():
        for mask, cp in pt.items():
            hit = apply_monomial(emask, imask, mask)
            if hit is None:
                continue
            sign, new = hit
            cq = qt.get(new ^ full)
            val = form.entries.get((new, new ^ full))
            if cq is None or val is None:
                continue
            term = cw * cp * cq * val
            if sign < 0:
                term = -term
            acc = term if acc is None else acc + term
    return acc


def o_accum(dst, et, scalar):
    for mono, c in et.items():
        dst[mono] = dst[mono] + c * scalar if mono in dst else c * scalar


def o_grade2_pairing(form, pt, qt):
    config = form.config
    ee, ii, ei, ie_minus, diag_in, diag_out = _four_sum_elements(config)
    half = config.field.from_fraction(1, 2)
    out = {}
    for a in range(1, config.n + 1):
        for b in range(1, config.n + 1):
            if a == b:
                continue
            for word, elem in ((ee, ii), (ii, ee), (ei, ie_minus)):
                c = o_move_pairing(form, word[(a, b)].terms, pt, qt)
                if c:
                    o_accum(out, elem[(a, b)].terms, c)
    for a in range(1, config.n + 1):
        c = o_move_pairing(form, diag_in[a].terms, pt, qt)
        if c:
            o_accum(out, diag_out[a].terms, c * half)
    return nonzero(out)


def o_orbit_map_adjoint(form, pt, qt):
    config = form.config
    full = config.size - 1
    out = {}
    for mask, c in qt.items():
        for bit in range(config.n):
            one = 1 << bit
            new = mask ^ one
            cp = pt.get(new ^ full)
            val = form.entries.get((new ^ full, new))
            if cp is None or val is None:
                continue
            odd = (mask & (one - 1)).bit_count() & 1
            term = -(cp * val * c) if odd else cp * val * c
            key = (one, 0) if mask & one else (0, one)
            out[key] = out[key] + term if key in out else term
    two = config.field.from_int(2)
    return nonzero({key: two * v for key, v in out.items()})


def o_graded_pairing(form, pt, qt):
    config = form.config
    full = config.size - 1
    nslots = 2 * config.n

    def move(mask, slot):
        bit = 1 << (slot >> 1)
        odd = (mask & (bit - 1)).bit_count()
        if slot & 1:
            odd += 1 + ((mask & bit) != 0)
        return odd, mask ^ bit

    scal = {}

    def add(blade, odd, new, c):
        cp = pt.get(new ^ full)
        val = form.entries.get((new ^ full, new))
        if cp is None or val is None:
            return
        term = -(cp * c * val) if odd & 1 else cp * c * val
        scal[blade] = scal[blade] + term if blade in scal else term

    for mask, c in qt.items():
        for s in range(nslots):
            odd_s, m1 = move(mask, s)
            add(1 << s, odd_s, m1, c)
            for t in range(s + 1, nslots):
                odd_t, m2 = move(m1, t)
                add((1 << s) | (1 << t), odd_s + odd_t, m2, c)
    inv = config.field.from_fraction(1, config.size)
    out = {}
    for blade, c in scal.items():
        if c:
            o_accum(out, o_blade(config, blade), c * inv)
    return nonzero(out)


def o_matrix_entry(xt, row, col, field):
    acc = field.zero()
    for (emask, imask), c in xt.items():
        hit = apply_monomial(emask, imask, col)
        if hit is not None and hit[1] == row:
            acc = acc + (c if hit[0] > 0 else -c)
    return acc


def o_basis_grade2_pairing(form, imask, jmask):
    config = form.config
    partner = jmask ^ (config.size - 1)
    val = form.entries.get((partner, jmask))
    if val is None:
        return {}
    ee, ii, ei, ie_minus, diag_in, diag_out = _four_sum_elements(config)
    p, r = imask & jmask, partner & ~imask
    weight = val
    if p == 0 and r.bit_count() == 2:
        a, b = r.bit_length(), (r & -r).bit_length()
        terms = [(ee[(a, b)], ii[(a, b)]), (ee[(b, a)], ii[(b, a)])]
    elif p.bit_count() == 2 and r == 0:
        a, b = p.bit_length(), (p & -p).bit_length()
        terms = [(ii[(a, b)], ee[(a, b)]), (ii[(b, a)], ee[(b, a)])]
    elif p.bit_count() == 1 and r.bit_count() == 1:
        terms = [(ei[(r.bit_length(), p.bit_length())], ie_minus[(r.bit_length(), p.bit_length())])]
    elif p == 0 and r == 0:
        weight = val * config.field.from_fraction(1, 2)
        terms = [(diag_in[a], diag_out[a]) for a in range(1, config.n + 1)]
    else:
        return {}
    out = {}
    for move, elem in terms:
        c = o_matrix_entry(move.terms, partner, imask, config.field)
        if c:
            o_accum(out, elem.terms, c * weight)
    return nonzero(out)


def o_c2_coords(config, xt):
    field = config.field
    half = field.from_fraction(1, 2)
    coords, const, diag = {}, field.zero(), field.zero()
    for (emask, imask), c in xt.items():
        en, im = emask.bit_count(), imask.bit_count()
        if en == 0 and im == 0:
            const = c
        elif en == 2 and im == 0:
            coords[("ee", (emask & -emask).bit_length(), emask.bit_length())] = c
        elif en == 0 and im == 2:
            coords[("ii", (imask & -imask).bit_length(), imask.bit_length())] = c
        else:
            a, b = emask.bit_length(), imask.bit_length()
            coords[("ei", a, b)] = c * half
            if a == b:
                diag = diag + c * half
    assert const == -diag
    return coords


# ------------------------------------------------------------ comparisons


class TestCliffordKernels:
    def test_multiply_and_commutator(self, config):
        r = rng(100 + config.n)
        for _ in range(25):
            x, y = rand_elem(config, r), rand_elem(config, r)
            xy = multiply(x, y)
            assert xy.terms == o_multiply(x.terms, y.terms)
            want = o_add(xy.terms, o_multiply(y.terms, x.terms), -1)
            assert commutator(x, y).terms == want
            assert commutator(x, y) == multiply(x, y) - multiply(y, x)

    def test_act(self, config):
        r = rng(200 + config.n)
        for _ in range(25):
            x, psi = rand_elem(config, r), rand_spinor(config, r)
            assert act(x, psi).terms == o_act(x.terms, psi.terms)

    def test_transpose_and_trace(self, config):
        r = rng(300 + config.n)
        for _ in range(25):
            x = rand_elem(config, r)
            assert transpose(x).terms == o_transpose(x.terms)
            # diagonal monomials, so the trace is not trivially zero
            e = r.randrange(config.size)
            d = x + CliffordElem(config, {(e, e): coeff_pool(config.field)[0]})
            assert trace(d) == o_trace(config, d.terms)

    def test_trace_product_random_pairs(self, config):
        r = rng(400 + config.n)
        for _ in range(25):
            x, y = rand_elem(config, r), rand_elem(config, r)
            # force some diagonal output: y's terms mirror x's
            y = y + CliffordElem(config, {(b, a): c for (a, b), c in x.terms.items()})
            want = o_trace(config, o_multiply(x.terms, y.terms))
            assert trace_product(x, y) == want == trace(multiply(x, y))

    def test_blades_and_projections(self, config):
        r = rng(500 + config.n)
        for _ in range(6):
            x = rand_elem(config, r)
            assert to_blades(x) == o_to_blades(config, x.terms)
            parts = grade_projections(x)
            for k in range(2 * config.n + 1):
                want = o_grade_project(config, x.terms, k)
                assert grade_project(x, k).terms == want
                assert parts[k].terms == want
        for bmask in r.sample(range(1 << 2 * config.n), min(12, 1 << 2 * config.n)):
            assert blade_to_elem(config, bmask).terms == o_blade(config, bmask)

    def test_c2_coords(self, config):
        r = rng(600 + config.n)
        labels = c2_labels(config.n)
        pool = coeff_pool(config.field)
        for _ in range(10):
            x = CliffordElem.zero(config)
            for lab in r.sample(labels, min(4, len(labels))):
                x = x + c2_elem(config, lab).scale(r.choice(pool))
            assert c2_coords(x) == o_c2_coords(config, x.terms)


class TestSpinorKernels:
    def test_create_annihilate(self, config):
        r = rng(700 + config.n)
        for _ in range(10):
            psi = rand_spinor(config, r)
            bit = 1 << r.randrange(config.n)
            a = bit.bit_length()
            assert create(a, psi).terms == o_apply_single(bit, 0, psi.terms)
            assert annihilate(a, psi).terms == o_apply_single(0, bit, psi.terms)

    def test_b_eval_and_move_pairing(self, config):
        r = rng(800 + config.n)
        full = config.size - 1
        ee = _four_sum_elements(config)[0]
        for form, _ in forms(config):
            for _ in range(15):
                phi, psi = rand_spinor(config, r), rand_spinor(config, r)
                psi = psi + SpinorVec(config, {m ^ full: c for m, c in phi.terms.items()})
                assert b_eval(form, phi, psi) == o_b_eval(form, phi.terms, psi.terms)
                for word in [rand_elem(config, r)] + list(ee.values())[:2]:
                    got = _move_pairing(form, word, phi, psi)
                    want = o_move_pairing(form, word.terms, phi.terms, psi.terms)
                    if want is None:
                        assert got is None
                    else:
                        den = word._den * phi._den * psi._den * form._den
                        assert config.field.from_fraction(got, den) == want

    def test_pairings(self, config):
        r = rng(900 + config.n)
        full = config.size - 1
        for form, gform in forms(config):
            for _ in range(4):
                phi, psi = rand_spinor(config, r), rand_spinor(config, r)
                # partners of phi's masks and their one-bit neighbours, so
                # every pairing has terms to find
                bit = 1 << r.randrange(config.n)
                psi = psi + SpinorVec(config, {
                    m ^ full ^ flip: c for m, c in phi.terms.items() for flip in (0, bit)
                })
                assert grade2_pairing(form, phi, psi).terms == o_grade2_pairing(
                    form, phi.terms, psi.terms
                )
                assert orbit_map_adjoint(form, phi, psi).terms == o_orbit_map_adjoint(
                    form, phi.terms, psi.terms
                )
                assert graded_pairing(gform, phi, psi).terms == o_graded_pairing(
                    gform, phi.terms, psi.terms
                )

    def test_basis_closed_forms(self, config):
        r = rng(1000 + config.n)
        size = config.size
        pairs = [(i, j) for i in range(size) for j in range(size)]
        if len(pairs) > 300:
            pairs = r.sample(pairs, 300)
        eps = grading_element(config).terms
        for form, _ in forms(config):
            for i, j in pairs:
                want = o_basis_grade2_pairing(form, i, j)
                assert l2_scalars(form, i, j) == o_c2_coords(config, want)
                k = r.randrange(size)
                assert grade2_pairing_on_basis(form, i, j, k).terms == o_act(
                    want, {k: config.field.one()}
                )
                one = config.field.one()
                want = (
                    config.field.from_fraction(1, size)
                    * o_b_eval(form, {i: one}, {j: one})
                    * o_matrix_entry(eps, j, j, config.field)
                )
                assert basis_top_grade_coefficient(form, i, j) == want


# ----------------------------------------------------- trace of a product


@pytest.mark.parametrize("field", list(FIELDS))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_trace_product_every_transposed_blade_pair(field, n):
    config = Config(n, FIELDS[field])
    slots = [s for k in range(2 * n + 1) for s in combinations(range(2 * n), k)]
    blades = {s: q_map(config, s) for s in slots}
    for s1 in slots:
        t1 = transpose(blades[s1])
        for s2 in slots:
            want = o_trace(config, o_multiply(t1.terms, blades[s2].terms))
            assert trace_product(t1, blades[s2]) == want, (s1, s2)


@pytest.mark.parametrize("field", list(FIELDS))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_trace_product_every_monomial_pair(field, n):
    # every pair of plane terms, dual or not, meets here for n <= 3
    config = Config(n, FIELDS[field])
    one = config.field.one()
    monos = [(a, b) for a in range(config.size) for b in range(config.size)]
    for m1 in monos:
        x = CliffordElem(config, {m1: one})
        for m2 in monos:
            want = o_trace(config, o_multiply({m1: one}, {m2: one}))
            assert trace_product(x, CliffordElem(config, {m2: one})) == want, (m1, m2)


TRACE_FIELDS = {"q": Rationals(), "fp5": PrimeField(5), "fp7": PrimeField(7)}


def diagonal_heavy_elem(config, r, nterms):
    """nterms terms c e_A i_B with |A n B| >= 2: the terms whose plane
    expansion has 4 or more plane terms."""
    pool = [c for c in coeff_pool(config.field) if c]
    terms = {}
    for _ in range(nterms):
        diag = sum(1 << a for a in r.sample(range(config.n), r.randint(2, config.n)))
        rest = (config.size - 1) ^ diag
        terms[(diag | (r.randrange(config.size) & rest),
               diag | (r.randrange(config.size) & rest))] = r.choice(pool)
    return CliffordElem(config, terms)


@pytest.mark.parametrize("field", TRACE_FIELDS.values(), ids=TRACE_FIELDS.keys())
@pytest.mark.parametrize("n", [4, 5, 6])
def test_trace_product_diagonal_heavy_pairs(field, n):
    # y holds, besides its own terms, each x-term's dual (A, B) -> (B, A)
    # moved to a fresh diagonal, so that most pairs have a nonzero trace
    config = Config(n, field)
    r = rng(2400 + n)
    nonzero_seen = 0
    for _ in range(30):
        x = diagonal_heavy_elem(config, r, r.randint(1, 4))
        dual = {}
        for (amask, bmask), c in x.terms.items():
            diag = amask & bmask
            keep = diag & r.randrange(config.size)
            dual[(bmask ^ diag ^ keep, amask ^ diag ^ keep)] = c
        y = diagonal_heavy_elem(config, r, r.randint(1, 3)) + CliffordElem(config, dual)
        got = trace_product(x, y)
        assert got == trace(multiply(x, y))
        assert trace_product(y, x) == got
        nonzero_seen += got != field.zero()
    assert nonzero_seen >= 20


@pytest.mark.parametrize("field", list(FIELDS))
@pytest.mark.parametrize("n", [5, 6])
def test_trace_product_top_grade_isometry_pairs(field, n):
    # the blade pairs of props.check_q_isometry with grade k >= 2n - 2,
    # whose terms are mostly diagonal
    config = Config(n, FIELDS[field])
    nslots = 2 * n
    r = rng(1009 + n)
    pairs = []
    for k in range(3, nslots + 1):
        a = tuple(sorted(r.sample(range(nslots), k)))
        b = tuple(sorted(r.sample(range(nslots), k)))
        c = tuple(sorted(r.sample(range(nslots), r.randrange(k))))
        if k >= nslots - 2:
            pairs += [(a, a), (a, b), (a, c)]
    assert len(pairs) == 9
    for s1, s2 in pairs:
        x, y = transpose(q_map(config, s1)), q_map(config, s2)
        assert trace_product(x, y) == trace(multiply(x, y)), (s1, s2)


@pytest.mark.parametrize("field", TRACE_FIELDS.values(), ids=TRACE_FIELDS.keys())
@pytest.mark.parametrize("n", [2, 4, 6])
def test_trace_rows_rectangular(field, n):
    # 4 xs by 7 ys, the last three ys duals of xs, so that the rows hold
    # zero and nonzero traces; the rows come one x at a time
    config = Config(n, field)
    r = rng(2500 + n)
    xs = [rand_elem(config, r) for _ in range(2)]
    xs += [diagonal_heavy_elem(config, r, r.randint(1, 3)) for _ in range(2)]
    ys = [rand_elem(config, r) for _ in range(3)] + [diagonal_heavy_elem(config, r, 2)]
    ys += [CliffordElem(config, {(b, a): c for (a, b), c in x.terms.items()}) for x in xs[1:]]
    rows = trace_rows(config, iter(xs), iter(ys))
    for x in xs:
        assert next(rows) == [trace(multiply(x, y)) for y in ys]
    assert next(rows, None) is None
    assert list(trace_rows(config, [xs[0]], [ys[0]])) == [[trace(multiply(xs[0], ys[0]))]]
    assert list(trace_rows(config, xs, [])) == [[]] * len(xs)
    assert list(trace_rows(config, [], ys)) == []


@pytest.mark.parametrize("field", list(FIELDS))
@pytest.mark.parametrize("n", [1, 2])
def test_trace_rows_every_monomial_pair(field, n):
    # one call over all monomials on both sides; over Q (where no nonzero
    # int total reads zero) every zero entry is the one shared zero
    config = Config(n, FIELDS[field])
    c = coeff_pool(config.field)[0]
    monos = list(product(range(config.size), repeat=2))
    elems = [CliffordElem(config, {m: c}) for m in monos]
    rows = list(trace_rows(config, elems, elems))
    for m1, row in zip(monos, rows):
        want = [o_trace(config, o_multiply({m1: c}, {m2: c})) for m2 in monos]
        assert row == want, m1
    zero = config.field.zero()
    if field == "q":
        assert len({id(t) for row in rows for t in row if t == zero}) == 1


@pytest.mark.parametrize("n", [1, 3, 5])
def test_trace_rows_multiple_of_p_reads_zero(n):
    # Tr(1 + 5 e1 i1) = 2^(n-1) (2 + 5): the same int numerators over Q and
    # F_7, so the int total is 7 2^(n-1) times a power of 2, nonzero, and
    # over F_7 it must read zero
    for field, want in ((Rationals(), 7 << (n - 1)), (PrimeField(7), 0)):
        config = Config(n, field)
        one = CliffordElem.one(config)
        y = one + CliffordElem.monomial(config, 1, 1, field.from_int(5))
        assert list(trace_rows(config, [one], [y])) == [[field.from_int(want)]]
        assert trace(y) == field.from_int(want)


@pytest.mark.parametrize("field", list(FIELDS))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_transpose_every_monomial(field, n):
    config = Config(n, FIELDS[field])
    c = coeff_pool(config.field)[0]
    for mono in product(range(config.size), repeat=2):
        x = CliffordElem(config, {mono: c})
        got = transpose(x)
        assert got == transpose_by_copies(x), mono
        assert got.terms == o_transpose(x.terms), mono


@pytest.mark.parametrize("field", list(FIELDS))
def test_transpose_seeded_elements_n7(field):
    # for each d = |A n B| in 0..7, seeded elements whose terms' masks meet
    # in exactly d modes
    config = Config(7, FIELDS[field])
    r = rng(2600)
    pool = coeff_pool(config.field)
    for d in range(8):
        for _ in range(4):
            terms = {}
            for _ in range(r.randint(1, 3)):
                diag = sum(1 << a for a in r.sample(range(7), d))
                rest = (config.size - 1) ^ diag
                extra_a = r.randrange(config.size) & rest
                extra_b = r.randrange(config.size) & rest & ~extra_a
                terms[(diag | extra_a, diag | extra_b)] = r.choice(pool)
            x = CliffordElem(config, terms)
            got = transpose(x)
            assert got == transpose_by_copies(x), (d, terms)
            assert got.terms == o_transpose(x.terms), (d, terms)
            assert transpose(got) == x


def test_diag_keys_every_subset():
    # (A0 u S, B0 u S) once for each subset S of A n B, S = {} first
    for amask, bmask in product(range(16), repeat=2):
        diag = amask & bmask
        keys = _diag_keys(amask, bmask)
        assert keys[0] == (amask ^ diag, bmask ^ diag)
        subsets = [e & diag for e, _ in keys]
        assert sorted(subsets) == [s for s in range(16) if s & diag == s]
        assert all((e ^ s, i ^ s) == keys[0] for (e, i), s in zip(keys, subsets))


@pytest.mark.parametrize("field", list(FIELDS))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_plane_terms_rebuild_every_monomial(field, n):
    # sum over the plane terms of v e_A0 i_B0 u_T, multiplied out with
    # u_a = 2 e_a i_a - 1, is 2^n times the monomial
    config = Config(n, FIELDS[field])
    one = config.field.one()
    u = [
        CliffordElem(config, {(1 << a, 1 << a): config.field.from_int(2), (0, 0): -one})
        for a in range(n)
    ]
    for mono in product(range(config.size), repeat=2):
        x = CliffordElem(config, {mono: one})
        total = CliffordElem.zero(config)
        for (emask, imask), v in _plane_row(x._num, n).items():
            diag = emask & imask
            term = CliffordElem(config, {(emask ^ diag, imask ^ diag): config.field.from_int(v)})
            for a in range(n):
                if (diag >> a) & 1:
                    term = multiply(term, u[a])
            total = total + term
        assert total == x.scale(config.field.from_int(config.size)), mono


def clifford_names(name):
    """The names that function `name` of clifford.py reads or calls."""
    tree = ast.parse(inspect.getsource(clifford_mod))
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    return {node.id for node in ast.walk(funcs[name]) if isinstance(node, ast.Name)}


def test_trace_product_walks_no_contraction():
    # the trace pairs plane terms by dict lookup; the Wick walk builds
    # products, and trace_rows builds none
    for name in ("trace_rows", "_plane_row", "_diag_keys"):
        names = clifford_names(name)
        assert "_wick" not in names and "multiply" not in names, name


def test_transpose_walks_no_contraction():
    # the transpose is a sign per subset of A n B, in closed form
    for name in ("transpose", "_diag_keys"):
        names = clifford_names(name)
        assert "_wick" not in names and "multiply" not in names, name


# ----------------------------------------------------------- canonical form


def assert_canonical(v):
    field = v.config.field
    assert v._den >= 1
    assert all(v._num.values())
    if field.characteristic:
        assert v._den == 1
        assert all(0 < c < field.p for c in v._num.values())
    else:
        assert gcd(v._den, *v._num.values()) == 1


class TestCanonicalForm:
    def test_kernel_results_are_canonical(self, config):
        r = rng(1100 + config.n)
        for _ in range(10):
            x, y = rand_elem(config, r), rand_elem(config, r)
            psi = rand_spinor(config, r)
            for v in (x, multiply(x, y), commutator(x, y), transpose(x), act(x, psi),
                      x + y, x - y, -x, psi, psi + psi, create(1, psi)):
                assert_canonical(v)
            if config.n <= 4:
                for part in grade_projections(x):
                    assert_canonical(part)

    def test_equal_values_from_different_denominators(self, config):
        r = rng(1200 + config.n)
        field = config.field
        for _ in range(10):
            x = rand_elem(config, r)
            third = field.from_fraction(1, 3)
            thrice = x.scale(third) + x.scale(third) + x.scale(third)
            assert thrice == x and hash(thrice) == hash(x)
            halves = CliffordElem(config, {m: c * field.from_fraction(1, 2) for m, c in x.terms.items()})
            assert halves + halves == x and hash(halves + halves) == hash(x)
            psi = rand_spinor(config, r)
            split = psi.scale(field.from_fraction(3, 4)) + psi.scale(field.from_fraction(1, 4))
            assert split == psi and hash(split) == hash(psi)

    def test_zero_results(self, config):
        r = rng(1300 + config.n)
        zero_e, zero_s = CliffordElem.zero(config), SpinorVec.zero(config)
        for _ in range(5):
            x, psi = rand_elem(config, r), rand_spinor(config, r)
            for z in (x.scale(0), x - x, x.scale(config.field.zero())):
                assert z.is_zero() and z == zero_e and z._den == 1
            for z in (psi.scale(0), psi - psi):
                assert z.is_zero() and z == zero_s and z._den == 1

    def test_scale_round_trip(self, config):
        r = rng(1400 + config.n)
        field = config.field
        for s in (field.from_fraction(1, 3), field.from_fraction(-5, 3), field.from_fraction(3, 4)):
            x, psi = rand_elem(config, r), rand_spinor(config, r)
            assert x.scale(s).scale(1 / s) == x
            assert psi.scale(s).scale(1 / s) == psi

    def test_accessors_return_field_scalars(self, config):
        r = rng(1500 + config.n)
        kind = Fraction if config.field.characteristic == 0 else Residue
        x, psi = rand_elem(config, r), rand_spinor(config, r)
        for v in (x, psi):
            assert all(type(c) is kind for c in v.terms.values())
            assert all(type(c) is kind for _, c in v.items())
            key = next(iter(v.terms))
            assert type(v.get(key)) is kind and v.get(key) == v.terms[key]
        assert type(x.get((config.size - 1, 0))) is kind
        assert type(psi.get(config.size - 1)) is kind
        assert type(trace(x)) is kind
        assert type(b_eval(solve_spinor_norm(config), psi, psi)) is kind

    def test_constructor_takes_fractions_over_fp(self):
        config = Config(2, PrimeField(7))
        x = CliffordElem(config, {(1, 0): Fraction(1, 3)})
        assert x.get((1, 0)) == PrimeField(7).from_fraction(1, 3)
        with pytest.raises(ValueError):
            CliffordElem(config, {(1, 0): Residue(1, 11)})
        with pytest.raises(TypeError):
            SpinorVec(Config(2), {1: Residue(1, 7)})


# ------------------------------------------------------------------ bounds


class TestConstructorBounds:
    def test_clifford_terms_out_of_range(self):
        config = Config(3)
        for mono in ((8, 0), (0, 8), (-1, 0), (0, -1)):
            with pytest.raises(ValueError):
                CliffordElem(config, {mono: Fraction(1)})

    def test_spinor_terms_out_of_range(self):
        config = Config(3)
        for mask in (8, 9, -1):
            with pytest.raises(ValueError):
                SpinorVec(config, {mask: Fraction(1)})

    def test_monomial_out_of_range(self):
        config = Config(3)
        for emask, imask in ((-1, 0), (0, -1), (8, 0), (0, 8)):
            with pytest.raises(ValueError):
                CliffordElem.monomial(config, emask, imask)
        assert CliffordElem.monomial(config, 7, 7).terms == {(7, 7): Fraction(1)}

    def test_in_range_accepted(self):
        config = Config(3)
        assert repr(CliffordElem(config, {(7, 0): Fraction(1, 3)})) == "+ (1/3) e1 e2 e3"
        assert SpinorVec(config, {7: Fraction(1)}).get(7) == 1
        assert orthonormal_vector(config, 5).terms == {(4, 0): 1, (0, 4): -1}


# ------------------------------------------- one-pass props kernels


WIDE_FIELDS = {"q": Rationals(), "fp7": PrimeField(7), "fp2147483647": PrimeField(2147483647)}


def one_pass_pairs(config, r):
    """(form, x, y) cases under each of `forms`' two plain norms: every
    basis pair for n <= 4, else 6 seeded sparse pairs in which y holds the
    partners of x's masks flipped at no bit or at two random bits (the
    shifts that every four-sum word and every move-then-adjoint make), so
    that most cases meet."""
    full = config.size - 1
    basis = [SpinorVec.basis(config, m) for m in range(config.size)]
    cases = []
    for form, _ in forms(config):
        if config.n <= 4:
            cases += [(form, x, y) for x in basis for y in basis]
            continue
        for _ in range(6):
            x = rand_spinor(config, r, 3)
            flips = [0]
            for _ in range(2):
                flips.append((1 << r.randrange(config.n)) | (1 << r.randrange(config.n)))
            y = rand_spinor(config, r, 2) + SpinorVec(config, {
                m ^ full ^ flip: c for m, c in x.terms.items() for flip in flips
            })
            cases.append((form, x, y))
    return cases


@pytest.mark.parametrize("field", WIDE_FIELDS.values(), ids=WIDE_FIELDS.keys())
@pytest.mark.parametrize("n", range(1, 9))
class TestOnePassKernels:
    def test_adjoint_after_move_matches_act_route(self, n, field):
        # every row of the all-slot route is the orbit-map adjoint of
        # psi moved by act, and no row lies outside the 2n slots
        config = Config(n, field)
        vecs = [orthonormal_vector(config, s) for s in range(2 * n)]
        nonzero_seen = 0
        for form, x, y in one_pass_pairs(config, rng(1100 + n)):
            for phi, psi in ((y, x), (x, y)):
                rows, den = _slot_adjoints(form, phi, psi)
                assert set(rows) <= set(range(2 * n))
                for slot, vec in enumerate(vecs):
                    got = CliffordElem._make(config, dict(rows.get(slot, {})), den)
                    assert got == orbit_map_adjoint(form, phi, act(vec, psi)), slot
                    nonzero_seen += not got.is_zero()
        assert nonzero_seen

    def test_grade2_pairing_matches_per_word_sum(self, n, field):
        config = Config(n, field)
        assert len(_four_sum_words(config)) == 3 * n * (n - 1) + n
        nonzero_seen = 0
        for form, x, y in one_pass_pairs(config, rng(1200 + n)):
            for psi1, psi2 in ((x, y), (y, x)):
                got = grade2_pairing(form, psi1, psi2)
                assert got == grade2_pairing_per_word(form, psi1, psi2)
                assert got.terms == o_grade2_pairing(form, psi1.terms, psi2.terms)
                nonzero_seen += not got.is_zero()
        assert nonzero_seen


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
@pytest.mark.parametrize("n", range(1, 7))
def test_slot_move_is_the_one_surviving_witt_term(n, field):
    # E_slot = e_a +- i_a: of its two Witt terms, applied by apply_monomial,
    # exactly one survives on e_M.v, with _slot_move's mask and sign
    config = Config(n, field)
    for slot in range(2 * n):
        terms = orthonormal_vector(config, slot).terms.items()
        for mask in range(config.size):
            hits = [
                (hit[1], field.from_int(hit[0]) * c)
                for (emask, imask), c in terms
                if (hit := apply_monomial(emask, imask, mask)) is not None
            ]
            odd, new = _slot_move(mask, slot)
            assert hits == [(new, field.from_int(-1 if odd & 1 else 1))], (slot, mask)


def test_adjoint_after_move_rejects_bad_input():
    # the all-slot route takes no slot; a config mismatch still raises
    config = Config(3)
    form = solve_spinor_norm(config)
    v = SpinorVec.vacuum(config)
    other = SpinorVec.vacuum(Config(2))
    for phi, psi in ((v, other), (other, v)):
        with pytest.raises(ValueError):
            _slot_adjoints(form, phi, psi)


# ------------------------------------------- the pruned spinor-pair kernels


def shifted_partners(config, r, psi1, moved):
    """A spinor whose terms are the complements of psi1's masks, each
    flipped at `moved` distinct seeded modes."""
    full = config.size - 1
    pool = coeff_pool(config.field)
    terms = {}
    for m in psi1.terms:
        flip = sum(1 << bit for bit in r.sample(range(config.n), moved))
        terms[m ^ full ^ flip] = r.choice(pool)
    return SpinorVec(config, terms)


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
@pytest.mark.parametrize("n", range(1, 6))
def test_grade2_pairing_matches_unpruned_on_every_basis_pair(n, field):
    config = Config(n, field)
    vecs = [SpinorVec.basis(config, m) for m in range(config.size)]
    for form, _ in forms(config):
        nonzero_seen = 0
        for x, y in product(vecs, repeat=2):
            got = grade2_pairing(form, x, y)
            assert got == grade2_pairing_unpruned(form, x, y), (x, y)
            nonzero_seen += not got.is_zero()
        assert nonzero_seen


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
@pytest.mark.parametrize("n", [6, 7, 8])
def test_grade2_pairing_matches_unpruned_on_multi_term_pairs(n, field):
    # y holds x's partners moved at 0..3 modes and x's own masks, so the
    # two spinors share masks; (y, y) pairs a spinor with itself
    config = Config(n, field)
    r = rng(3000 + n)
    for form, _ in forms(config):
        nonzero_seen = 0
        for moved in range(4):
            for _ in range(3):
                x = rand_spinor(config, r, 4)
                y = shifted_partners(config, r, x, moved) + x.scale(
                    config.field.from_int(3)
                )
                for psi1, psi2 in ((x, y), (y, x), (y, y)):
                    got = grade2_pairing(form, psi1, psi2)
                    assert got == grade2_pairing_unpruned(form, psi1, psi2)
                    nonzero_seen += not got.is_zero()
        assert nonzero_seen


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
@pytest.mark.parametrize("n", range(1, 9))
def test_graded_pairing_matches_oracle_at_each_mode_shift(n, field):
    # psi2's terms differ from psi1's complements in `moved` modes: 0 is
    # reached by the two slots of one mode, 1 by one slot, 2 by a slot
    # pair of two modes, 3 by nothing unless two psi1 terms combine
    config = Config(n, field)
    r = rng(3100 + n)
    for _, gform in forms(config):
        for moved in range(min(n, 3) + 1):
            nonzero_seen = 0
            for _ in range(4):
                psi1 = rand_spinor(config, r, 3)
                psi2 = shifted_partners(config, r, psi1, moved)
                got = graded_pairing(gform, psi1, psi2)
                assert got.terms == o_graded_pairing(gform, psi1.terms, psi2.terms)
                nonzero_seen += not got.is_zero()
            assert nonzero_seen or moved == 3, moved


@pytest.mark.parametrize("n", range(1, 5))
def test_reach_modes_holds_every_reaching_move(n):
    # one slot or two slots moving e_M.v to the complement of P: each mode
    # they use lies in _reach_modes(M, [P], full), and no mode at all
    # when M xor P xor full has three or more bits
    config = Config(n)
    full = config.size - 1
    slots = range(2 * n)
    for mask, other in product(range(config.size), repeat=2):
        modes = _reach_modes(mask, [other], full)
        flip = mask ^ other ^ full
        if flip.bit_count() >= 3:
            assert modes == 0, (mask, other)
        for s in slots:
            m1 = _slot_move(mask, s)[1]
            if m1 == other ^ full:
                assert modes >> (s >> 1) & 1, (mask, other, s)
            for t in slots:
                if t > s and _slot_move(m1, t)[1] == other ^ full:
                    assert modes >> (s >> 1) & modes >> (t >> 1) & 1, (mask, other, s, t)
