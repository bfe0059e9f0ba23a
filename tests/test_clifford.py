"""Tests for Clifford algebra arithmetic against the Fock representation.

The representation on the spinor space is the oracle: left multiplication
in the algebra must agree with composing endomorphisms, and the trace of
an element must agree with the matrix trace of its action.
"""

import random
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinor_forge.clifford import (
    CliffordElem,
    act,
    commutator,
    grade_project,
    grade_projections,
    grading_element,
    h_operator,
    monomial_str,
    multiply,
    orthonormal_vector,
    q_map,
    slot_metric,
    transpose,
    vector_commutators,
    witt_e,
    witt_i,
)
from spinor_forge.field import PrimeField, Rationals
from spinor_forge.fock import Config, SpinorVec, inversion_parity

from .helpers import (
    blade_mul,
    blade_slots,
    blade_to_elem,
    epsilon_action,
    grading_element_by_products,
    h_by_multiply,
    project_by_products,
    q_map_by_products,
    rand_elem,
    rand_scalar,
    rand_spinor,
    rng,
    slot_str,
    to_blades,
    to_endomorphism_matrix,
    trace,
    transpose_by_copies,
    vector_commutator,
)

F7 = PrimeField(7)

Q = Rationals()


def cfg(n: int) -> Config:
    return Config(n, Q)


def all_monomials(config: Config):
    for emask in range(config.size):
        for imask in range(config.size):
            yield emask, imask


def int_matrix(x: CliffordElem) -> np.ndarray:
    rows = to_endomorphism_matrix(x)
    return np.array([[int(c) for c in row] for row in rows], dtype=np.int64)


class TestWittRelations:
    def test_i_e_same_index(self):
        c = cfg(2)
        lhs = multiply(witt_i(c, 1), witt_e(c, 1))
        assert lhs == CliffordElem.one(c) - multiply(witt_e(c, 1), witt_i(c, 1))

    def test_e_squares_to_zero(self):
        c = cfg(2)
        assert multiply(witt_e(c, 1), witt_e(c, 1)).is_zero()
        assert multiply(witt_i(c, 2), witt_i(c, 2)).is_zero()

    def test_e_anticommute(self):
        c = cfg(2)
        ab = multiply(witt_e(c, 1), witt_e(c, 2))
        ba = multiply(witt_e(c, 2), witt_e(c, 1))
        assert ab == -1 * ba

    def test_mixed_indices_anticommute(self):
        c = cfg(3)
        prod = multiply(witt_i(c, 1), witt_e(c, 3)) + multiply(
            witt_e(c, 3), witt_i(c, 1)
        )
        assert prod.is_zero()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_generator_pairs(self, n):
        c = cfg(n)
        one = CliffordElem.one(c)
        gens = {("e", a): witt_e(c, a) for a in range(1, n + 1)}
        gens.update({("i", a): witt_i(c, a) for a in range(1, n + 1)})
        for (ka, a), x in gens.items():
            for (kb, b), y in gens.items():
                anti = multiply(x, y) + multiply(y, x)
                if {ka, kb} == {"e", "i"} and a == b:
                    assert anti == one
                else:
                    assert anti.is_zero()

    def test_mod_p(self):
        c = Config(2, PrimeField(7))
        lhs = multiply(witt_i(c, 1), witt_e(c, 1)) + multiply(
            witt_e(c, 1), witt_i(c, 1)
        )
        assert lhs == CliffordElem.one(c)


class TestFockOracle:
    # act() realizes the algebra on the spinor space; left multiplication
    # must therefore intertwine with composition, exhaustively on monomials.

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_monomial_homomorphism(self, n):
        c = cfg(n)
        mats = {m: int_matrix(CliffordElem.monomial(c, *m)) for m in all_monomials(c)}
        for m1 in all_monomials(c):
            x = CliffordElem.monomial(c, *m1)
            for m2 in all_monomials(c):
                y = CliffordElem.monomial(c, *m2)
                assert (int_matrix(multiply(x, y)) == mats[m1] @ mats[m2]).all()

    def test_monomial_homomorphism_n4_sampled(self):
        c = cfg(4)
        monos = list(all_monomials(c))
        r = random.Random(41)
        for _ in range(400):
            m1, m2 = r.choice(monos), r.choice(monos)
            x = CliffordElem.monomial(c, *m1)
            y = CliffordElem.monomial(c, *m2)
            assert (int_matrix(multiply(x, y)) == int_matrix(x) @ int_matrix(y)).all()

    def test_monomial_matrices_distinct_nonzero(self):
        c = cfg(2)
        seen = set()
        for m in all_monomials(c):
            mat = int_matrix(CliffordElem.monomial(c, *m))
            assert mat.any()
            seen.add(mat.tobytes())
        assert len(seen) == c.size**2

    def test_act_is_left_module(self):
        c = cfg(3)
        r = rng(7)
        for _ in range(50):
            x, y = rand_elem(c, r), rand_elem(c, r)
            psi = rand_spinor(c, r)
            assert act(multiply(x, y), psi) == act(x, act(y, psi))
            assert act(x + y, psi) == act(x, psi) + act(y, psi)


class TestTranspose:
    def test_fixes_vectors(self):
        c = cfg(2)
        for a in (1, 2):
            assert transpose(witt_e(c, a)) == witt_e(c, a)
            assert transpose(witt_i(c, a)) == witt_i(c, a)

    def test_reverses_pair(self):
        c = cfg(2)
        e12 = multiply(witt_e(c, 1), witt_e(c, 2))
        assert transpose(e12) == -1 * e12

    def test_frozen_ei(self):
        c = cfg(1)
        # T(e1 i1) = i1 e1 = 1 - e1 i1
        e1i1 = multiply(witt_e(c, 1), witt_i(c, 1))
        assert transpose(e1i1) == CliffordElem.one(c) - e1i1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_involution(self, n):
        c = cfg(n)
        for m in all_monomials(c):
            x = CliffordElem.monomial(c, *m)
            assert transpose(transpose(x)) == x

    def test_antihomomorphism(self):
        c = cfg(3)
        r = rng(11)
        for _ in range(60):
            x, y = rand_elem(c, r), rand_elem(c, r)
            assert transpose(multiply(x, y)) == multiply(transpose(y), transpose(x))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_volume_element_sign(self, n):
        # Reversing a product of 2n orthogonal vectors gives (-1)^{n(2n-1)}.
        c = cfg(n)
        eps = grading_element(c)
        sign = -1 if (n * (2 * n - 1)) & 1 else 1
        assert transpose(eps) == sign * eps


class TestTrace:
    def test_identity(self):
        assert trace(CliffordElem.one(cfg(3))) == Fraction(8)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_e1i1(self, n):
        c = cfg(n)
        assert trace(multiply(witt_e(c, 1), witt_i(c, 1))) == Fraction(2 ** (n - 1))

    def test_off_diagonal_vanishes(self):
        c = cfg(3)
        for emask, imask in all_monomials(c):
            if emask != imask:
                x = CliffordElem.monomial(c, emask, imask)
                assert trace(x) == Fraction(0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matrix_oracle_exhaustive(self, n):
        c = cfg(n)
        for m in all_monomials(c):
            x = CliffordElem.monomial(c, *m)
            assert trace(x) == Fraction(int(np.trace(int_matrix(x))))

    def test_matrix_oracle_random_n4(self):
        c = cfg(4)
        r = rng(13)
        for _ in range(25):
            x = rand_elem(c, r, nmono=5)
            mat = to_endomorphism_matrix(x)
            diag = sum((mat[k][k] for k in range(c.size)), Q.zero())
            assert trace(x) == diag

    def test_cyclic(self):
        c = cfg(3)
        r = rng(17)
        for _ in range(40):
            x, y = rand_elem(c, r), rand_elem(c, r)
            assert trace(multiply(x, y)) == trace(multiply(y, x))

    def test_transpose_invariant(self):
        c = cfg(3)
        r = rng(19)
        for _ in range(40):
            x = rand_elem(c, r)
            assert trace(transpose(x)) == trace(x)

    @pytest.mark.parametrize("n", [1, 2])
    def test_trace_form_nondegenerate(self, n):
        # the Gram matrix of Tr(T(x) y) over the monomial basis has full
        # rank; individual Witt monomials are null, so invertibility is
        # the right statement.
        c = cfg(n)
        monos = list(all_monomials(c))
        gram = [
            [
                trace(
                    multiply(
                        transpose(CliffordElem.monomial(c, *m1)),
                        CliffordElem.monomial(c, *m2),
                    )
                )
                for m2 in monos
            ]
            for m1 in monos
        ]
        rank = 0
        for col in range(len(monos)):
            piv = next((r for r in range(rank, len(monos)) if gram[r][col]), None)
            if piv is None:
                continue
            gram[rank], gram[piv] = gram[piv], gram[rank]
            inv = 1 / gram[rank][col]
            for r in range(rank + 1, len(monos)):
                f = gram[r][col] * inv
                if f:
                    gram[r] = [a - f * b for a, b in zip(gram[r], gram[rank])]
            rank += 1
        assert rank == len(monos)


class TestOrthonormalBasis:
    def test_slot_str(self):
        assert slot_str(4) == "E3"
        assert slot_str(5) == "E3~"
        assert slot_str(0) == "E1"

    def test_squares(self):
        c = cfg(2)
        for s in range(4):
            v = orthonormal_vector(c, s)
            sq = multiply(v, v)
            assert sq == slot_metric(s) * CliffordElem.one(c)

    def test_pairwise_anticommute(self):
        c = cfg(2)
        for s1 in range(4):
            for s2 in range(s1 + 1, 4):
                v1, v2 = orthonormal_vector(c, s1), orthonormal_vector(c, s2)
                assert (multiply(v1, v2) + multiply(v2, v1)).is_zero()

    def test_q_map_empty(self):
        c = cfg(2)
        assert q_map(c, ()) == CliffordElem.one(c)

    def test_q_map_singles(self):
        c = cfg(2)
        assert q_map(c, (0,)) == witt_e(c, 1) + witt_i(c, 1)
        assert q_map(c, (1,)) == witt_e(c, 1) - witt_i(c, 1)

    def test_q_map_rejects_unordered(self):
        c = cfg(2)
        with pytest.raises(ValueError, match="ascending"):
            q_map(c, (1, 0))
        with pytest.raises(ValueError, match="ascending"):
            q_map(c, (2, 2))

    def test_q_map_rejects_bad_slot(self):
        with pytest.raises(ValueError, match="out of range"):
            q_map(cfg(2), (0, 4))

    def test_volume_is_full_product(self):
        for n in (1, 2, 3):
            c = cfg(n)
            assert grading_element(c) == q_map_by_products(c, tuple(range(2 * n)))


class TestBlades:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_roundtrip(self, n):
        c = cfg(n)
        for bmask in range(4**n):
            elem = blade_to_elem(c, bmask)
            assert to_blades(elem) == {bmask: Q.one()}

    def test_blade_mul_matches_multiply(self):
        c = cfg(2)
        for m1 in range(16):
            for m2 in range(16):
                coeff, mask = blade_mul(m1, m2)
                lhs = multiply(blade_to_elem(c, m1), blade_to_elem(c, m2))
                assert lhs == coeff * blade_to_elem(c, mask)

    def test_to_blades_linear(self):
        c = cfg(3)
        r = rng(23)
        for _ in range(30):
            x, y = rand_elem(c, r), rand_elem(c, r)
            bx, by = to_blades(x), to_blades(y)
            bsum = dict(bx)
            for m, cb in by.items():
                prev = bsum.get(m, Q.zero())
                s = prev + cb
                if s:
                    bsum[m] = s
                else:
                    bsum.pop(m, None)
            assert bsum == to_blades(x + y)


    @pytest.mark.parametrize("field", [Q, F7], ids=["q", "fp7"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_to_blades_matches_stepwise_expansion(self, n, field):
        c = Config(n, field)
        r = rng(700 + n)
        elems = [rand_elem(c, r, nmono=4) for _ in range(10)]
        if n <= 2:
            elems += [CliffordElem(c, {m: field.one()}) for m in all_monomials(c)]
        for x in elems:
            assert to_blades(x) == stepwise_blades(x)


def stepwise_blades(x: CliffordElem) -> dict:
    """Blade coordinates of x by replacing one Witt generator at a time
    with (E +- E~)/2, the factor 1/2 taken as a field element."""
    field = x.config.field
    half = field.from_fraction(1, 2)
    out = {}
    for (emask, imask), c in x.terms.items():
        gens = [(a, False) for a in range(x.config.n) if (emask >> a) & 1]
        gens += [(a, True) for a in range(x.config.n) if (imask >> a) & 1]
        acc = {0: c}
        for a, is_i in gens:
            nxt = {}
            for bmask, cb in acc.items():
                for slot, sign in ((2 * a, 1), (2 * a + 1, -1 if is_i else 1)):
                    # right-multiply by E_slot: pass the higher slots, and
                    # contract with the slot's metric on a repeat
                    sign *= -1 if (bmask >> (slot + 1)).bit_count() & 1 else 1
                    if (bmask >> slot) & 1:
                        sign *= slot_metric(slot)
                    new = bmask ^ (1 << slot)
                    nxt[new] = nxt.get(new, field.zero()) + cb * half * sign
            acc = nxt
        for bmask, cb in acc.items():
            out[bmask] = out.get(bmask, field.zero()) + cb
    return {m: cb for m, cb in out.items() if cb}


class TestGradeProjection:
    def test_scalar(self):
        c = cfg(2)
        one = CliffordElem.one(c)
        assert grade_project(one, 0) == one
        assert grade_project(one, 2).is_zero()

    def test_frozen_e1i1(self):
        c = cfg(2)
        e1i1 = multiply(witt_e(c, 1), witt_i(c, 1))
        half = CliffordElem.one(c).scale(Fraction(1, 2))
        assert grade_project(e1i1, 0) == half
        # the grade-2 part is (e1 i1 - i1 e1)/2 = e1 i1 - 1/2
        assert grade_project(e1i1, 2) == e1i1 - half
        assert grade_project(e1i1, 1).is_zero()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_top_grade_of_volume(self, n):
        c = cfg(n)
        eps = grading_element(c)
        assert grade_project(eps, 2 * n) == eps

    def test_vectors_are_grade_one(self):
        c = cfg(3)
        for a in range(1, 4):
            for v in (witt_e(c, a), witt_i(c, a)):
                assert grade_project(v, 1) == v

    def test_q_map_products_are_pure(self):
        c = cfg(3)
        for k in range(7):
            for slots in combinations(range(6), k):
                x = q_map(c, slots)
                assert grade_project(x, k) == x

    @pytest.mark.parametrize("n", [1, 2])
    def test_completeness_exhaustive(self, n):
        c = cfg(n)
        for m in all_monomials(c):
            x = CliffordElem.monomial(c, *m)
            total = CliffordElem.zero(c)
            for k in range(2 * n + 1):
                total = total + grade_project(x, k)
            assert total == x

    def test_completeness_random(self):
        for n in (3, 4):
            c = cfg(n)
            r = rng(29 + n)
            for _ in range(10):
                x = rand_elem(c, r, nmono=4)
                total = CliffordElem.zero(c)
                for k in range(2 * n + 1):
                    total = total + grade_project(x, k)
                assert total == x

    def test_idempotent_orthogonal(self):
        c = cfg(3)
        r = rng(31)
        for _ in range(8):
            x = rand_elem(c, r, nmono=4)
            for k in range(7):
                pk = grade_project(x, k)
                assert grade_project(pk, k) == pk
                assert grade_project(pk, (k + 1) % 7).is_zero()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_volume_duality(self, n):
        # multiplying by the volume element swaps grade k with 2n - k
        c = cfg(n)
        eps = grading_element(c)
        for m in all_monomials(c):
            x = CliffordElem.monomial(c, *m)
            for k in range(2 * n + 1):
                lhs = grade_project(multiply(eps, x), 2 * n - k)
                assert lhs == multiply(eps, grade_project(x, k))

    def test_range_check(self):
        # a negative grade must not index the parts list from the end
        for n in (1, 2, 3):
            x = CliffordElem.one(cfg(n))
            for k in (-1, 2 * n + 1):
                with pytest.raises(ValueError, match="out of range"):
                    grade_project(x, k)

    def test_commutator_of_vectors_is_grade_two(self):
        c = cfg(3)
        gens = [witt_e(c, a) for a in (1, 2, 3)] + [witt_i(c, a) for a in (1, 2, 3)]
        for u in gens:
            for v in gens:
                com = commutator(u, v)
                assert grade_project(com, 2) == com

    def test_grade_two_commutator_preserves_grade(self):
        c = cfg(3)
        r = random.Random(37)
        pairs = list(combinations(range(6), 2))
        for _ in range(12):
            s1, s2 = r.choice(pairs)
            g2 = q_map(c, (s1, s2))
            k = r.randint(0, 6)
            slots = tuple(sorted(r.sample(range(6), k)))
            x = q_map(c, slots)
            com = commutator(g2, x)
            assert grade_project(com, k) == com

    def test_volume_central_in_even_commutators(self):
        # the volume element commutes with every grade-2 element
        c = cfg(3)
        eps = grading_element(c)
        for s1, s2 in combinations(range(6), 2):
            assert commutator(q_map(c, (s1, s2)), eps).is_zero()


class TestClosedFormBlades:
    @pytest.mark.parametrize("field", [Q, F7], ids=["q", "fp7"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_blade_to_elem_matches_q_map_every_blade(self, n, field):
        c = Config(n, field)
        for bmask in range(1 << (2 * n)):
            slots = blade_slots(n, bmask)
            want = q_map_by_products(c, slots)
            assert blade_to_elem(c, bmask) == q_map(c, slots) == want, bmask

    @pytest.mark.parametrize("field", [Q, F7], ids=["q", "fp7"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_grading_element_and_h_match_products(self, n, field):
        c = Config(n, field)
        assert grading_element(c) == grading_element_by_products(c)
        assert h_operator(c) == h_by_multiply(c)

    def test_blade_mask_range_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            blade_to_elem(cfg(2), 1 << 4)

    @pytest.mark.parametrize("field", [Q, F7], ids=["q", "fp7"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_projection_matches_product_route(self, n, field):
        c = Config(n, field)
        r = rng(1500 + n)
        elems = [rand_elem(c, r, nmono=4) for _ in range(4)]
        elems += [grading_element(c), h_operator(c)]
        for x in elems:
            parts = grade_projections(x)
            assert len(parts) == 2 * n + 1
            for k, part in enumerate(parts):
                assert part == grade_project(x, k)
                assert part == project_by_products(x, k)

    @pytest.mark.parametrize("field", [Q, F7], ids=["q", "fp7"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_projection_matches_product_route_every_monomial(self, n, field):
        c = Config(n, field)
        for m in all_monomials(c):
            x = CliffordElem.monomial(c, *m)
            parts = grade_projections(x)
            for k, part in enumerate(parts):
                assert part == grade_project(x, k) == project_by_products(x, k), (m, k)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_trace_formula_factors_cancel(self, n):
        # grade_project drops the metric prefactor, the reversal sign and
        # the blade's square, whose product is 1 on every blade
        for bmask in range(1 << (2 * n)):
            k = bmask.bit_count()
            gpref = 1
            for s in blade_slots(n, bmask):
                gpref *= slot_metric(s)
            rev_sign = -1 if (k * (k - 1) // 2) & 1 else 1
            square_coeff, square = blade_mul(bmask, bmask)
            assert (gpref * rev_sign * square_coeff, square) == (1, 0), bmask

    @pytest.mark.parametrize("field", [Q, F7], ids=["q", "fp7"])
    def test_transpose_matches_copying_route(self, field):
        c = Config(5, field)
        r = rng(1550)
        for _ in range(12):
            x = rand_elem(c, r, nmono=5)
            assert transpose(x) == transpose_by_copies(x)

    @pytest.mark.parametrize("n", [9, 12])
    def test_projection_accepts_every_config_n(self, n):
        # no warning and no combinatorial sweep above n = 8
        c = cfg(n)
        top = 1 << (n - 1)
        x = CliffordElem(
            c, {(top, 0): Q.from_int(3), (top | 1, top | 2): Q.from_int(-2), (0, 0): Q.one()}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parts = grade_projections(x)
            assert parts[1] == grade_project(x, 1)
        total = CliffordElem.zero(c)
        for part in parts:
            total = total + part
        assert total == x


class TestGradingElement:
    def test_frozen_n1(self):
        c = cfg(1)
        expected = CliffordElem.one(c) - 2 * multiply(witt_e(c, 1), witt_i(c, 1))
        assert grading_element(c) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_squares_to_one(self, n):
        c = cfg(n)
        eps = grading_element(c)
        assert multiply(eps, eps) == CliffordElem.one(c)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_fock_grading(self, n):
        c = cfg(n)
        eps = grading_element(c)
        for mask in range(c.size):
            psi = SpinorVec.basis(c, mask)
            assert act(eps, psi) == epsilon_action(psi)

    def test_anticommutes_with_vectors(self):
        c = cfg(2)
        eps = grading_element(c)
        for a in (1, 2):
            for v in (witt_e(c, a), witt_i(c, a)):
                assert multiply(eps, v) == -1 * multiply(v, eps)

    def test_idempotent_pair(self):
        c = cfg(3)
        one = CliffordElem.one(c)
        eps = grading_element(c)
        half = Fraction(1, 2)
        plus = (one + eps).scale(half)
        minus = (one - eps).scale(half)
        assert multiply(plus, plus) == plus
        assert multiply(minus, minus) == minus
        assert multiply(plus, minus).is_zero()
        assert plus + minus == one


class TestHOperator:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ladder_commutators(self, n):
        c = cfg(n)
        h = h_operator(c)
        for a in range(1, n + 1):
            assert commutator(h, witt_e(c, a)) == witt_e(c, a)
            assert commutator(h, witt_i(c, a)) == -1 * witt_i(c, a)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_eigenvalues(self, n):
        c = cfg(n)
        h = h_operator(c)
        for mask in range(c.size):
            psi = SpinorVec.basis(c, mask)
            lam = Fraction(2 * mask.bit_count() - n, 2)
            assert act(h, psi) == psi.scale(lam)

    def test_pure_grade_two(self):
        c = cfg(3)
        h = h_operator(c)
        assert grade_project(h, 2) == h


class TestPrinting:
    def test_monomial_str(self):
        assert monomial_str((0, 0)) == "1"
        assert monomial_str((0b101, 0b010)) == "e1 e3 i2"
        assert monomial_str((0, 0b1)) == "i1"

    def test_elem_repr(self):
        c = cfg(2)
        x = multiply(witt_e(c, 1), witt_i(c, 1)).scale(Fraction(1, 2))
        assert "(1/2) e1 i1" in repr(x)

    def test_monomial_range_check(self):
        with pytest.raises(ValueError):
            CliffordElem.monomial(cfg(1), 0b10, 0)


# The generator-by-generator rewrite of the three Witt relations, kept
# here as an oracle for the closed-form Wick product in `multiply`.


def _below(mask, bit):
    return (mask & ((1 << bit) - 1)).bit_count()


def _rewrite_left_mul_i(terms, bit):
    """Left-multiply normal-ordered terms by i_{bit+1}: a matching e
    factor splits the term into a contraction and a pass-through."""
    out = {}
    one_bit = 1 << bit
    for (emask, imask), c in terms.items():
        if emask & one_bit:
            key = (emask & ~one_bit, imask)
            term = -c if _below(emask, bit) & 1 else c
            out[key] = out[key] + term if key in out else term
        if not imask & one_bit:
            key = (emask, imask | one_bit)
            term = -c if (emask.bit_count() + _below(imask, bit)) & 1 else c
            out[key] = out[key] + term if key in out else term
    return {m: c for m, c in out.items() if c}


def _rewrite_left_mul_e(terms, bit):
    """Left-multiply normal-ordered terms by e_{bit+1}."""
    out = {}
    one_bit = 1 << bit
    for (emask, imask), c in terms.items():
        if emask & one_bit:
            continue
        key = (emask | one_bit, imask)
        term = -c if _below(emask, bit) & 1 else c
        out[key] = out[key] + term if key in out else term
    return {m: c for m, c in out.items() if c}


def rewrite_multiply(x: CliffordElem, y: CliffordElem) -> dict:
    """Terms of x*y: each monomial of x applied to y one generator at a
    time, rightmost first."""
    acc = {}
    for (emask, imask), cx in x.terms.items():
        terms = y.terms
        for bit in reversed(range(x.config.n)):
            if (imask >> bit) & 1:
                terms = _rewrite_left_mul_i(terms, bit)
        for bit in reversed(range(x.config.n)):
            if (emask >> bit) & 1:
                terms = _rewrite_left_mul_e(terms, bit)
        for m, c in terms.items():
            acc[m] = acc[m] + cx * c if m in acc else cx * c
    return {m: c for m, c in acc.items() if c}


class TestWickOracle:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_monomial_pair(self, n):
        c = cfg(n)
        monos = [CliffordElem(c, {m: Q.one()}) for m in all_monomials(c)]
        for x in monos:
            for y in monos:
                assert multiply(x, y).terms == rewrite_multiply(x, y), (x, y)

    @pytest.mark.parametrize("field", [Q, F7], ids=["q", "fp7"])
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_seeded_elements(self, n, field):
        c = Config(n, field)
        r = rng(600 + n)
        for _ in range(12):
            x, y = rand_elem(c, r, nmono=5), rand_elem(c, r, nmono=5)
            assert multiply(x, y).terms == rewrite_multiply(x, y)

    def test_contraction_heavy_pairs(self):
        # i_B against e_C with B n C large exercises every subset S
        c = cfg(6)
        r = rng(617)
        for _ in range(40):
            a, b, cm, d = (r.randrange(c.size) for _ in range(4))
            shared = r.randrange(c.size)
            x = CliffordElem.monomial(c, a, b | shared)
            y = CliffordElem.monomial(c, cm | shared, d)
            assert multiply(x, y).terms == rewrite_multiply(x, y)
        # _wick walks forced u P over the subsets P of free, where forced
        # = (A n C) u (B n D) must lie in B n C and free = (B n C) - forced:
        # pairs with both nonempty, seeded, as elements with several terms
        drawn = 0
        while drawn < 40:
            a, b, cm, d = (r.randrange(c.size) for _ in range(4))
            both, forced = b & cm, (a & cm) | (b & d)
            if forced & ~both or not forced or not both ^ forced:
                continue
            drawn += 1
            x = CliffordElem(c, {(a, b): rand_scalar(c, r), (b, a): Q.one()})
            y = CliffordElem(c, {(cm, d): rand_scalar(c, r), (d, cm): Q.one()})
            assert multiply(x, y).terms == rewrite_multiply(x, y)

    def test_inversion_parity_against_double_loop(self):
        # 12 bits is Config's largest n, 24 bits its largest blade mask
        def loop(low, high):
            return sum(
                1
                for x in range(24)
                for y in range(x)
                if (low >> x) & 1 and (high >> y) & 1
            ) & 1

        r = rng(612)
        masks = [0, 1, 0x800, 0xFFF, 0xAAA, 0x555, 0xFFFFFF, 0x800000]
        masks += [r.randrange(1 << 12) for _ in range(40)]
        masks += [r.randrange(1 << 24) for _ in range(20)]
        for low in masks:
            for high in masks:
                assert inversion_parity(low, high) == loop(low, high), (low, high)


def rand_even_elem(c: Config, r: random.Random, nterms: int) -> CliffordElem:
    """nterms distinct even monomials of c with random nonzero coefficients;
    ValueError if c has fewer even monomials than that."""
    even = c.size * c.size // 2
    if nterms > even:
        raise ValueError(f"{nterms} terms asked of {even} even monomials")
    terms = {}
    while len(terms) < nterms:
        emask, imask = r.randrange(c.size), r.randrange(c.size)
        if not (emask.bit_count() + imask.bit_count()) & 1:
            terms[(emask, imask)] = rand_scalar(c, r)
    return CliffordElem(c, terms)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rand_even_elem_rejects_more_terms_than_monomials(n):
    c = cfg(n)
    even = c.size * c.size // 2
    x = rand_even_elem(c, rng(40 + n), even)
    assert len(x.terms) == even
    with pytest.raises(ValueError, match="even monomials"):
        rand_even_elem(c, rng(40 + n), even + 1)


class TestVectorCommutator:
    """The closed-form [x, E_slot] against the generic Wick commutator, one
    row of vector_commutators at a time."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_even_monomial(self, n):
        c = cfg(n)
        for emask, imask in all_monomials(c):
            if (emask.bit_count() + imask.bit_count()) & 1:
                continue
            x = CliffordElem.monomial(c, emask, imask)
            for slot in range(2 * n):
                vec = orthonormal_vector(c, slot)
                assert vector_commutator(x, slot) == commutator(x, vec), (x, slot)

    @pytest.mark.parametrize("field", [Q, F7], ids=["q", "fp7"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_seeded_even_elements(self, n, field):
        c = Config(n, field)
        r = rng(900 + n)
        for _ in range(25):
            x = rand_even_elem(c, r, r.randint(1, min(4, c.size * c.size // 2)))
            for slot in range(2 * n):
                vec = orthonormal_vector(c, slot)
                assert vector_commutator(x, slot) == commutator(x, vec), (x, slot)

    def test_grade_two_gives_a_vector(self):
        c = cfg(4)
        x = q_map(c, (1, 6))
        for slot in range(8):
            com = vector_commutator(x, slot)
            assert com == grade_project(com, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rows_only_at_slots(self, n):
        c = cfg(n)
        x = rand_even_elem(c, rng(950 + n), min(6, c.size * c.size // 2))
        rows = vector_commutators(x)
        assert rows and set(rows) <= set(range(2 * n))

    def test_odd_element_rejected(self):
        c = cfg(3)
        x = CliffordElem.monomial(c, 1, 0) + CliffordElem.monomial(c, 3, 0)
        with pytest.raises(ValueError, match="even element"):
            vector_commutator(x, 0)

    @pytest.mark.parametrize("slot", [-1, 6, 7])
    def test_bad_slot_rejected(self, slot):
        with pytest.raises(ValueError, match="out of range"):
            vector_commutator(CliffordElem.one(cfg(3)), slot)


class TestConfigGuards:
    def test_multiply_mismatch(self):
        with pytest.raises(ValueError, match="config mismatch"):
            multiply(CliffordElem.one(cfg(2)), CliffordElem.one(cfg(3)))

    def test_act_mismatch(self):
        with pytest.raises(ValueError, match="config mismatch"):
            act(CliffordElem.one(cfg(2)), SpinorVec.vacuum(cfg(3)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_multiply_associative_and_linear(data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    c = cfg(n)
    r = rng(data.draw(st.integers(min_value=0, max_value=10**6)))
    x, y, z = (rand_elem(c, r, nmono=2) for _ in range(3))
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
    assert multiply(x + y, z) == multiply(x, z) + multiply(y, z)
    assert multiply(z, x + y) == multiply(z, x) + multiply(z, y)
