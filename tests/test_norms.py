"""Tests for the spinor norm: solved entries, defining property, symmetry
tables, and the invariance statements that feed the Lie constructions."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np
import pytest

from spinor_forge.clifford import (
    act,
    commutator,
    q_map,
    transpose,
    witt_e,
    witt_i,
)
from spinor_forge.field import PrimeField, Rationals
from spinor_forge.fock import (
    Config,
    SpinorVec,
    annihilate,
    apply_monomial,
    create,
)
from spinor_forge.norms import (
    BilinearForm,
    _dimension,
    _signed_components,
    _solve_components,
    b_eval,
    graded_norm,
    norm_solution_dimension,
    solve_spinor_norm,
)

from .helpers import mask_from_indices, rand_elem, rand_spinor, rng

Q = Rationals()


def cfg(n: int) -> Config:
    return Config(n, Q)


def generators(c: Config):
    for a in range(1, c.n + 1):
        yield witt_e(c, a)
        yield witt_i(c, a)


class TestSolvedEntries:
    def test_frozen_n1(self):
        B = solve_spinor_norm(cfg(1))
        assert B.export_triples() == [(0, 1, Fraction(1)), (1, 0, Fraction(1))]

    def test_frozen_n2(self):
        B = solve_spinor_norm(cfg(2))
        assert B.export_triples() == [
            (0, 3, Fraction(1)),
            (1, 2, Fraction(1)),
            (2, 1, Fraction(-1)),
            (3, 0, Fraction(-1)),
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_support_is_full_antidiagonal(self, n):
        B = solve_spinor_norm(cfg(n))
        size = 1 << n
        assert len(B.entries) == size
        assert {i for i, _ in B.entries} == set(range(size))
        for (i, j), val in B.entries.items():
            assert j == i ^ (size - 1)
            assert val in (Fraction(1), Fraction(-1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_normalization(self, n):
        c = cfg(n)
        B = solve_spinor_norm(c)
        v = SpinorVec.vacuum(c)
        top = SpinorVec.basis(c, c.size - 1)
        assert b_eval(B, v, top) == Fraction(1)

    def test_vacuum_pairs_to_zero_with_itself(self):
        c = cfg(3)
        B = solve_spinor_norm(c)
        v = SpinorVec.vacuum(c)
        assert b_eval(B, v, v) == Fraction(0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_first_column_entry(self, n):
        # One defining-property step from the normalized entry:
        # B(e_1.v, e_{2..n}.v) = B(v, e_1 e_{2..n}.v) = B(v, e_{1..n}.v) = 1.
        c = cfg(n)
        B = solve_spinor_norm(c)
        e1v = SpinorVec.basis(c, 1)
        rest = SpinorVec.basis(c, mask_from_indices(range(2, n + 1)))
        assert b_eval(B, e1v, rest) == Fraction(1)

    def test_mod_p(self):
        c = Config(2, PrimeField(7))
        B = solve_spinor_norm(c)
        f = c.field
        assert B.entry(0, 3) == f.one()
        assert B.entry(3, 0) == -f.one()


class TestDefiningProperty:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive(self, n):
        c = cfg(n)
        B = solve_spinor_norm(c)
        for x in generators(c):
            for im in range(c.size):
                phi = SpinorVec.basis(c, im)
                xphi = act(x, phi)
                for jm in range(c.size):
                    psi = SpinorVec.basis(c, jm)
                    assert b_eval(B, xphi, psi) == b_eval(B, phi, act(x, psi))

    def test_sampled_n6(self):
        c = cfg(6)
        B = solve_spinor_norm(c)
        r = rng(43)
        for _ in range(60):
            phi, psi = rand_spinor(c, r), rand_spinor(c, r)
            for x in generators(c):
                assert b_eval(B, act(x, phi), psi) == b_eval(B, phi, act(x, psi))

    def test_transpose_compatibility(self):
        # B(c.phi, psi) = B(phi, T(c).psi) extends the generator property
        # to the whole algebra.
        for n in (3, 4):
            c = cfg(n)
            B = solve_spinor_norm(c)
            r = rng(47 + n)
            for _ in range(40):
                x = rand_elem(c, r, nmono=3)
                phi, psi = rand_spinor(c, r), rand_spinor(c, r)
                lhs = b_eval(B, act(x, phi), psi)
                assert lhs == b_eval(B, phi, act(transpose(x), psi))


def union_find(nvars, constraints, forced_zero):
    """Test-local oracle: a system x_a = rel x_b, x_v = 0 by signed union-find.

    Returns, for every unknown that is not forced to zero, (r, s): r the
    smallest unknown it is tied to and s its sign relative to x_r.  A
    component is zero when it holds a forced zero or when its signs
    contradict.
    """
    parent = list(range(nvars))
    sgn = [1] * nvars

    def find(v):
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        acc = 1
        for u in reversed(path):
            acc *= sgn[u]
            parent[u] = v
            sgn[u] = acc
        return v, acc

    zero = list(forced_zero)
    for va, vb, rel in constraints:
        (ra, sa), (rb, sb) = find(va), find(vb)
        if ra == rb:
            if sa != rel * sb:
                zero.append(va)
        else:
            parent[ra] = rb
            sgn[ra] = sa * rel * sb
    zero_roots = {find(v)[0] for v in zero}
    first = {}
    out = {}
    for v in range(nvars):
        root, s = find(v)
        if root not in zero_roots:
            r, sr = first.setdefault(root, (v, s))
            out[v] = (r, s * sr)
    return out


def numpy_solution(plus, minus, zero):
    """The same (r, s) map read from _signed_components' output."""
    first = {}
    out = {}
    for v in np.flatnonzero(~zero).tolist():
        pair = min(plus[v], minus[v])
        r = first.setdefault(pair, v)
        out[v] = (r, 1 if plus[v] == plus[r] else -1)
    return out


@lru_cache(maxsize=None)
def union_find_norm(n: int) -> dict[int, tuple[int, int]]:
    """The union-find oracle on the norm's defining system.

    One scalar pass over every (generator, I, J): each constraint
    s_l B[I', J] = s_r B[I, J'] ties two unknowns up to sign, or forces
    one to zero when a side is killed.
    """
    size = 1 << n
    constraints, forced_zero = [], []
    moves = [
        [apply_monomial(e, i, m) for m in range(size)]
        for a in range(n)
        for e, i in ((1 << a, 0), (0, 1 << a))
    ]
    for imask in range(size):
        for move in moves:
            left = move[imask]
            for jmask in range(size):
                right = move[jmask]
                if left is None:
                    if right is not None:
                        forced_zero.append(imask * size + right[1])
                elif right is None:
                    forced_zero.append(left[1] * size + jmask)
                else:
                    va, vb = left[1] * size + jmask, imask * size + right[1]
                    constraints.append((va, vb, left[0] * right[0]))
    return union_find(size * size, constraints, forced_zero)


class TestUnionFindOracle:
    @pytest.mark.parametrize("n", list(range(1, 9)))
    @pytest.mark.parametrize("field", [Rationals(), PrimeField(7)], ids=["q", "fp7"])
    def test_entries_match(self, n, field):
        solution = union_find_norm(n)
        c = Config(n, field)
        assert norm_solution_dimension(c) == 1
        assert numpy_solution(*_solve_components(c)) == solution
        # one surviving class, anchored at B(v, e_{1..n}.v) = 1
        anchor = c.size - 1
        assert {r for r, _ in solution.values()} == {anchor}
        rel = solution[anchor][1]
        want = {
            divmod(v, c.size): field.from_int(s * rel) for v, (_, s) in solution.items()
        }
        got = solve_spinor_norm(c).entries
        assert list(got) == sorted(want)
        assert got == want

    @pytest.mark.parametrize("seed", range(40))
    def test_random_signed_systems(self, seed):
        # small systems with sign contradictions and lone forced zeros,
        # which the norm's own system never produces
        r = rng(900 + seed)
        nvars = r.randint(2, 40)
        constraints = [
            (r.randrange(nvars), r.randrange(nvars), r.choice((1, -1)))
            for _ in range(r.randint(0, nvars))
        ]
        forced_zero = r.sample(range(nvars), r.randint(0, 3))
        forced = np.zeros(nvars, dtype=bool)
        forced[forced_zero] = True
        edges = [(2 * a, 2 * b + (rel < 0)) for a, b, rel in constraints]
        half = len(edges) // 2
        blocks = [
            tuple(np.array(side, dtype=np.int32).reshape(-1) for side in zip(*part))
            for part in (edges[:half], edges[half:])
            if part
        ]
        plus, minus, zero = _signed_components(nvars, blocks, forced)
        want = union_find(nvars, constraints, forced_zero)
        assert numpy_solution(plus, minus, zero) == want
        assert _dimension(plus, minus, zero) == len({rv for rv, _ in want.values()})


class TestSolveBound:
    def test_n11_rejected_before_solving(self):
        c = Config(11)  # building the Config starts no solve
        for solve in (norm_solution_dimension, solve_spinor_norm):
            with pytest.raises(ValueError, match="n <= 10"):
                solve(c)


SYMMETRY_TABLE = {0: (1, 0), 1: (1, 1), 2: (-1, 0), 3: (-1, 1)}
GRADED_TABLE = {0: (1, 0), 1: (-1, 1), 2: (-1, 0), 3: (1, 1)}


class TestSymmetryTables:
    @pytest.mark.parametrize("n", list(range(1, 9)))
    def test_plain(self, n):
        B = solve_spinor_norm(cfg(n))
        assert (B.symmetry(), B.pairing_parity()) == SYMMETRY_TABLE[n % 4]

    @pytest.mark.parametrize("n", list(range(1, 9)))
    def test_graded(self, n):
        Be = graded_norm(solve_spinor_norm(cfg(n)))
        assert (Be.symmetry(), Be.pairing_parity()) == GRADED_TABLE[n % 4]

    def test_n8_symmetric_even(self):
        B = solve_spinor_norm(cfg(8))
        assert B.symmetry() == 1 and B.pairing_parity() == 0

    def test_n5_graded_antisymmetric_odd(self):
        Be = graded_norm(solve_spinor_norm(cfg(5)))
        assert Be.symmetry() == -1 and Be.pairing_parity() == 1


class TestGradedNorm:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sign_is_row_parity(self, n):
        c = cfg(n)
        B = solve_spinor_norm(c)
        Be = graded_norm(B)
        for im in range(c.size):
            jm = im ^ (c.size - 1)
            want = B.entry(im, jm)
            if im.bit_count() & 1:
                want = -want
            assert Be.entry(im, jm) == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_generators_flip_side_with_sign(self, n):
        c = cfg(n)
        Be = graded_norm(solve_spinor_norm(c))
        for x in generators(c):
            for im in range(c.size):
                phi = SpinorVec.basis(c, im)
                xphi = act(x, phi)
                for jm in range(c.size):
                    psi = SpinorVec.basis(c, jm)
                    assert b_eval(Be, xphi, psi) == -b_eval(Be, phi, act(x, psi))

    def test_invariance_under_degree_one_and_two(self):
        # the graded norm is invariant for C^1 + C^2: single generators and
        # their commutators (the latter span the grade-2 part).
        c = cfg(3)
        Be = graded_norm(solve_spinor_norm(c))
        gens = list(generators(c))
        elems = list(gens)
        for g1, g2 in combinations(gens, 2):
            elems.append(commutator(g1, g2))
        for x in elems:
            for im in range(c.size):
                phi = SpinorVec.basis(c, im)
                xphi = act(x, phi)
                for jm in range(c.size):
                    psi = SpinorVec.basis(c, jm)
                    assert b_eval(Be, xphi, psi) + b_eval(Be, phi, act(x, psi)) == 0

    def test_rejects_graded_input(self):
        Be = graded_norm(solve_spinor_norm(cfg(2)))
        with pytest.raises(ValueError, match="plain"):
            graded_norm(Be)


class TestGradeInvariance:
    @pytest.mark.parametrize("n", [2, 3])
    def test_invariant_grades(self, n):
        # B(c.phi, psi) + B(phi, c.psi) = 0 exactly on grades 2, 3 mod 4
        c = cfg(n)
        B = solve_spinor_norm(c)
        for k in range(2 * n + 1):
            if k % 4 not in (2, 3):
                continue
            for slots in combinations(range(2 * n), k):
                x = q_map(c, slots)
                for im in range(c.size):
                    phi = SpinorVec.basis(c, im)
                    xphi = act(x, phi)
                    for jm in range(c.size):
                        psi = SpinorVec.basis(c, jm)
                        s = b_eval(B, xphi, psi) + b_eval(B, phi, act(x, psi))
                        assert s == Fraction(0)

    def test_non_invariant_grades_fail(self):
        # scalars and vectors do not preserve the form
        c = cfg(2)
        B = solve_spinor_norm(c)
        for k in (0, 1):
            found = False
            for slots in combinations(range(4), k):
                x = q_map(c, slots)
                for im in range(c.size):
                    phi = SpinorVec.basis(c, im)
                    xphi = act(x, phi)
                    for jm in range(c.size):
                        psi = SpinorVec.basis(c, jm)
                        s = b_eval(B, xphi, psi) + b_eval(B, phi, act(x, psi))
                        if s != Fraction(0):
                            found = True
            assert found, f"grade {k} unexpectedly preserves the form"

    @pytest.mark.parametrize("n", list(range(1, 9)))
    def test_invariance_algebra_dimension_count(self, n):
        # sum of C(2n, k) over k = 2, 3 mod 4 equals dim so(2^n) for
        # symmetric B and dim sp(2^n) for antisymmetric B
        total = sum(comb(2 * n, k) for k in range(2 * n + 1) if k % 4 in (2, 3))
        size = 1 << n
        if n % 4 in (0, 1):
            assert total == size * (size - 1) // 2
        else:
            assert total == size * (size + 1) // 2


class TestBilinearity:
    def test_linear_both_slots(self):
        c = cfg(3)
        B = solve_spinor_norm(c)
        r = rng(53)
        for _ in range(30):
            a, b, psi = rand_spinor(c, r), rand_spinor(c, r), rand_spinor(c, r)
            lam = Fraction(3, 2)
            assert b_eval(B, a + b, psi) == b_eval(B, a, psi) + b_eval(B, b, psi)
            assert b_eval(B, psi, a + b) == b_eval(B, psi, a) + b_eval(B, psi, b)
            assert b_eval(B, a.scale(lam), b) == lam * b_eval(B, a, b)
            assert b_eval(B, a, b.scale(lam)) == lam * b_eval(B, a, b)

    def test_config_mismatch(self):
        B = solve_spinor_norm(cfg(2))
        with pytest.raises(ValueError, match="config mismatch"):
            b_eval(B, SpinorVec.vacuum(cfg(3)), SpinorVec.vacuum(cfg(2)))


class TestFormGuards:
    def test_off_antidiagonal_rejected(self):
        c = cfg(2)
        with pytest.raises(ValueError, match="antidiagonal"):
            BilinearForm(c, "plain", {(0, 0): Q.one()})

    def test_zero_entry_rejected(self):
        c = cfg(2)
        with pytest.raises(ValueError, match="nonzero"):
            BilinearForm(c, "plain", {(0, 3): Q.zero()})

    def test_unknown_flavor(self):
        with pytest.raises(ValueError, match="flavor"):
            BilinearForm(cfg(2), "twisted", {})

    def test_immutable(self):
        B = solve_spinor_norm(cfg(2))
        with pytest.raises(AttributeError):
            B.flavor = "graded"
