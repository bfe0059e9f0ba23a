"""Tests for the exact linear algebra helpers."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinor_forge.field import PrimeField, Rationals
from spinor_forge.linalg import (
    IncrementalRank,
    echelon_rank,
    inverse,
    nullspace,
    rank_mod_p,
)

Q = Rationals()
F7 = PrimeField(7)


def frac_rows(data):
    return [[Fraction(x) for x in row] for row in data]


def f7_rows(data):
    return [[F7.from_int(x) for x in row] for row in data]


class TestEchelonRank:
    def test_identity(self):
        assert echelon_rank(frac_rows([[1, 0], [0, 1]]), Q) == 2

    def test_zero(self):
        assert echelon_rank(frac_rows([[0, 0], [0, 0]]), Q) == 0
        assert echelon_rank([], Q) == 0

    def test_dependent_rows(self):
        rows = frac_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        assert echelon_rank(rows, Q) == 2

    def test_rank_depends_on_field(self):
        # second column is divisible by 7, so mod 7 the rank drops
        data = [[1, 7], [3, 14]]
        assert echelon_rank(frac_rows(data), Q) == 2
        assert echelon_rank(f7_rows(data), F7) == 1

    def test_wide_and_tall(self):
        assert echelon_rank(frac_rows([[1, 2, 3, 4]]), Q) == 1
        assert echelon_rank(frac_rows([[1], [2], [5]]), Q) == 1

    def test_row_length_checked(self):
        with pytest.raises(ValueError, match="ncols"):
            echelon_rank(frac_rows([[1, 2], [3]]), Q)
        with pytest.raises(ValueError, match="ncols"):
            echelon_rank(frac_rows([[1], [2, 3]]), Q)


class TestInverse:
    @pytest.mark.parametrize("field", [Q, F7], ids=["q", "fp7"])
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
    def test_inverse_both_sides(self, field, size):
        r = random.Random(700 + size)
        one, zero = field.one(), field.zero()
        ident = [[one if i == j else zero for j in range(size)] for i in range(size)]
        found = 0
        while found < 4:
            a = [
                [field.from_int(r.randint(-5, 5)) for _ in range(size)]
                for _ in range(size)
            ]
            if echelon_rank(a, field) < size:
                with pytest.raises(ValueError, match="singular"):
                    inverse(a, field)
                continue
            b = inverse(a, field)
            for x, y in ((a, b), (b, a)):
                prod = [
                    [sum((u * v for u, v in zip(row, col)), zero) for col in zip(*y)]
                    for row in x
                ]
                assert prod == ident
            found += 1

    def test_empty(self):
        assert inverse([], Q) == []

    @pytest.mark.parametrize("field", [Q, F7], ids=["q", "fp7"])
    def test_singular_rejected(self, field):
        a = [[field.from_int(x) for x in row] for row in [[1, 2], [2, 4]]]
        with pytest.raises(ValueError, match="singular"):
            inverse(a, field)

    def test_singular_only_mod_p(self):
        # det = 7: invertible over Q, singular over F_7
        assert inverse(frac_rows([[1, 0], [0, 7]]), Q) == frac_rows(
            [[1, 0], [0, Fraction(1, 7)]]
        )
        with pytest.raises(ValueError, match="singular"):
            inverse(f7_rows([[1, 0], [0, 7]]), F7)

    def test_input_untouched(self):
        a = frac_rows([[0, 1], [1, 0]])
        assert inverse(a, Q) == a
        assert a == frac_rows([[0, 1], [1, 0]])


class TestNullspace:
    def test_plane_kernel(self):
        rows = frac_rows([[1, 1, 1]])
        basis = nullspace(rows, 3, Q)
        assert len(basis) == 2
        for vec in basis:
            assert sum(vec, Fraction(0)) == 0

    def test_kernel_orthogonal_to_rows(self):
        r = random.Random(5)
        rows = [[Fraction(r.randint(-4, 4)) for _ in range(5)] for _ in range(3)]
        basis = nullspace(rows, 5, Q)
        assert len(basis) == 5 - echelon_rank(rows, Q)
        for vec in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0

    def test_full_rank_trivial_kernel(self):
        rows = frac_rows([[2, 0], [1, 1]])
        assert nullspace(rows, 2, Q) == []

    def test_row_length_checked(self):
        with pytest.raises(ValueError, match="ncols"):
            nullspace(frac_rows([[1, 2]]), 3, Q)

    def test_prime_field(self):
        rows = f7_rows([[1, 3], [2, 6]])
        basis = nullspace(rows, 2, F7)
        assert len(basis) == 1
        vec = basis[0]
        for row in rows:
            acc = F7.zero()
            for a, b in zip(row, vec):
                acc = acc + a * b
            assert not acc


class TestIncrementalRank:
    def test_matches_dense_rank(self):
        r = random.Random(11)
        rows = [[Fraction(r.randint(-3, 3)) for _ in range(6)] for _ in range(8)]
        acc = IncrementalRank(Q)
        for row in rows:
            acc.add({i: x for i, x in enumerate(row) if x})
        assert acc.rank == echelon_rank(rows, Q)

    def test_add_reports_growth(self):
        acc = IncrementalRank(Q)
        assert acc.add({0: Fraction(2), 2: Fraction(1)})
        assert acc.add({1: Fraction(1)})
        assert not acc.add({0: Fraction(4), 1: Fraction(3), 2: Fraction(2)})
        assert acc.rank == 2

    def test_zero_vector(self):
        acc = IncrementalRank(Q)
        assert not acc.add({})
        assert not acc.add({3: Fraction(0)})
        assert acc.rank == 0

    def test_prime_field(self):
        acc = IncrementalRank(F7)
        assert acc.add({0: F7.from_int(3)})
        assert not acc.add({0: F7.from_int(5)})
        assert acc.add({4: F7.from_int(1), 0: F7.from_int(2)})
        assert acc.rank == 2

    @given(st.lists(st.lists(st.integers(min_value=-5, max_value=5),
                             min_size=4, max_size=4), min_size=1, max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_dense_on_random_input(self, data):
        rows = frac_rows(data)
        acc = IncrementalRank(Q)
        for row in rows:
            acc.add({i: x for i, x in enumerate(row) if x})
        assert acc.rank == echelon_rank(rows, Q)


class TestRankModP:
    def test_small_known(self):
        assert rank_mod_p([[1, 2], [2, 4]], 7) == 1
        assert rank_mod_p([[1, 2], [2, 5]], 7) == 2

    def test_reduction_changes_rank(self):
        # full rank over Q but rank 1 mod 7
        assert rank_mod_p([[1, 7], [3, 14]], 7) == 1

    def test_matches_field_elimination(self):
        r = random.Random(3)
        for p in (7, 11):
            field = PrimeField(p)
            for _ in range(10):
                data = [[r.randint(-20, 20) for _ in range(6)] for _ in range(6)]
                rows = [[field.from_int(x) for x in row] for row in data]
                assert rank_mod_p(data, p) == echelon_rank(rows, field)

    def test_big_entries(self):
        p = (1 << 31) - 1
        big = 10**40
        assert rank_mod_p([[big, 0], [0, big]], p) == 2
        assert rank_mod_p([[p * big, 1], [0, 1]], p) == 1

    def test_modulus_guard(self):
        with pytest.raises(ValueError, match="too large"):
            rank_mod_p([[1]], 1 << 40)

    def test_empty(self):
        assert rank_mod_p([], 7) == 0
