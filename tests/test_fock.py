"""Tests for the fermionic Fock space: basis vectors, ladder operators, CAR."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinor_forge import fock
from spinor_forge.field import PrimeField, Rationals
from spinor_forge.fock import (
    Config,
    SpinorVec,
    annihilate,
    apply_monomial,
    create,
    inversion_parity,
    mask_str,
    parity,
    prefix_parity,
)

from .helpers import (
    epsilon_action,
    is_zero_combination,
    mask_from_indices,
    rand_spinor,
    rng,
    spinor_parity,
)

Q = Rationals()


def cfg(n: int) -> Config:
    return Config(n, Q)


class TestConfig:
    def test_bounds(self):
        Config(1, Q)
        Config(12, Q)
        with pytest.raises(ValueError):
            Config(0, Q)
        with pytest.raises(ValueError):
            Config(13, Q)

    @pytest.mark.parametrize("n", [True, False, 2.0, "3", None])
    def test_n_not_an_int_rejected(self, n):
        # True == 1 would give n = True and size 2; 2.0 failed in 1 << n
        with pytest.raises(ValueError, match="n must be an int"):
            Config(n, Q)

    @pytest.mark.parametrize("field", ["q", 7, Fraction(1)])
    def test_unknown_field_rejected(self, field):
        # "q" failed only later, in the norm solve's from_int
        with pytest.raises(ValueError, match="field must be Rationals or PrimeField"):
            Config(3, field)

    def test_size(self):
        assert cfg(3).size == 8

    def test_immutable(self):
        c = cfg(2)
        with pytest.raises(AttributeError):
            c.n = 5

    def test_eq_hash(self):
        assert cfg(2) == cfg(2)
        assert cfg(2) != cfg(3)
        assert hash(cfg(2)) == hash(cfg(2))
        assert cfg(2) != Config(2, PrimeField(7))

    def test_check_same(self):
        with pytest.raises(ValueError, match="config mismatch"):
            cfg(2).check_same(cfg(3))


class TestMaskStr:
    def test_empty(self):
        assert mask_str(0) == "{}"

    def test_nonempty(self):
        assert mask_str(0b101) == "{1,3}"
        assert mask_str(0b10) == "{2}"

    def test_from_indices(self):
        assert mask_from_indices([3, 1]) == 0b101
        assert mask_from_indices([]) == 0


class TestLadderExamples:
    # Frozen single-step examples; signs fix the ordering convention
    # e_A = e_{a_1} ... e_{a_k} with a_1 < ... < a_k acting on the vacuum.

    def test_create_on_vacuum(self):
        c = cfg(2)
        v = SpinorVec.vacuum(c)
        assert create(1, v) == SpinorVec.basis(c, 0b01)

    def test_create_skips_sign(self):
        c = cfg(2)
        e1 = SpinorVec.basis(c, 0b01)
        # e_2 e_1 v = -e_1 e_2 v
        assert create(2, e1) == SpinorVec.basis(c, 0b11).scale(Fraction(-1))

    def test_create_twice_is_zero(self):
        c = cfg(2)
        e1 = SpinorVec.basis(c, 0b01)
        assert create(1, e1).is_zero()

    def test_annihilate_vacuum(self):
        c = cfg(2)
        assert annihilate(1, SpinorVec.vacuum(c)).is_zero()

    def test_annihilate_single(self):
        c = cfg(2)
        e1 = SpinorVec.basis(c, 0b01)
        assert annihilate(1, e1) == SpinorVec.vacuum(c)

    def test_annihilate_second_slot(self):
        c = cfg(2)
        e12 = SpinorVec.basis(c, 0b11)
        # i_2 e_1 e_2 v = -e_1 i_2 e_2 v = -e_1 v
        assert annihilate(2, e12) == SpinorVec.basis(c, 0b01).scale(Fraction(-1))

    def test_index_range(self):
        c = cfg(2)
        v = SpinorVec.vacuum(c)
        for bad in (0, 3, -1):
            with pytest.raises(ValueError, match="generator index .* out of range"):
                create(bad, v)
            with pytest.raises(ValueError, match="generator index .* out of range"):
                annihilate(bad, v)


class TestEpsilon:
    def test_on_vacuum(self):
        c = cfg(3)
        v = SpinorVec.vacuum(c)
        assert epsilon_action(v) == v

    def test_on_odd(self):
        c = cfg(3)
        e2 = SpinorVec.basis(c, 0b010)
        assert epsilon_action(e2) == e2.scale(Fraction(-1))

    def test_sign_is_parity(self):
        c = cfg(4)
        for mask in range(c.size):
            psi = SpinorVec.basis(c, mask)
            want = psi if parity(mask) == 0 else psi.scale(Fraction(-1))
            assert epsilon_action(psi) == want

    def test_matches_generator_product(self):
        # epsilon acts as the product (1 - 2 e_a i_a) over all a: each factor
        # is create(a) annihilate(a) combined as 1 - 2 N_a on occupation a.
        for n in (1, 2, 3):
            c = cfg(n)
            for mask in range(c.size):
                psi = SpinorVec.basis(c, mask)
                acc = psi
                for a in range(1, n + 1):
                    acc = acc - create(a, annihilate(a, acc)).scale(Fraction(2))
                assert acc == epsilon_action(psi)


class TestCAR:
    # Canonical anticommutation relations, exhaustively on every basis
    # vector: {i_a, i_b} = 0, {e_a, e_b} = 0, {i_a, e_b} = delta_ab.

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_pairs(self, n):
        c = cfg(n)
        for mask in range(c.size):
            psi = SpinorVec.basis(c, mask)
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    anti_ii = annihilate(a, annihilate(b, psi)) + annihilate(
                        b, annihilate(a, psi)
                    )
                    assert anti_ii.is_zero()
                    anti_ee = create(a, create(b, psi)) + create(b, create(a, psi))
                    assert anti_ee.is_zero()
                    anti_ie = annihilate(a, create(b, psi)) + create(
                        b, annihilate(a, psi)
                    )
                    if a == b:
                        assert anti_ie == psi
                    else:
                        assert anti_ie.is_zero()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_ladder_is_one_signed_move(self, n):
        # props' car-relations check composes these moves in place of
        # create/annihilate on basis vectors
        c = cfg(n)
        for mask in range(c.size):
            psi = SpinorVec.basis(c, mask)
            for a in range(1, n + 1):
                bit = 1 << (a - 1)
                for op, word in ((create, (bit, 0)), (annihilate, (0, bit))):
                    hit = apply_monomial(*word, mask)
                    want = SpinorVec.zero(c)
                    if hit is not None:
                        want = SpinorVec.basis(c, hit[1]).scale(Q.from_int(hit[0]))
                    assert op(a, psi) == want, (op.__name__, a, mask)

    def test_car_mod_p(self):
        c = Config(3, PrimeField(7))
        for mask in range(c.size):
            psi = SpinorVec.basis(c, mask)
            for a in range(1, 4):
                anti = annihilate(a, create(a, psi)) + create(a, annihilate(a, psi))
                assert anti == psi


class TestParityTracking:
    def test_ops_flip_parity(self):
        c = cfg(3)
        for mask in range(c.size):
            psi = SpinorVec.basis(c, mask)
            for a in range(1, 4):
                for out in (create(a, psi), annihilate(a, psi)):
                    if not out.is_zero():
                        assert spinor_parity(out) == 1 - spinor_parity(psi)

    def test_mixed_parity_is_none(self):
        c = cfg(2)
        mixed = SpinorVec.basis(c, 0b00) + SpinorVec.basis(c, 0b01)
        assert spinor_parity(mixed) is None

    def test_zero_parity(self):
        assert spinor_parity(SpinorVec.zero(cfg(2))) is None


class TestApplyMonomial:
    def test_identity(self):
        assert apply_monomial(0, 0, 0b101) == (1, 0b101)

    def test_kill(self):
        # e_1 applied to a state already containing e_1
        assert apply_monomial(0b01, 0, 0b01) is None

    def test_sign(self):
        # e_2 onto {1}: one transposition of e_1 past e_2? No: e_2 e_1 v needs
        # reordering to -e_1 e_2 v, sign -1.
        assert apply_monomial(0b10, 0, 0b01) == (-1, 0b11)

    def test_i_then_e(self):
        # e_1 i_1 on e_1 v: i_1 removes (sign +1), e_1 restores.
        assert apply_monomial(0b01, 0b01, 0b01) == (1, 0b01)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_single_moves(self, n):
        # the word one generator at a time, rightmost (highest i) first
        def stepwise(emask, imask, mask):
            sign = 1
            for bits, creating in ((imask, False), (emask, True)):
                for bit in reversed(range(n)):
                    if not (bits >> bit) & 1:
                        continue
                    if bool((mask >> bit) & 1) == creating:
                        return None
                    sign *= (-1) ** bin(mask & ((1 << bit) - 1)).count("1")
                    mask ^= 1 << bit
            return sign, mask

        size = 1 << n
        for emask in range(size):
            for imask in range(size):
                for mask in range(size):
                    want = stepwise(emask, imask, mask)
                    assert apply_monomial(emask, imask, mask) == want


def move_by_inversions(emask: int, imask: int, mask: int):
    """apply_monomial's (sign, mask), its sign from two inversion parities."""
    rest = mask ^ imask
    if imask & ~mask or emask & rest:
        return None
    odd = inversion_parity(imask, mask) ^ inversion_parity(emask, rest)
    return (-1 if odd else 1, rest | emask)


class TestPrefixTable:
    """apply_monomial reads its sign from fock's prefix-parity table, which
    it fills on first use and grows to cover the largest mask it meets."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_inversion_parities(self, monkeypatch, n):
        monkeypatch.setattr(fock, "_PREFIX", [])
        size = 1 << n
        for emask in range(size):
            for imask in range(size):
                for mask in range(size):
                    want = move_by_inversions(emask, imask, mask)
                    assert apply_monomial(emask, imask, mask) == want
        assert fock._PREFIX == [prefix_parity(m) for m in range(size)]

    @pytest.mark.parametrize("large_first", [True, False], ids=["large", "small"])
    def test_grows_to_the_largest_mask(self, monkeypatch, large_first):
        # seeded masks below 2^12: large-first fills the table in one step,
        # small-first grows it many times
        monkeypatch.setattr(fock, "_PREFIX", [])
        r = rng(3901)
        masks = sorted((r.randrange(1 << 12) for _ in range(300)), reverse=large_first)
        for mask in masks + [(1 << 12) - 1, 0]:
            for _ in range(6):
                # a live move (B within M, A outside M - B), then any word
                imask = mask & r.randrange(1 << 12)
                emask = r.randrange(1 << 12) & ~(mask ^ imask)
                words = [(emask, imask), (r.randrange(1 << 12), r.randrange(1 << 12))]
                for e, i in words:
                    assert apply_monomial(e, i, mask) == move_by_inversions(e, i, mask)
        assert fock._PREFIX == [prefix_parity(m) for m in range(1 << 12)]

    def test_import_leaves_table_empty(self):
        code = (
            "import spinor_forge\n"
            "from spinor_forge import fock\n"
            "from spinor_forge.props import check_car_relations\n"
            "assert fock._PREFIX == [], len(fock._PREFIX)\n"
            "assert check_car_relations(7)\n"
            "assert len(fock._PREFIX) == 128, len(fock._PREFIX)\n"
        )
        src = Path(fock.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr


class TestSpinorVecAlgebra:
    def test_zero_dropped(self):
        c = cfg(2)
        s = SpinorVec.basis(c, 1) - SpinorVec.basis(c, 1)
        assert s.is_zero()
        assert list(s.items()) == []

    def test_items_sorted(self):
        c = cfg(2)
        s = SpinorVec.basis(c, 3) + SpinorVec.basis(c, 0)
        assert [m for m, _ in s.items()] == [0, 3]

    def test_get_missing(self):
        c = cfg(2)
        s = SpinorVec.basis(c, 1)
        assert s.get(2) == Q.zero()

    def test_scalar_mul_both_sides(self):
        c = cfg(2)
        s = SpinorVec.basis(c, 1)
        assert Fraction(3) * s == s * Fraction(3) == s.scale(Fraction(3))

    def test_repr(self):
        c = cfg(2)
        s = SpinorVec.basis(c, 0b101 & 3).scale(Fraction(1, 2))
        assert "1/2" in repr(s)

    def test_config_mismatch(self):
        with pytest.raises(ValueError, match="config mismatch"):
            SpinorVec.vacuum(cfg(2)) + SpinorVec.vacuum(cfg(3))

    def test_immutable(self):
        s = SpinorVec.vacuum(cfg(2))
        with pytest.raises(AttributeError):
            s.config = cfg(3)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_operators_are_linear(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    c = cfg(n)
    seed = data.draw(st.integers(min_value=0, max_value=10**6))
    r = rng(seed)
    x = rand_spinor(c, r)
    y = rand_spinor(c, r)
    a = data.draw(st.integers(min_value=1, max_value=n))
    lam = Fraction(data.draw(st.integers(min_value=-5, max_value=5)), 2)
    for op in (create, annihilate):
        assert op(a, x + y) == op(a, x) + op(a, y)
        assert op(a, x.scale(lam)) == op(a, x).scale(lam)


class TestZeroCombination:
    """is_zero_combination against the value route: scale, add, compare."""

    @pytest.mark.parametrize("field", [Q, PrimeField(7)], ids=["q", "fp7"])
    def test_matches_value_route(self, field):
        c = Config(4, field)
        r = rng(77)
        for _ in range(60):
            xs = [rand_spinor(c, r, nterms=r.randint(0, 4)) for _ in range(3)]
            ks = [r.randint(-3, 3) for _ in xs]
            total = SpinorVec.zero(c)
            for k, x in zip(ks, xs):
                total = total + x.scale(field.from_int(k))
            assert is_zero_combination(list(zip(ks, xs))) == total.is_zero()
            # the combination minus its own value is always zero
            terms = list(zip(ks, xs)) + [(-1, total)]
            assert is_zero_combination(terms)

    def test_cross_multiplies_denominators(self):
        c = cfg(2)
        half = SpinorVec(c, {1: Fraction(1, 2), 2: Fraction(1, 3)})
        whole = SpinorVec(c, {1: Fraction(3), 2: Fraction(2)})
        assert half._den != whole._den
        assert is_zero_combination([(6, half), (-1, whole)])
        assert not is_zero_combination([(5, half), (-1, whole)])

    def test_config_mismatch(self):
        with pytest.raises(ValueError, match="config mismatch"):
            is_zero_combination(
                [(1, SpinorVec.vacuum(cfg(2))), (1, SpinorVec.vacuum(cfg(3)))]
            )
