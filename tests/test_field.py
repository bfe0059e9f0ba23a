from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinor_forge.field import (
    PrimeField,
    Rationals,
    Residue,
    is_prime,
    make_field,
    parse_scalar,
    scalar_str,
)


def test_fraction_arithmetic():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(1, 2) / Fraction(1, 2) == 1


def test_residue_arithmetic():
    assert Residue(2, 5) * Residue(3, 5) == Residue(1, 5)
    assert Residue(4, 5) + Residue(3, 5) == Residue(2, 5)
    assert Residue(1, 7) / Residue(3, 7) == Residue(5, 7)
    assert -Residue(1, 7) == Residue(6, 7)


def test_residue_canonical_form():
    assert Residue(9, 7) == Residue(2, 7)
    assert Residue(-1, 7).value == 6
    assert Fraction(2, 4) == Fraction(1, 2)


def test_residue_int_mixing():
    assert Residue(3, 7) + 5 == Residue(1, 7)
    assert 2 * Residue(4, 7) == Residue(1, 7)
    assert 1 - Residue(3, 7) == Residue(5, 7)


def test_mixed_moduli_rejected():
    with pytest.raises(ValueError):
        Residue(1, 5) + Residue(1, 7)


def test_fraction_residue_mixing_rejected():
    with pytest.raises(TypeError):
        Fraction(1, 2) + Residue(1, 5)
    with pytest.raises(TypeError):
        Residue(1, 5) * Fraction(1, 2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Residue(1, 5) / Residue(0, 5)
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / Fraction(0)


def test_characteristic_guard():
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(3)
    with pytest.raises(ValueError):
        PrimeField(9)
    assert PrimeField(5).p == 5
    assert PrimeField(2147483647).p == 2147483647


def test_is_prime():
    primes = [2, 3, 5, 7, 11, 101, 7919, 2147483647]
    composites = [0, 1, 4, 9, 91, 561, 7917]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(m) for m in composites)


def test_make_field():
    assert make_field("q") == Rationals()
    f = make_field("fp:7")
    assert isinstance(f, PrimeField) and f.p == 7
    with pytest.raises(ValueError):
        make_field("fp:2")
    with pytest.raises(ValueError):
        make_field("fp:abc")
    with pytest.raises(ValueError):
        make_field("float")


def test_field_constructors():
    q = Rationals()
    assert q.from_fraction(2, 4) == Fraction(1, 2)
    f7 = PrimeField(7)
    assert f7.from_fraction(1, 2) == Residue(4, 7)
    assert f7.from_int(-1) == Residue(6, 7)
    assert not f7.zero() and f7.one() == Residue(1, 7)


def test_serialization_round_trip():
    q = Rationals()
    for s in ("3", "-5/6", "0", "1/2"):
        assert scalar_str(parse_scalar(s, q)) == s
    f7 = PrimeField(7)
    assert scalar_str(f7.from_int(12)) == "5 mod 7"
    assert parse_scalar("5 mod 7", f7) == Residue(5, 7)
    with pytest.raises(ValueError):
        parse_scalar("5 mod 11", f7)


residues = st.integers(min_value=0, max_value=6).map(lambda v: Residue(v, 7))
fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@given(residues, residues, residues)
def test_f7_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == Residue(0, 7)
    if a:
        assert a * (Residue(1, 7) / a) == Residue(1, 7)


@given(fractions, fractions, fractions)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a:
        assert a * (1 / a) == 1


@given(residues)
def test_residue_pow(a):
    assert a**3 == a * a * a
    if a:
        assert a ** (-1) == Residue(1, 7) / a
