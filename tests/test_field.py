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
    scalar_str,
)

from .helpers import parse_scalar


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


# psi_13 = 1287836182261 * 2575672364521, the least strong pseudoprime to
# the 13 prime bases 2..41; 2147483659 is the first prime above 2^31, and
# 25326001 the least strong pseudoprime to the bases 2, 3 and 5.
PSI13 = 3317044064679887385961981


@pytest.mark.parametrize("p", [PSI13, 2147483659, 25326001])
def test_field_bound_rejects(p):
    with pytest.raises(ValueError):
        PrimeField(p)
    with pytest.raises(ValueError):
        make_field(f"fp:{p}")


def test_field_bound_accepts_largest_prime():
    assert make_field("fp:2147483647") == PrimeField((1 << 31) - 1)
    with pytest.raises(ValueError, match="bound 2\\^31 - 1"):
        PrimeField(1 << 31)
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(-7)


def test_is_prime_bounded():
    assert PSI13 == 1287836182261 * 2575672364521
    with pytest.raises(ValueError):
        is_prime(PSI13)
    with pytest.raises(ValueError):
        is_prime(1 << 31)
    assert not is_prime(25326001)


def test_is_prime_matches_sieve():
    size = 5000
    sieve = [False, False] + [True] * (size - 2)
    for d in range(2, size):
        if sieve[d]:
            sieve[d * d :: d] = [False] * len(sieve[d * d :: d])
    assert [m for m in range(size) if is_prime(m)] == [
        m for m in range(size) if sieve[m]
    ]


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


@pytest.mark.parametrize(
    "spec", ["fp:+7", "fp: 7", "fp:7 ", "fp:1_000_003", "fp:", "fp:-7", "fp:\u0667"]
)
def test_make_field_takes_ascii_digits_only(spec):
    # int() reads all of these but "fp:" as an int, and most as the prime 7
    with pytest.raises(ValueError, match="bad field spec"):
        make_field(spec)


@pytest.mark.parametrize(
    "digits", ["9" * 11, "9" * 5000, "1" + "0" * 4400], ids=["11", "5000", "4401"]
)
def test_make_field_bounds_digit_count_before_int(digits):
    # past 4300 digits int() itself raises; the bound is what the user sees
    with pytest.raises(ValueError, match="bound 2\\^31 - 1"):
        make_field("fp:" + digits)


def test_make_field_ignores_leading_zeros():
    assert make_field("fp:" + "0" * 5000 + "7") == PrimeField(7)
    with pytest.raises(ValueError, match="0 is not prime"):
        make_field("fp:000")


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
