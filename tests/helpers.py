"""Deterministic random generators and Clifford-route oracles shared by the tests."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from spinor_forge.clifford import CliffordElem, multiply, witt_e, witt_i
from spinor_forge.fock import Config, SpinorVec


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def rand_scalar(config: Config, r: random.Random):
    k = 0
    while k == 0:
        k = r.randint(-6, 6)
    if config.field.characteristic == 0:
        return Fraction(k, r.randint(1, 4))
    return config.field.from_int(k)


def rand_spinor(config: Config, r: random.Random, nterms: int = 3) -> SpinorVec:
    terms = {}
    for _ in range(nterms):
        terms[r.randrange(config.size)] = rand_scalar(config, r)
    return SpinorVec(config, terms)


def rand_monomial(config: Config, r: random.Random) -> tuple[int, int]:
    return r.randrange(config.size), r.randrange(config.size)


def rand_elem(config: Config, r: random.Random, nmono: int = 3) -> CliffordElem:
    terms = {}
    for _ in range(nmono):
        terms[rand_monomial(config, r)] = rand_scalar(config, r)
    return CliffordElem(config, terms)


# ------------------------------------------- grade-2 labels as Clifford elements


@lru_cache(maxsize=None)
def c2_elem(config: Config, label: tuple) -> CliffordElem:
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


def c2_coords(x: CliffordElem) -> dict:
    """Write a grade-2 element in the c2_labels basis.

    Monomial pattern (2,0) is an ee term, (0,2) an ii term, (1,1) half an
    F_ab; the scalar monomial must equal minus the diagonal F_aa total
    (each F_aa = 2 e_a i_a - 1 carries a constant).  Anything else raises
    ValueError.  Read on x's int numerators; each coordinate is turned
    into a field scalar once.
    """
    field = x.config.field
    scalar, den = field.from_fraction, x._den
    coords = {}
    const = 0
    diag = 0
    for (emask, imask), c in x._num.items():
        en, im = emask.bit_count(), imask.bit_count()
        if en == 0 and im == 0:
            const = c
        elif en == 2 and im == 0:
            a = (emask & -emask).bit_length()
            coords[("ee", a, emask.bit_length())] = scalar(c, den)
        elif en == 0 and im == 2:
            a = (imask & -imask).bit_length()
            coords[("ii", a, imask.bit_length())] = scalar(c, den)
        elif en == 1 and im == 1:
            a, b = emask.bit_length(), imask.bit_length()
            coords[("ei", a, b)] = scalar(c, 2 * den)
            if a == b:
                diag += c
        else:
            raise ValueError(f"monomial {(emask, imask)} lies outside the grade-2 span")
    if field.from_int(2 * const + diag):
        raise ValueError("constant term does not match the diagonal part")
    return coords
