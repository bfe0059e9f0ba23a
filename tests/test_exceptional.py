"""Tests for the exceptional algebra constructions and their verifiers."""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, cycle
from math import comb, lcm
from pathlib import Path

import numpy as np
import pytest

import spinor_forge.builders as builders_mod
import spinor_forge.exceptional as exceptional_mod
import spinor_forge.pairings as pairings_mod
import spinor_forge.props as props_mod
from spinor_forge.builders import (
    _c2_bracket,
    _c2_move,
    block_rows,
    build_e6,
    build_e7,
    build_e8,
    c2_labels,
    solve_e7_constants,
)
from spinor_forge.clifford import CliffordElem, act, commutator, grading_element
from spinor_forge.exceptional import (
    JacobiReport,
    LieAlgebra,
    killing_form,
    label_str,
    root_decomposition,
    run_checks,
    spanning_check,
    to_json,
    verify_antisymmetry,
    verify_jacobi,
    with_flipped_sign,
)
from spinor_forge.field import PrimeField, Rationals, make_field
from spinor_forge.fock import Config, SpinorVec, parity
from spinor_forge.norms import BilinearForm, b_eval, solve_spinor_norm
from spinor_forge.pairings import grade2_pairing

from .helpers import (
    bracket_1x1,
    c2_coords,
    c2_elem,
    chassis_with_dispatch,
    dispatch_row,
    dense_rank,
    e7_constants_by_nullspace,
    e7_seeded_triples,
    flip_f12_parity,
    grade2_pairing_projected,
    killing_inverse_roots,
    label_rule,
    rand_spinor,
    rng,
    sweep_e6_coefficients,
)


@pytest.fixture(scope="module")
def e6():
    return build_e6()


@pytest.fixture(scope="module")
def e7():
    return build_e7()


@pytest.fixture(scope="module")
def e8():
    L = build_e8()
    L.materialize()
    return L


def covered_triples(n, pairs):
    """The distinct Jacobi triples {i, j, k} that the pairs (i, j) cover."""
    return {
        tuple(sorted((i, j, k))) for i, j in pairs for k in range(n) if k not in (i, j)
    }


def zero_rule(n):
    """The row source of the zero bracket on n basis vectors."""
    return lambda: block_rows(range(n), range(n), lambda i, j: ())


def abelian(n):
    """An n-dimensional abelian algebra: every bracket is zero."""
    basis = [("x", a) for a in range(n)]
    return LieAlgebra(f"abelian{n}", Config(1), basis, zero_rule(n), 1)


@pytest.fixture
def engine_builds(monkeypatch):
    """Names of the algebras whose Jacobi/Killing engine gets built."""
    builds = []
    init = exceptional_mod._AdjointProducts.__init__

    def counted(self, L):
        builds.append(L.name)
        init(self, L)

    monkeypatch.setattr(exceptional_mod._AdjointProducts, "__init__", counted)
    return builds


def pairs_touching(L, i, j):
    out = set()
    for x in range(L.dim):
        if x != i:
            out.add((min(i, x), max(i, x)))
        if x != j:
            out.add((min(j, x), max(j, x)))
    return sorted(out)


class TestLabels:
    def test_c2_label_count(self):
        for n in (1, 2, 5, 6, 8):
            assert len(c2_labels(n)) == n * (2 * n - 1)

    def test_c2_labels_distinct(self):
        labs = c2_labels(8)
        assert len(set(labs)) == len(labs)

    def test_label_strings(self):
        assert label_str(("ee", 1, 2)) == "e1e2"
        assert label_str(("ii", 3, 5)) == "i3i5"
        assert label_str(("ei", 2, 2)) == "ei(2,2)"
        assert label_str(("sl2", "h")) == "sl2(h)"
        assert label_str(("eps",)) == "eps"
        assert label_str(("s", 0b101)) == "S{1,3}"
        assert label_str(("s2", 0b011, 0)) == "S{1,2}x1"
        assert label_str(("s2", 0, 1)) == "S{}x2"

    def test_label_str_rejects_unknown(self):
        with pytest.raises(ValueError):
            label_str(("nope", 1))


class TestC2Coords:
    def test_roundtrip_on_basis(self):
        config = Config(4)
        one = config.field.one()
        for lab in c2_labels(4):
            assert c2_coords(c2_elem(config, lab)) == {lab: one}

    def test_commutators_decompose(self):
        config = Config(3)
        labs = c2_labels(3)
        r = rng(7)
        for _ in range(40):
            la, lb = r.choice(labs), r.choice(labs)
            x = commutator(c2_elem(config, la), c2_elem(config, lb))
            coords = c2_coords(x)
            rebuilt = sum(
                (c2_elem(config, lab).scale(c) for lab, c in coords.items()),
                start=x - x,
            )
            assert rebuilt == x

    def test_rejects_higher_grade(self):
        config = Config(2)
        bad = CliffordElem.monomial(config, 0b11, 0b01)
        with pytest.raises(ValueError, match="outside the grade-2 span"):
            c2_coords(bad)

    def test_rejects_stray_constant(self):
        config = Config(2)
        with pytest.raises(ValueError, match="constant term"):
            c2_coords(CliffordElem.one(config))


FIELDS = [Rationals(), PrimeField(7)]


class TestC2ClosedForms:
    """The label tables against the generic Clifford route they replace."""

    @pytest.mark.parametrize("n", list(range(1, 9)))
    @pytest.mark.parametrize("field", FIELDS, ids=["q", "fp7"])
    def test_bracket_matches_commutator(self, n, field):
        config = Config(n, field)
        labs = c2_labels(n)
        for la in labs:
            x = c2_elem(config, la)
            for lb in labs:
                want = c2_coords(commutator(x, c2_elem(config, lb)))
                got = _c2_bracket(la, lb, 1)  # int numerators over 2
                assert {lab: field.from_fraction(c, 2) for lab, c in got.items()} == {
                    lab: c for lab, c in want.items() if c
                }, (la, lb)

    @pytest.mark.parametrize("n", list(range(1, 9)))
    @pytest.mark.parametrize("field", FIELDS, ids=["q", "fp7"])
    def test_move_matches_act(self, n, field):
        config = Config(n, field)
        for lab in c2_labels(n):
            x = c2_elem(config, lab)
            for mask in range(config.size):
                want = act(x, SpinorVec.basis(config, mask)).terms
                hit = _c2_move(lab, mask)
                got = {} if hit is None else {hit[0]: field.from_int(hit[1])}
                assert got == want, (lab, mask)

    def test_move_rejects_other_labels(self):
        with pytest.raises(ValueError, match="grade-2"):
            _c2_move(("s2", 3, 0), 0)

    @pytest.mark.parametrize("n", list(range(1, 9)))
    @pytest.mark.parametrize("field", FIELDS, ids=["q", "fp7"])
    def test_grading_element_closed_form(self, n, field):
        # eps e_M.v = (-1)^|M| e_M.v, and eps centralizes every grade-2
        # label: the closed form and the parity check e6 relies on
        config = Config(n, field)
        eps = grading_element(config)
        for mask in range(config.size):
            sign = field.from_int(-1 if parity(mask) else 1)
            assert act(eps, SpinorVec.basis(config, mask)).terms == {mask: sign}
        for lab in c2_labels(n):
            assert commutator(eps, c2_elem(config, lab)).is_zero(), lab
            for mask in range(config.size):
                hit = _c2_move(lab, mask)
                assert hit is None or parity(hit[0]) == parity(mask)


class TestLieAlgebraCore:
    def test_bracket_orders(self, e6):
        fwd = e6.bracket(0, 50)
        rev = e6.bracket(50, 0)
        assert fwd == tuple((k, -c) for k, c in rev)
        assert e6.bracket(5, 5) == ()

    @pytest.mark.parametrize("i", [500, 78, -1])
    def test_bracket_rejects_bad_diagonal_index(self, e6, i):
        with pytest.raises(ValueError, match="bad index pair"):
            e6.bracket(i, i)

    @pytest.mark.parametrize(
        "pair",
        [(-1, 5), (5, -1), (100, 200), (78, 3), (1.5, 3), (2, 2.5), (True, 50),
         (50, False), (0, "a"), (None, 3)],
    )
    def test_bracket_rejects_bad_pair_before_evaluating(self, e6, pair):
        L, calls = wrapped_e6(e6)
        with pytest.raises(ValueError, match=re.escape(f"bad index pair {pair}")):
            L.bracket(*pair)
        assert not calls and not L._table
        # on a table hit too: a bool must not read the entry of 0 or 1
        L.materialize()
        calls.clear()
        for read in (L.numerators, L.bracket):
            with pytest.raises(ValueError, match=re.escape(f"bad index pair {pair}")):
                read(*pair)
        assert not calls

    def test_table_stores_lower_triangle(self, e6):
        e6.bracket(60, 2)
        assert (2, 60) in e6._table and (60, 2) not in e6._table

    def test_duplicate_labels_rejected(self):
        config = Config(1)
        with pytest.raises(ValueError):
            LieAlgebra("dup", config, [("s", 0), ("s", 0)], zero_rule(2), 1)

    def test_repr(self, e6):
        assert "e6" in repr(e6) and "78" in repr(e6)

    def test_one_constructor_contract(self):
        params = list(inspect.signature(LieAlgebra).parameters)
        assert params == ["name", "config", "basis", "fn", "den"]
        assert not hasattr(LieAlgebra, "raw_bracket")

    @pytest.mark.parametrize(
        "spec, den", [("q", 0), ("q", -2), ("q", 2.0), ("q", True), ("fp:7", 7)]
    )
    def test_bad_den_rejected(self, spec, den):
        config = Config(1, make_field(spec))
        with pytest.raises(ValueError, match="den must be"):
            LieAlgebra("bad-den", config, [("x", 0), ("x", 1)], zero_rule(2), den)

    @pytest.mark.parametrize("spec", ["q", "fp:7"])
    def test_den_prime_to_p_accepted(self, spec):
        L = LieAlgebra("den", Config(1, make_field(spec)), [("x", 0)], zero_rule(1), 6)
        assert L.den == (1 if spec != "q" else 6)

    @pytest.mark.parametrize("read", ["antisymmetry", "materialize", "numerators"])
    def test_label_function_as_rule_fails_loudly(self, read):
        # a bracket on label pairs cannot be called as a row source; that
        # must not leave an empty table that passes the checks
        basis = [("x", a) for a in range(3)]
        L = LieAlgebra("labels", Config(1), basis, lambda la, lb: {}, 1)
        with pytest.raises(TypeError):
            if read == "antisymmetry":
                verify_antisymmetry(L)
            elif read == "materialize":
                L.materialize()
            else:
                L.numerators(2, 0)
        assert L.evaluated == 0 and not L._table and L._verdict is None


class TestBuildE8:
    def test_dimension(self, e8):
        assert e8.dim == 248

    def test_basis_partition(self, e8):
        assert len(e8.degree_zero_indices()) == 120
        spin = e8.spinor_indices()
        assert len(spin) == 128
        assert all(parity(e8.basis[i][1]) == 0 for i in spin)

    def test_minus_half_partition(self):
        L = build_e8(half="-")
        spin = L.spinor_indices()
        assert len(spin) == 128
        assert all(parity(L.basis[i][1]) == 1 for i in spin)

    def test_bad_half_rejected(self):
        with pytest.raises(ValueError):
            build_e8(half="x")

    @pytest.mark.parametrize("half", ["x", "", None], ids=["x", "empty", "none"])
    def test_half_checked_before_the_norm_solve(self, half, monkeypatch):
        def refuse(config):
            raise AssertionError("the norm was solved before the check")

        monkeypatch.setattr(builders_mod, "solve_spinor_norm", refuse)
        with pytest.raises(ValueError, match="half must be"):
            build_e8(half=half)

    def test_vacuum_bracket_disjoint_small_overlap_vanishes(self, e8):
        # I = {}, J = {1,2}: complements share six indices, so the grade-2
        # pairing of the basis pair is zero
        i = e8.index[("s", 0)]
        j = e8.index[("s", 0b11)]
        assert e8.bracket(i, j) == ()

    def test_complementary_pair_is_diagonal(self, e8):
        full = 255
        i = e8.index[("s", 0b11)]
        j = e8.index[("s", full ^ 0b11)]
        terms = e8.bracket(i, j)
        assert terms
        labs = {e8.basis[k] for k, _ in terms}
        assert all(lab[0] == "ei" and lab[1] == lab[2] for lab in labs)

    def test_spinor_bracket_matches_pairing(self, e8):
        form = solve_spinor_norm(e8.config)
        r = rng(11)
        spin = e8.spinor_indices()
        for _ in range(25):
            i, j = sorted(r.sample(spin, 2))
            ma, mb = e8.basis[i][1], e8.basis[j][1]
            elem = grade2_pairing(
                form,
                SpinorVec.basis(e8.config, ma),
                SpinorVec.basis(e8.config, mb),
            )
            want = {
                e8.index[lab]: c for lab, c in c2_coords(elem).items() if c
            }
            assert dict(e8.bracket(i, j)) == want

    def test_equivariance_through_index_table(self, e8):
        r = rng(13)
        spin = e8.spinor_indices()
        for _ in range(40):
            a = r.randrange(120)
            s = r.choice(spin)
            out = act(
                c2_elem(e8.config, e8.basis[a]),
                SpinorVec.basis(e8.config, e8.basis[s][1]),
            )
            want = {e8.index[("s", m)]: c for m, c in out.terms.items()}
            assert dict(e8.bracket(a, s)) == want

    def test_antisymmetry_sampled(self):
        # a fresh build, so the sweep evaluates every ordered pair
        L = build_e8()
        assert verify_antisymmetry(L) == []
        assert L.evaluated == 248 * 248


def e7_one_one(field=None, form=None):
    """e7's chassis at (c1, c2) = (1, 1), the one its constant solve reads."""
    config, form = builders_mod._builder_setup(6, field, form)
    return builders_mod._e7_chassis(config, form, 1, 1)


def int_jacobi_sum(L, x, y, z):
    """[[x, y], z] + [[y, z], x] + [[z, x], y], whole, as int numerators
    over L.den^2 read through L.numerators."""
    out = {}
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        for k, s in L.numerators(a, b):
            for m, t in L.numerators(k, c):
                out[m] = out.get(m, 0) + s * t
    return out


class TestBuildE7:
    def test_dimension(self, e7):
        assert e7.dim == 133
        assert len(e7.degree_zero_indices()) == 69
        assert len(e7.spinor_indices()) == 64

    def test_constants_solved_not_assumed(self):
        one = Fraction(1)
        assert solve_e7_constants() == (one, one)

    def test_constants_over_f7(self):
        field = PrimeField(7)
        c1, c2 = builders_mod._solve_e7_constants(e7_one_one(field))
        assert c1 == field.one() and c2 == field.one()

    @pytest.mark.parametrize(
        "spec", ["q", "fp:5", "fp:7", "fp:11", "fp:2147483647"]
    )
    def test_constants_match_the_nullspace_route(self, spec):
        # the int rows and 2 x 2 minors give what the field-scalar rows
        # and a dense kernel give
        field = make_field(spec)
        got = builders_mod._solve_e7_constants(e7_one_one(field))
        assert got == e7_constants_by_nullspace(field)

    @pytest.mark.parametrize("spec", ["q", "fp:7"])
    def test_build_makes_one_chassis(self, monkeypatch, spec):
        # the constant solve sweeps the (1, 1) chassis, which is the algebra
        names = []
        real = builders_mod._graded_algebra

        def spy(*args, **kwargs):
            names.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(builders_mod, "_graded_algebra", spy)
        L = build_e7(field=make_field(spec))
        assert L.dim == 133 and names == ["e7"]
        assert L.evaluated == L.dim**2 and len(L._table) == comb(L.dim, 2)

    @pytest.mark.parametrize("spec", ["q", "fp:7"])
    def test_other_constants_get_their_own_chassis(self, monkeypatch, spec):
        # a solve giving a pair other than (1, 1) leaves the swept chassis
        # and builds the algebra at that pair
        field = make_field(spec)
        pair = (2, 3)
        solved_on = []

        def solve(L):
            solved_on.append(L.materialize())
            return pair

        monkeypatch.setattr(builders_mod, "_solve_e7_constants", solve)
        L = build_e7(field=field)
        config, form = builders_mod._builder_setup(6, field, None)
        want = builders_mod._e7_chassis(config, form, *pair).materialize()
        assert L is not solved_on[0] and L.evaluated == 0
        assert L.materialize()._table == want._table
        assert L._table != solved_on[0]._table

    @pytest.mark.parametrize("spec", ["q", "fp:7"])
    def test_split_sums_are_the_two_charts(self, spec):
        # the so(12) and sl2 parts of the (1, 1) chart's Jacobi sums are the
        # whole sums of the (1, 0) and (0, 1) charts on the seeded triples
        config, form = builders_mod._builder_setup(6, make_field(spec), None)
        one = builders_mod._e7_chassis(config, form, 1, 1)
        charts = [builders_mod._e7_chassis(config, form, *c) for c in ((1, 0), (0, 1))]
        nonzero = 0
        for triple in e7_seeded_triples(one):
            parts = builders_mod._jacobi_sum(one, *triple)
            assert parts == tuple(int_jacobi_sum(L, *triple) for L in charts)
            nonzero += any(any(part.values()) for part in parts)
        assert nonzero

    @pytest.mark.parametrize(
        "sums, message",
        [
            ([({}, {})], "constrain no bracket constants"),
            # the so(12) and sl2 parts of each triple: rows (1, 0) and (0, 1)
            ([({0: 1}, {1: 1})], "no bracket"),
        ],
        ids=["rank0", "rank2"],
    )
    def test_constant_solve_rejects_bad_rank(self, monkeypatch, sums, message):
        it = cycle(sums)
        monkeypatch.setattr(builders_mod, "_jacobi_sum", lambda L, x, y, z: next(it))
        with pytest.raises(RuntimeError, match=message):
            solve_e7_constants()

    def test_constants_solved_on_the_stored_bracket(self, monkeypatch):
        # a wrong sigma(x1, x2) in the stored bracket leaves no constants
        # that close it
        monkeypatch.setitem(builders_mod._SIGMA, (0, 1), (("h", 1),))
        monkeypatch.setitem(builders_mod._SIGMA, (1, 0), (("h", 1),))
        with pytest.raises(RuntimeError, match="no bracket constants satisfy"):
            solve_e7_constants()

    def test_sl2_block(self, e7):
        h, e, f = (e7.index[("sl2", t)] for t in ("h", "e", "f"))
        assert dict(e7.bracket(h, e)) == {e: Fraction(2)}
        assert dict(e7.bracket(h, f)) == {f: Fraction(-2)}
        assert dict(e7.bracket(e, f)) == {h: Fraction(1)}

    def test_sl2_commutes_with_grade2(self, e7):
        h = e7.index[("sl2", "h")]
        for a in (0, 17, 40, 65):
            assert e7.bracket(a, h) == ()

    def test_sl2_action_on_tensor_slots(self, e7):
        h = e7.index[("sl2", "h")]
        e = e7.index[("sl2", "e")]
        f = e7.index[("sl2", "f")]
        mask = 0b11
        u1 = e7.index[("s2", mask, 0)]
        u2 = e7.index[("s2", mask, 1)]
        assert dict(e7.bracket(h, u1)) == {u1: Fraction(1)}
        assert dict(e7.bracket(h, u2)) == {u2: Fraction(-1)}
        assert e7.bracket(e, u1) == ()
        assert dict(e7.bracket(e, u2)) == {u1: Fraction(1)}
        assert dict(e7.bracket(f, u1)) == {u2: Fraction(1)}
        assert e7.bracket(f, u2) == ()

    def test_ad_h_eigenvalue_layout(self, e7):
        h = e7.index[("sl2", "h")]
        counts = {}
        for x in range(e7.dim):
            terms = e7.bracket(h, x)
            if not terms:
                val = 0
            else:
                assert len(terms) == 1 and terms[0][0] == x
                val = int(terms[0][1])
            counts[val] = counts.get(val, 0) + 1
        assert set(counts) == {0, 1, -1, 2, -2}
        assert counts[2] == counts[-2] == 1
        assert counts[1] == counts[-1] == 32
        assert counts[0] + counts[2] + counts[-2] == 69

    def test_spinor_identity_random(self, e7):
        # pairing(p1,p2).p3 - pairing(p1,p3).p2
        #   = -B(p1,p2) p3 + B(p1,p3) p2 + 2 B(p2,p3) p1 on the even module
        config = e7.config
        form = solve_spinor_norm(config)
        r = rng(23)
        evens = [m for m in range(64) if parity(m) == 0]
        for _ in range(60):
            p1, p2, p3 = (
                SpinorVec.basis(config, r.choice(evens)) for _ in range(3)
            )
            lhs = act(grade2_pairing(form, p1, p2), p3) - act(
                grade2_pairing(form, p1, p3), p2
            )
            rhs = (
                p3.scale(-b_eval(form, p1, p2))
                + p2.scale(b_eval(form, p1, p3))
                + p1.scale(b_eval(form, p2, p3) * config.field.from_int(2))
            )
            assert lhs == rhs

    def test_antisymmetry_sampled(self):
        # a fresh build, so the sweep evaluates every ordered pair
        L = build_e7()
        assert verify_antisymmetry(L) == []
        assert L.evaluated == 133 * 133


class TestBuildE6:
    def test_dimension(self, e6):
        assert e6.dim == 78
        assert len(e6.degree_zero_indices()) == 46
        assert len(e6.spinor_indices()) == 32

    def test_grading_element_eigenvalues(self, e6):
        eps = e6.index[("eps",)]
        counts = {0: 0, 1: 0, -1: 0}
        for x in range(e6.dim):
            terms = e6.bracket(eps, x)
            if not terms:
                counts[0] += 1
            else:
                assert len(terms) == 1 and terms[0][0] == x
                counts[int(terms[0][1])] += 1
        assert counts == {0: 46, 1: 16, -1: 16}

    def test_spinor_bracket_components(self, e6):
        form = solve_spinor_norm(e6.config)
        two = Fraction(2)
        i = e6.index[("s", 0)]
        j = e6.index[("s", 0b11111)]
        terms = dict(e6.bracket(i, j))
        eps = e6.index[("eps",)]
        assert eps in terms
        # the grading coefficient is 96/32 = 3 times the twisted norm entry
        from spinor_forge.clifford import grading_element

        config = e6.config
        top = b_eval(
            form,
            SpinorVec.basis(config, 0),
            act(grading_element(config), SpinorVec.basis(config, 0b11111)),
        )
        assert terms[eps] == Fraction(3) * top
        pair = grade2_pairing(
            form, SpinorVec.basis(config, 0), SpinorVec.basis(config, 0b11111)
        )
        for lab, c in c2_coords(pair).items():
            assert terms[e6.index[lab]] == two * c

    def test_full_jacobi(self, e6):
        rep = verify_jacobi(e6)
        assert rep
        assert rep.pairs_checked == 78 * 77 // 2
        assert rep.triples_covered == 76076

    def test_coefficient_sweep_line(self):
        assert sweep_e6_coefficients([(1, 48), (1, 96)]) == [(1, 48)]

    def test_grading_element_action_matches_act(self, e6):
        config = e6.config
        eps = e6.index[("eps",)]
        for mask in range(config.size):
            out = act(grading_element(config), SpinorVec.basis(config, mask))
            want = {e6.index[("s", m)]: c for m, c in out.terms.items()}
            assert dict(e6.bracket(eps, e6.index[("s", mask)])) == want

    @pytest.mark.parametrize(
        "coeffs, field",
        [(("2", "96"), None), ((2, 96, 3), None), ((1.5, 72), PrimeField(7))],
        ids=["strings", "three", "float-fp7"],
    )
    def test_spinor_coeffs_must_be_two_ints(self, coeffs, field, monkeypatch):
        def refuse(config):
            raise AssertionError("the norm was solved before the check")

        monkeypatch.setattr(builders_mod, "solve_spinor_norm", refuse)
        with pytest.raises(ValueError, match="spinor_coeffs must be two ints"):
            build_e6(field=field, spinor_coeffs=coeffs)

    def test_parity_change_is_a_jacobi_violation(self, monkeypatch):
        # the chassis sets [eps, F_12] = 0; a move of F_12 that changes
        # parity breaks that, and the independent battery must see it
        flip_f12_parity(monkeypatch)
        L = build_e6()
        rep = verify_jacobi(L)
        assert (L.index[("ei", 1, 2)], L.index[("eps",)]) in rep.violations

    def test_antisymmetry_moves_once_per_unordered_c2_module_pair(self, monkeypatch):
        # one move gives [x, m] and [m, x] = -[x, m]
        calls = []
        real = builders_mod._c2_move

        def counted(label, mask):
            calls.append(label)
            return real(label, mask)

        monkeypatch.setattr(builders_mod, "_c2_move", counted)
        assert verify_antisymmetry(build_e6()) == []
        assert len(calls) == 45 * 32


@pytest.mark.parametrize("spec", ["q", "fp:7"])
@pytest.mark.parametrize("build", [build_e6, build_e7], ids=["e6", "e7"])
def test_chassis_extras_centralize_so2n(build, spec):
    L = build(field=make_field(spec))
    p = L.config.field.characteristic
    c2 = c2_labels(L.config.n)
    extras = [L.basis[i] for i in L.degree_zero_indices()[len(c2):]]
    assert extras == ([("eps",)] if L.name == "e6" else [("sl2", t) for t in "hef"])
    for x in extras:
        for y in c2:
            assert bracket_1x1(L, x, y) == {} == bracket_1x1(L, y, x), (x, y)
    # fn against [h, e] = 2e, [h, f] = -2f, [e, f] = h and their reverses
    want = {("h", "e"): ("e", 2), ("h", "f"): ("f", -2), ("e", "f"): ("h", 1)}
    want.update({(b, a): (t, -k) for (a, b), (t, k) in list(want.items())})
    for x in extras:
        for y in extras:
            t, k = want.get((x[-1], y[-1]), (None, 0))
            num = k * L.den % p if p else k * L.den
            assert bracket_1x1(L, x, y) == ({("sl2", t): num} if k else {}), (x, y)
    if L.name == "e7":
        F, ix = L.config.field, L.index
        h, e, f = (ix[("sl2", t)] for t in "hef")
        assert L.bracket(h, e) == ((e, F.from_int(2)),)
        assert L.bracket(h, f) == ((f, F.from_int(-2)),)
        assert L.bracket(e, f) == ((h, F.from_int(1)),)


class TestMutations:
    def test_flip_detected_by_touching_pairs(self, e8):
        nonzero = e8.nonzero_brackets()
        (i, j), terms = nonzero[0]
        clone = with_flipped_sign(e8, i, j, terms[0][0])
        rep = verify_jacobi(clone, pairs=pairs_touching(e8, i, j))
        assert not rep
        assert rep.violations

    def test_original_untouched(self, e8):
        nonzero = e8.nonzero_brackets()
        (i, j), terms = nonzero[3]
        before = e8.bracket(i, j)
        with_flipped_sign(e8, i, j, terms[0][0])
        assert e8.bracket(i, j) == before

    def test_flip_errors(self, e8):
        with pytest.raises(ValueError):
            with_flipped_sign(e8, 4, 4, 0)
        nonzero = e8.nonzero_brackets()
        (i, j), terms = nonzero[0]
        missing = next(k for k in range(e8.dim) if k not in dict(terms))
        with pytest.raises(ValueError):
            with_flipped_sign(e8, i, j, missing)

    def test_flip_order_normalized(self, e8):
        nonzero = e8.nonzero_brackets()
        (i, j), terms = nonzero[1]
        k = terms[0][0]
        a = with_flipped_sign(e8, i, j, k)
        b = with_flipped_sign(e8, j, i, k)
        assert a.bracket(i, j) == b.bracket(i, j)


class TestVerifyJacobi:
    def test_full_report_counts(self, e7):
        rep = verify_jacobi(e7)
        assert rep
        assert rep.pairs_checked == 133 * 132 // 2
        assert rep.triples_covered == 133 * 132 * 131 // 6
        assert rep.field == "q"

    def test_pair_subset_counts(self, e6):
        rep = verify_jacobi(e6, pairs=[(0, 1), (1, 0), (0, 1)])
        assert rep.pairs_checked == 1
        assert rep.triples_covered == 76

    def test_subset_triples_match_set_oracle(self, e7, e8):
        r = rng(83)
        for _ in range(200):
            n = r.randrange(3, 31)
            pairs = [tuple(r.sample(range(n), 2)) for _ in range(r.randrange(n * n))]
            if not pairs:
                with pytest.raises(ValueError, match="no index pairs"):
                    verify_jacobi(abelian(n), pairs=pairs)
                continue
            rep = verify_jacobi(abelian(n), pairs=pairs)
            assert rep and rep.triples_covered == len(covered_triples(n, pairs))
        # the pairs touching b_i or b_j cover C(dim, 3) - C(dim - 2, 3) triples
        for L, i, j, want in ((e7, 3, 90, 17161), (e8, 0, 247, 60516)):
            pairs = pairs_touching(L, i, j)
            rep = verify_jacobi(L, pairs=pairs)
            assert rep.triples_covered == len(covered_triples(L.dim, pairs)) == want

    def test_bad_pairs_rejected(self, e6):
        with pytest.raises(ValueError):
            verify_jacobi(e6, pairs=[(3, 3)])
        with pytest.raises(ValueError):
            verify_jacobi(e6, pairs=[(0, 100)])

    def test_exact_fallback_large_prime(self):
        field = PrimeField((1 << 31) - 1)
        L = build_e6(field=field)
        spin = L.spinor_indices()
        pairs = [(a, b) for i, a in enumerate(spin) for b in spin[i + 1 :]]
        rep = verify_jacobi(L, pairs=pairs)
        assert rep and rep.field == f"fp:{(1 << 31) - 1}"

    def test_exact_fallback_detects_flip(self):
        field = PrimeField((1 << 31) - 1)
        L = build_e6(field=field)
        L.materialize()
        (i, j), terms = L.nonzero_brackets()[0]
        clone = with_flipped_sign(L, i, j, terms[0][0])
        rep = verify_jacobi(clone, pairs=pairs_touching(L, i, j))
        assert not rep

    def test_f7_builds_pass(self):
        for build in (build_e6, build_e7):
            rep = verify_jacobi(build(field=PrimeField(7)))
            assert rep and rep.field == "fp:7"

    def test_report_dict_shape(self, e6):
        d = verify_jacobi(e6, pairs=[(0, 1)]).to_dict()
        assert set(d) == {
            "algebra",
            "field",
            "dim",
            "pairs_checked",
            "triples_covered",
            "violations",
            "ok",
            "seconds",
            "batches",
            "engine_seconds",
        }
        assert d["ok"] is True and d["violations"] == []


def oracle_violations(L, pairs):
    """Pairs (i, j) with a k where the Jacobiator of (b_i, b_j, b_k) is
    nonzero, from L.bracket alone (no ad matrices, no integer lifts)."""
    zero = L.config.field.zero()
    # each bracket read once per call; the tuples it returns are immutable
    bracket = cache(L.bracket)

    def bracket_with(x, k):
        # [x, b_k] for x = {m: coefficient}
        out = {}
        for m, c in x.items():
            for t, d in bracket(m, k):
                out[t] = out.get(t, zero) + c * d
        return out

    bad = []
    for i, j in pairs:
        for k in range(L.dim):
            # [[b_i, b_j], b_k] - [b_i, [b_j, b_k]] + [b_j, [b_i, b_k]]
            resid = bracket_with(dict(bracket(i, j)), k)
            for x, y, sign in ((j, i, 1), (i, j, -1)):
                for t, c in bracket_with(dict(bracket(x, k)), y).items():
                    resid[t] = resid.get(t, zero) + sign * c
            if any(resid.values()):
                bad.append((i, j))
                break
    return bad


def seeded_flips(L, seed, count):
    stored = L.materialize().nonzero_brackets()
    r = rng(seed)
    out = []
    for _ in range(count):
        (i, j), terms = r.choice(stored)
        k, _ = r.choice(terms)
        out.append((i, j, with_flipped_sign(L, i, j, k)))
    return out


class TestJacobiOracle:
    """verify_jacobi's violation sets against a Jacobiator built from
    L.bracket alone."""

    @pytest.mark.parametrize("p", [None, 7, (1 << 31) - 1])
    def test_e6_flips_match_oracle(self, p):
        L = build_e6(field=PrimeField(p) if p else None)
        for i, j, mutant in seeded_flips(L, 60 + (p or 0) % 97, 3):
            pairs = pairs_touching(L, i, j)
            rep = verify_jacobi(mutant, pairs=pairs)
            assert rep.violations
            assert list(rep.violations) == oracle_violations(mutant, pairs)

    @pytest.mark.parametrize("batch", [None, 97])
    def test_full_sweep_across_batches(self, monkeypatch, batch):
        # e7 has 133 left indices, so the full sweep spans several batches.  A
        # flip at (i, j) can only break pairs touching i or j, or pairs
        # whose bracket has a b_i or b_j term; the oracle checks exactly
        # those.
        from spinor_forge import exceptional

        if batch is not None:
            monkeypatch.setattr(exceptional, "_BATCH_LEFT", batch)
        L = build_e7(field=PrimeField(7))
        ((i, j, mutant),) = seeded_flips(L, 11, 1)
        full = verify_jacobi(mutant)
        assert full.batches > 1
        candidates = set(pairs_touching(L, i, j))
        for (a, b), terms in L.nonzero_brackets():
            if {i, j} & {k for k, _ in terms}:
                candidates.add((a, b))
        want = oracle_violations(mutant, sorted(candidates))
        assert list(full.violations) == want
        assert any(v not in set(pairs_touching(L, i, j)) for v in want)
        subset = verify_jacobi(mutant, pairs=pairs_touching(L, i, j))
        assert set(subset.violations) == set(want) & set(pairs_touching(L, i, j))

    @pytest.mark.parametrize(
        "build, p",
        [(build_e6, None), (build_e6, 7), (build_e6, (1 << 31) - 1), (build_e7, 7)],
        ids=["e6-q", "e6-fp7", "e6-fp2147483647", "e7-fp7"],
    )
    def test_full_sweep_sums_each_triple_once(self, build, p):
        # the full sweep sums column k of pair (l, r) only for k > r; naming
        # every pair makes a subset sweep, which sums every column, so the
        # two agree only if each failing triple reports all three pairs
        L = build(field=PrimeField(p) if p else None)
        every = list(combinations(range(L.dim), 2))
        for n, (i, j, mutant) in enumerate(seeded_flips(L, 31, 2)):
            full = verify_jacobi(mutant)
            assert full.violations
            assert full.violations == verify_jacobi(mutant, pairs=every).violations
            if build is build_e6 and n == 0:
                assert list(full.violations) == oracle_violations(mutant, every)

    @pytest.mark.parametrize("p", [None, 7])
    def test_subset_orientation_matches_oracle(self, monkeypatch, p):
        # a star, a path and isolated pairs: each pair joins the group of
        # its endpoint of higher degree, ties to the smaller index, so the
        # star's centre takes its leaves on either side of it
        L = build_e6(field=PrimeField(p) if p else None)
        ((i, j, mutant),) = seeded_flips(L, 47, 1)
        rest = [x for x in range(L.dim) if x not in (i, j)]
        rng(p or 0).shuffle(rest)
        leaves, path, single = rest[:8] + [i], [i] + rest[8:12], rest[12:18]
        pairs = [(j, x) for x in leaves]
        pairs += list(zip(path, path[1:]))
        pairs += list(zip(single[::2], single[1::2]))
        used = {j, *leaves, *path, *single}
        for (a, b), terms in L.nonzero_brackets():
            # an untouched pair whose bracket holds b_i or b_j can fail too
            if not {a, b} & used and {i, j} & {k for k, _ in terms}:
                pairs.append((b, a))
                break
        engine = mutant.adjoint_products()
        run, groups = engine.jacobi_violations, []

        def spy(left, member, full):
            groups.extend(
                (int(l), set(np.flatnonzero(m).tolist())) for l, m in zip(left, member)
            )
            return run(left, member, full)

        monkeypatch.setattr(engine, "jacobi_violations", spy)
        rep = verify_jacobi(mutant, pairs=pairs)
        assert (j, set(leaves)) in groups
        assert any(l > min(r) for l, r in groups)
        want = oracle_violations(mutant, sorted({tuple(sorted(ab)) for ab in pairs}))
        assert want and len(want) < len(pairs)
        assert list(rep.violations) == want


class TestOneEngine:
    """The Jacobi and Killing engine is built once per algebra."""

    def test_jacobi_then_killing(self, engine_builds):
        L = build_e6()
        assert verify_jacobi(L)
        assert killing_form(L)[1] == 78
        assert engine_builds == ["e6"]

    def test_cli_verify(self, engine_builds, capsys):
        from spinor_forge.cli import main

        assert main(["verify", "--algebra", "e6"]) == 0
        capsys.readouterr()
        assert engine_builds == ["e6"]

    def test_flip_after_parent_engine(self, engine_builds):
        L = build_e6(field=PrimeField(7))
        assert verify_jacobi(L)
        (i, j), terms = L.nonzero_brackets()[5]
        mutant = with_flipped_sign(L, i, j, terms[0][0])
        pairs = pairs_touching(L, i, j)
        rep = verify_jacobi(mutant, pairs=pairs)
        assert rep.violations
        assert list(rep.violations) == oracle_violations(mutant, pairs)
        assert not verify_jacobi(mutant)
        # the parent keeps its own engine and still verifies clean
        assert verify_jacobi(L, pairs=pairs) and verify_jacobi(L)
        assert killing_form(L)[1] == 78
        assert engine_builds == [L.name]

    @pytest.mark.parametrize(
        "i, j, k, message",
        [
            (0, 9999, 1, "bad index pair (0, 9999)"),
            (9999, 0, 1, "bad index pair (0, 9999)"),
            (-1, 3, 1, "bad index pair (-1, 3)"),
            (0, 1, 9999, "no structure constant at (0, 1, 9999)"),
            (1.0, 3, 0, "bad index pair (1.0, 3)"),
            (3, 1.5, 0, "bad index pair (1.5, 3)"),
            (True, 3, 0, "bad index pair (True, 3)"),
            (3, False, 0, "bad index pair (False, 3)"),
            (0, "a", 1, "bad index pair (0, 'a')"),
            (None, 3, 0, "bad index pair (None, 3)"),
            (True, 1, 0, "bad index pair (True, 1)"),
            (1, 1.0, 0, "bad index pair (1, 1.0)"),
            (3, 3, 0, "mutation needs two distinct basis indices"),
        ],
        ids=["high", "high-swapped", "negative", "no-constant", "integral-float",
             "float", "bool", "bool-swapped", "str", "none", "bool-equal",
             "float-equal", "same"],
    )
    def test_flip_bad_input_builds_nothing(self, engine_builds, i, j, k, message):
        L = build_e8()
        with pytest.raises(ValueError, match=re.escape(message)):
            with_flipped_sign(L, i, j, k)
        assert engine_builds == []
        # a bad index is refused before any read; a read of a pair with no
        # such constant sweeps the whole table
        read = message.startswith("no structure constant")
        assert L.evaluated == (L.dim**2 if read else 0)
        assert len(L._table) == (comb(L.dim, 2) if read else 0)

    def test_flip_bool_constant_builds_nothing(self, engine_builds):
        # True == 1, so a bracket with a term on basis vector 1 would take it
        L = build_e6().materialize()
        (i, j), _ = next(e for e in L.nonzero_brackets() if 1 in dict(e[1]))
        with pytest.raises(ValueError, match=re.escape(f"({i}, {j}, True)")):
            with_flipped_sign(L, i, j, True)
        assert L._engine is None and engine_builds == []

    def test_flip_non_integer_constant_builds_nothing(self, engine_builds):
        L = build_e6().materialize()
        table = dict(L._table)
        (i, j), terms = L.nonzero_brackets()[5]
        k = float(terms[0][0])
        with pytest.raises(ValueError, match=re.escape(f"({i}, {j}, {k})")):
            with_flipped_sign(L, i, j, k)
        assert L._table == table and L._engine is None
        assert engine_builds == []

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([], "no index pairs given"),
            ([(1.5, 3)], "bad index pair (1.5, 3)"),
            ([(0, 1), (2, 3.0)], "bad index pair (2, 3.0)"),
            ([(True, 50)], "bad index pair (True, 50)"),
            ([(0, "a")], "bad index pair (0, 'a')"),
            ([(None, 3)], "bad index pair (None, 3)"),
            ([(0, 1), 0], "bad index pair 0"),
        ],
        ids=["empty", "float", "integral-float", "bool", "str", "none", "non-pair"],
    )
    @pytest.mark.parametrize("verify", [verify_jacobi])
    def test_bad_pair_set_builds_nothing(self, engine_builds, verify, pairs, message):
        L = build_e6()
        with pytest.raises(ValueError, match=re.escape(message)):
            verify(L, pairs=pairs)
        assert engine_builds == []
        assert not L._table

    def test_flip_leaves_parent_engine(self, engine_builds):
        L = build_e7(field=PrimeField(7))
        engine = L.adjoint_products()
        before = engine.val.copy()
        for _, _, mutant in seeded_flips(L, 23, 5):
            patched = mutant.adjoint_products()
            assert patched.row is engine.row and patched.row_ptr is engine.row_ptr
            assert not np.shares_memory(patched.val, engine.val)
            assert np.count_nonzero(patched.val != before) == 2
        assert np.array_equal(engine.val, before)
        assert L.adjoint_products() is engine
        assert verify_jacobi(L) and killing_form(L)[1] == 133
        assert engine_builds == [L.name]

    @pytest.mark.parametrize("p", [None, 7])
    def test_patched_engine_matches_rebuild(self, engine_builds, p):
        # the flip builds the parent's engine when it does not exist yet
        L = build_e6(field=PrimeField(p) if p else None)
        mutants = [mutant for _, _, mutant in seeded_flips(L, 5, 4)]
        assert engine_builds == [L.name]
        for mutant in mutants:
            patched = mutant.adjoint_products()
            fresh = exceptional_mod._AdjointProducts(mutant)
            for name in ("row", "col", "mat_ptr", "row_ptr"):
                assert np.array_equal(getattr(fresh, name), getattr(patched, name))
            want, got = fresh.val, patched.val
            if p:
                # a rebuild lifts -c to p - c where the patch keeps -c
                want, got = want % p, got % p
            assert np.array_equal(want, got)


def test_norm_solve_and_jacobi_leave_numpy_ma_unloaded():
    # np.unique imports numpy.ma on its first call under numpy 2.x, a cost
    # paid by every process that solves a norm or sweeps Jacobi
    code = (
        "import sys\n"
        "from spinor_forge.builders import build_e6\n"
        "from spinor_forge.exceptional import verify_jacobi\n"
        "from spinor_forge.fock import Config\n"
        "from spinor_forge.norms import norm_solution_dimension\n"
        "assert norm_solution_dimension(Config(4)) == 1\n"
        "assert verify_jacobi(build_e6())\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    src = Path(exceptional_mod.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr


class TestEngineBounds:
    """The engine's int64 sums are proven to fit when it is built."""

    @staticmethod
    def heisenberg(c):
        # [x0, x1] = c x2, every other bracket zero
        basis = [("x", a) for a in range(3)]

        def fn(la, lb):
            return {("x", 2): c} if (la[1], lb[1]) == (0, 1) else {}

        return LieAlgebra(f"heisenberg{c}", Config(1), basis, label_rule(basis, fn), 1)

    def test_oversized_constant_rejected(self, monkeypatch):
        def no_batch(self, left, right):
            raise AssertionError("a Jacobi batch ran")

        engine = exceptional_mod._AdjointProducts
        monkeypatch.setattr(engine, "jacobi_violations", no_batch)
        L = self.heisenberg(1 << 40)
        with pytest.raises(ValueError, match="too large"):
            L.adjoint_products()
        with pytest.raises(ValueError, match="too large"):
            verify_jacobi(L)
        with pytest.raises(ValueError, match="too large"):
            killing_form(L)

    def test_largest_constants_stay_exact(self):
        # 3 * 3 * (2^29)^2 < 2^63; the Jacobi sums of this nilpotent
        # algebra cancel exactly and its Killing form vanishes
        L = self.heisenberg(1 << 29)
        assert L.adjoint_products().val.tolist() == [1 << 29, -(1 << 29)]
        assert verify_jacobi(L)
        assert killing_form(L)[1] == 0

    @pytest.mark.parametrize("build", [build_e6, build_e7])
    def test_largest_prime_sums_stay_exact(self, build):
        # lifted residues reach p - 1, so the sums of unreduced products
        # would overflow int64; the Killing matrix over F_p is the one over
        # Q reduced mod p
        field = PrimeField((1 << 31) - 1)
        L = build(field=field)
        assert verify_jacobi(L)
        mat, rank = killing_form(L)
        assert rank == L.dim
        q_mat, _ = killing_form(build())
        assert mat == [
            [field.from_fraction(x.numerator, x.denominator) for x in row]
            for row in q_mat
        ]

    @pytest.mark.parametrize("p", [None, 7, (1 << 31) - 1])
    def test_values_are_int64(self, p):
        L = build_e6(field=PrimeField(p) if p else None)
        engine = L.adjoint_products()
        assert engine.val.dtype == np.int64
        assert engine.gram().dtype == np.int64


def wrapped_e6(base, broken=None):
    """e6's row source behind a counter of the brackets it evaluates, by
    ordered label pair (both orders of each row, the diagonal once),
    optionally broken on one ordered label pair (that order gains den on
    basis vector 0)."""
    calls = Counter()

    def fault(t):
        out = dict(t)
        out[0] = out.get(0, 0) + base.den
        return tuple(sorted((k, c) for k, c in out.items() if c))

    def fn():
        for i, j, t, u in base._fn():
            ij, ji = (base.basis[i], base.basis[j]), (base.basis[j], base.basis[i])
            calls[ij] += 1
            if i != j:
                calls[ji] += 1
            yield i, j, fault(t) if ij == broken else t, fault(u) if ji == broken else u

    return LieAlgebra("e6~wrapped", base.config, base.basis, fn, base.den), calls


class TestBracketsBuiltOnce:
    def test_each_forward_bracket_evaluated_once(self, e6):
        L, calls = wrapped_e6(e6)
        assert verify_antisymmetry(L) == []
        L.materialize()
        n = L.dim
        for i in range(n):
            for j in range(n):
                assert calls[(L.basis[i], L.basis[j])] == 1
        assert L.nonzero_brackets() == e6.materialize().nonzero_brackets()

    def test_reversed_pairs_store_ascending_order(self, e6):
        L, calls = wrapped_e6(e6)
        assert L.numerators(60, 2) == e6.numerators(60, 2)
        # the one read fills the table: every ordered pair evaluated once,
        # each entry stored under its ascending pair
        assert len(L._table) == comb(L.dim, 2) and all(i < j for i, j in L._table)
        assert len(calls) == L.dim**2 and set(calls.values()) == {1}
        assert L.bracket(2, 60) == e6.bracket(2, 60)

    @pytest.mark.parametrize("materialize_first", [False, True])
    @pytest.mark.parametrize("order", ["forward", "reverse"])
    def test_broken_pair_reported(self, e6, materialize_first, order):
        i, j = 3, 70
        broken = (e6.basis[i], e6.basis[j])
        if order == "reverse":
            broken = broken[::-1]
        L, calls = wrapped_e6(e6, broken)
        if materialize_first:
            L.materialize()
        assert verify_antisymmetry(L) == [(i, j)]
        # the table holds what the bracket function gave in ascending order
        want = dict(e6.bracket(i, j))
        if order == "forward":
            want[0] = want.get(0, 0) + 1
        assert dict(L.bracket(i, j)) == want

    def test_flipped_entry_never_overwritten(self, e6):
        e6.materialize()
        (i, j), terms = e6.nonzero_brackets()[0]
        clone = with_flipped_sign(e6, i, j, terms[0][0])
        flipped = clone.bracket(i, j)
        assert verify_antisymmetry(clone) == []
        assert clone.bracket(i, j) == flipped != e6.bracket(i, j)

    def test_run_checks_evaluates_each_bracket_once(self, e6):
        L, calls = wrapped_e6(e6)
        checks = run_checks(L)
        assert [c["check"] for c in checks] == [
            "antisymmetry",
            "jacobi",
            "degree-zero-spanning",
            "killing-rank",
        ]
        assert all(c["ok"] for c in checks)
        assert set(calls.values()) == {1}
        assert len(calls) == L.dim * L.dim

    def test_materialize_then_checks_evaluate_each_bracket_once(self, e6):
        L, calls = wrapped_e6(e6)
        L.materialize()
        assert verify_antisymmetry(L) == []
        assert all(c["ok"] for c in run_checks(L))
        assert set(calls.values()) == {1}
        assert len(calls) == L.evaluated == L.dim * L.dim

    @pytest.mark.parametrize("order", ["forward", "reverse"])
    def test_broken_pair_one_verdict_from_every_call(self, e6, order):
        i, j = 3, 70
        broken = (e6.basis[i], e6.basis[j])
        L, calls = wrapped_e6(e6, broken if order == "forward" else broken[::-1])
        L.materialize()
        assert verify_antisymmetry(L) == [(i, j)]
        assert run_checks(L)[0]["violations"] == [[i, j]]
        assert verify_antisymmetry(L) == [(i, j)]
        assert set(calls.values()) == {1} and L.evaluated == L.dim * L.dim

    def test_run_checks_counts_the_one_sweep(self, e6):
        # the entry reports the table's total: a fresh algebra is swept by
        # the antisymmetry check, one already swept evaluates nothing more
        fresh, _ = wrapped_e6(e6)
        assert run_checks(fresh)[0]["brackets_evaluated"] == fresh.dim ** 2
        swept, calls = wrapped_e6(e6)
        swept.materialize()
        calls.clear()
        entry = run_checks(swept)[0]
        assert entry["brackets_evaluated"] == swept.dim ** 2
        assert entry["nonzero"] == 1028
        assert not calls

    @pytest.mark.parametrize("broken", [False, True])
    def test_flip_keeps_the_parent_verdict(self, e6, broken):
        i, j = 3, 70
        L, calls = wrapped_e6(e6, (e6.basis[i], e6.basis[j]) if broken else None)
        want = verify_antisymmetry(L)
        assert want == ([(i, j)] if broken else [])
        (a, b), terms = L.nonzero_brackets()[0]
        clone = with_flipped_sign(L, a, b, terms[0][0])
        calls.clear()
        assert verify_antisymmetry(clone) == want
        assert clone.materialize() is clone and not calls


GOLDEN = Path(__file__).resolve().parents[1] / "golden"
BUILDS = {"e6": build_e6, "e7": build_e7, "e8": build_e8}


def refused_flip(L):
    # the pair is read (its constants are looked up) before the refusal
    with pytest.raises(ValueError, match="no structure constant"):
        with_flipped_sign(L, 0, 1, L.dim + 5)


def swept(read):
    """A read that sweeps first: a fresh table must not read as empty."""

    def check(L):
        assert read(L)

    return check


EMPTY_OR_COMPLETE_READS = {
    "numerators": lambda L: L.numerators(5, 2),
    "diagonal": lambda L: L.numerators(3, 3),
    "bracket": lambda L: L.bracket(2, 5),
    "spanning": spanning_check,
    "roots": root_decomposition,  # rational field only
    "refused-flip": refused_flip,
    "nonzero-count": swept(LieAlgebra.nonzero_count),
    "nonzero-brackets": swept(LieAlgebra.nonzero_brackets),
}


class TestEmptyOrComplete:
    """A table holds no entry or all C(dim, 2): no read stores one."""

    @pytest.mark.parametrize(
        "name, spec, read",
        [
            (name, spec, read)
            for name in ("e6", "e7")
            for spec in ("q", "fp:7")
            for read in EMPTY_OR_COMPLETE_READS
            if read != "roots" or spec == "q"
        ],
    )
    def test_every_read_leaves_the_table_empty_or_complete(self, name, spec, read):
        L = BUILDS[name](field=make_field(spec))
        EMPTY_OR_COMPLETE_READS[read](L)
        assert (L.evaluated, len(L._table)) in {(0, 0), (L.dim**2, comb(L.dim, 2))}

    def test_a_rule_missing_a_pair_leaves_the_table_empty(self):
        # the sweep names the first pair without a row and keeps nothing
        def rule():
            rows = block_rows(range(4), range(4), lambda i, j: ())
            return (row for row in rows if row[:2] != (1, 3))

        L = LieAlgebra("gappy", Config(1), [("x", a) for a in range(4)], rule, 1)
        for read in (L.materialize, lambda: L.numerators(2, 0)):
            with pytest.raises(ValueError, match=re.escape("left (1, 3) without a row")):
                read()
            assert L.evaluated == 0 and not L._table and L._verdict is None

    def test_a_reversed_row_leaves_the_table_empty(self):
        # a row comes as (i, j) with i <= j: one given as (3, 1) is no row
        # of (1, 3), and the sweep keeps nothing rather than swap it
        def rule():
            for i, j, t, u in block_rows(range(4), range(4), lambda i, j: ()):
                yield (j, i, u, t) if (i, j) == (1, 3) else (i, j, t, u)

        L = LieAlgebra("reversed", Config(1), [("x", a) for a in range(4)], rule, 1)
        for read in (L.materialize, lambda: L.numerators(2, 0)):
            with pytest.raises(ValueError, match=re.escape("left (1, 3) without a row")):
                read()
            assert L.evaluated == 0 and not L._table and L._verdict is None


class TestBlockRows:
    """The chassis's row source, held to the per-pair dispatch."""

    @pytest.mark.parametrize("spec", ["q", "fp:5", "fp:7"])
    @pytest.mark.parametrize("name", list(BUILDS))
    def test_block_rows_match_the_per_pair_dispatch(self, monkeypatch, name, spec):
        L, fn, den = chassis_with_dispatch(monkeypatch, BUILDS[name], make_field(spec))
        rows = list(L._fn())
        # one pass: one row per unordered pair, i <= j, holding both orders
        got = [(i, j) for i, j, _, _ in rows]
        assert len(rows) == comb(L.dim, 2) + L.dim == len(set(got))
        assert all(i <= j for i, j in got)
        for i, j, t, u in rows:
            assert t == dispatch_row(L, fn, den, i, j), (i, j)
            assert u == dispatch_row(L, fn, den, j, i), (j, i)
        # e7's constant solve swept its table; e6 and e8 are untouched
        swept = name == "e7"
        assert L.evaluated == (L.dim**2 if swept else 0)
        assert len(L._table) == (comb(L.dim, 2) if swept else 0)
        # the source's rows and the swept table agree
        r = rng(len(spec) + L.dim)
        for _ in range(40):
            i, j = r.randrange(L.dim), r.randrange(L.dim)
            want = dispatch_row(L, fn, den, i, j)
            assert bracket_1x1(L, L.basis[i], L.basis[j]) == {
                L.basis[k]: c for k, c in want
            }
            assert L.numerators(i, j) == want

    @pytest.mark.parametrize("build", [build_e6, build_e8], ids=["e6", "e8"])
    def test_one_order_l2_fault_flips_the_verdict(self, monkeypatch, build):
        real = builders_mod._l2_coords
        ma, mb = 0b00011, 0b01100

        def faulty(form, a, b):
            out = real(form, a, b)
            if (a, b) == (ma, mb):
                out = {**out, ("ei", 1, 1): out.get(("ei", 1, 1), 0) + 2}
            return out

        monkeypatch.setattr(builders_mod, "_l2_coords", faulty)
        L = build()
        i, j = L.index[("s", ma)], L.index[("s", mb)]
        assert verify_antisymmetry(L) == [(min(i, j), max(i, j))]

    def test_one_order_c2_fault_flips_the_verdict(self, monkeypatch):
        real = builders_mod._c2_bracket
        x, y = ("ei", 1, 2), ("ei", 2, 1)

        def faulty(la, lb, half):
            out = real(la, lb, half)
            if (la, lb) == (x, y):
                return {lab: -c for lab, c in out.items()}
            return out

        monkeypatch.setattr(builders_mod, "_c2_bracket", faulty)
        L = build_e6()
        i, j = L.index[x], L.index[y]
        assert i < j and L.numerators(i, j)
        assert verify_antisymmetry(L) == [(i, j)]

    def test_materialize_on_a_complete_table_calls_no_bracket(self, monkeypatch, e6):
        L, calls = wrapped_e6(e6)
        assert verify_antisymmetry(L) == []
        calls.clear()
        assert L.materialize() is L and not calls
        (i, j), terms = L.nonzero_brackets()[0]
        clone = with_flipped_sign(L, i, j, terms[0][0])
        flipped = clone.bracket(i, j)
        assert clone.materialize().bracket(i, j) == flipped != L.bracket(i, j)
        assert not calls
        # a complete chassis table runs no bracket rule either
        L = build_e6().materialize()

        def refuse(*args, **kwargs):
            raise AssertionError("a bracket rule ran")

        for rule in ("_c2_bracket", "_c2_move", "_l2_coords", "_top_num"):
            monkeypatch.setattr(builders_mod, rule, refuse)
        before = L.evaluated
        assert L.materialize().nonzero_count() == 1028
        assert L.evaluated == before


class TestTableForm:
    """The table's one form: sorted (k, numerator) int pairs over L.den."""

    @pytest.mark.parametrize("p", [7, (1 << 31) - 1])
    @pytest.mark.parametrize("name", list(BUILDS))
    def test_prime_field_table_is_golden_mod_p(self, name, p):
        want = []
        for rec in json.loads((GOLDEN / f"{name}.json").read_text())["brackets"]:
            terms = []
            for k, text in rec["terms"]:
                x = Fraction(text)
                if r := x.numerator * pow(x.denominator, -1, p) % p:
                    terms.append((k, r))
            if terms:
                want.append(((rec["i"], rec["j"]), tuple(terms)))
        L = BUILDS[name](field=PrimeField(p)).materialize()
        assert L.den == 1
        assert L.nonzero_brackets() == want

    @pytest.mark.parametrize("p", [None, 7])
    @pytest.mark.parametrize("name", list(BUILDS))
    def test_entries_are_int_numerators(self, name, p):
        field = PrimeField(p) if p else Rationals()
        L = BUILDS[name](field=field).materialize()
        for i, j in combinations(range(L.dim), 2):
            terms = L.numerators(i, j)
            assert type(terms) is tuple
            assert [k for k, _ in terms] == sorted({k for k, _ in terms})
            for k, c in terms:
                assert type(k) is int and type(c) is int and c
                assert not p or 0 < c < p
            assert L.bracket(i, j) == tuple(
                (k, field.from_fraction(c, L.den)) for k, c in terms
            )
            assert L.bracket(j, i) == tuple(
                (k, field.from_fraction(-c, L.den)) for k, c in terms
            )

    @pytest.mark.parametrize("p", [None, 7])
    def test_chassis_drops_zero_numerators(self, monkeypatch, p):
        # e7's chassis at (1, 0) and (0, 1), the charts of the constant
        # solve's test oracle, compute zero numerators (c * 0 * w at c1 = 0);
        # the chassis's terms() drops them before a row is stored
        config, form = builders_mod._builder_setup(
            6, PrimeField(p) if p else Rationals(), None
        )
        zeros = []
        real = builders_mod._graded_algebra

        def spy(name, config, den, extra, module, pair, *rest):
            def counted(la, lb):
                out = pair(la, lb)
                zeros.extend(lab for lab, c in out.items() if not c)
                return out

            return real(name, config, den, extra, module, counted, *rest)

        monkeypatch.setattr(builders_mod, "_graded_algebra", spy)
        for c1, c2 in ((1, 0), (0, 1)):
            L = builders_mod._e7_chassis(config, form, c1, c2).materialize()
            assert L.nonzero_count()
            for _, terms in L.nonzero_brackets():
                assert all(c for _, c in terms)
                assert not p or all(0 < c < p for _, c in terms)
            assert len(L._table) == L.dim * (L.dim - 1) // 2
        assert zeros

    def test_run_checks_counts_brackets(self, e7):
        entry = run_checks(build_e6())[0]
        assert entry["check"] == "antisymmetry"
        assert entry["brackets_evaluated"] == 78 * 78
        assert entry["nonzero"] == 1028
        assert len(e7.materialize().nonzero_brackets()) == 2649

    def test_bracket_functions_form_no_field_scalar(self):
        # the builders compute on int numerators; the engine lifts nothing
        def called(fn):
            return {
                node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
                for node in ast.walk(fn)
                if isinstance(node, ast.Call)
                and isinstance(node.func, (ast.Name, ast.Attribute))
            }

        def defs(module, kind=ast.FunctionDef):
            tree = ast.parse(Path(module.__file__).read_text())
            return [n for n in ast.walk(tree) if isinstance(n, kind)]

        # every function of builders, the nested bracket functions included
        funcs = defs(builders_mod)
        funcs += [f for f in defs(pairings_mod) if f.name in ("_c2_move", "_l2_coords")]
        names = [f.name for f in funcs]
        assert names.count("pair") == 3
        assert {"fn", "sl2_bracket", "_c2_bracket", "_c2_move"} <= set(names)
        for fn in funcs:
            assert not called(fn) & {"from_fraction", "from_int"}, fn.name
        classes = defs(exceptional_mod, ast.ClassDef)
        (engine,) = [c for c in classes if c.name == "_AdjointProducts"]
        assert "lcm" not in called(engine)


class TestKillingForm:
    def test_e6_full_rank_and_symmetry(self, e6):
        mat, rank = killing_form(e6)
        assert rank == 78
        for i in range(78):
            for j in range(i):
                assert mat[i][j] == mat[j][i]

    def test_e7_full_rank(self, e7):
        _, rank = killing_form(e7)
        assert rank == 133

    def test_e8_killing_vanishes_over_f5(self):
        # the Killing form is 2h^v = 60 times the normalised invariant form
        # of e8, so over F_5 it is zero although the table is a Lie algebra
        L = build_e8(field=PrimeField(5))
        assert verify_jacobi(L)
        assert killing_form(L)[1] == 0

    def test_ad_invariance_sampled(self, e6):
        mat, _ = killing_form(e6)
        r = rng(31)

        def kappa_of(terms, z):
            total = Fraction(0)
            for k, c in terms:
                total += c * mat[k][z]
            return total

        for _ in range(80):
            x, y, z = (r.randrange(78) for _ in range(3))
            lhs = kappa_of(e6.bracket(x, y), z)
            rhs = -kappa_of(e6.bracket(x, z), y)
            assert lhs == rhs

    @pytest.mark.parametrize("p", [None, 7])
    def test_matrix_matches_dense_traces(self, p):
        # the reference: dense integer ad matrices from L.bracket alone
        field = PrimeField(p) if p else Rationals()
        L = build_e6(field=field)
        n = L.dim
        brackets = [[L.bracket(i, j) for j in range(n)] for i in range(n)]
        consts = [c for row in brackets for terms in row for _, c in terms]
        scale = p or lcm(*(c.denominator for c in consts))
        ad = np.zeros((n, n, n), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                for k, c in brackets[i][j]:
                    ad[i, k, j] = c.value if p else int(c * scale)
        traces = np.einsum("iab,jba->ij", ad, ad).tolist()
        denom = 1 if p else scale * scale
        mat, _ = killing_form(L)
        assert mat == [[field.from_fraction(t, denom) for t in row] for row in traces]

    @pytest.mark.parametrize(
        "field", [None, PrimeField(5), PrimeField(7)], ids=["q", "fp5", "fp7"]
    )
    @pytest.mark.parametrize("build", [build_e6, build_e7, build_e8], ids=["e6", "e7", "e8"])
    def test_rank_matches_dense_elimination(self, build, field):
        L = build(field=field)
        mat, rank = killing_form(L)
        assert rank == dense_rank(mat, L.config.field)

    def test_rank_deficient_over_q(self):
        # with the spinor brackets zeroed the table still satisfies Jacobi but
        # is not semisimple: its Killing form is degenerate over Q
        L = build_e6(spinor_coeffs=(0, 0))
        mat, rank = killing_form(L)
        assert rank == dense_rank(mat, Rationals()) == 46

    def test_zero_diagonal_on_nilpotents(self, e6):
        # kappa(e1e2, e1e2) = 0: ad of a square-zero partial creation
        mat, _ = killing_form(e6)
        i = e6.index[("ee", 1, 2)]
        assert mat[i][i] == 0

    @pytest.mark.parametrize("field", [None, PrimeField(7)], ids=["q", "fp7"])
    def test_run_checks_ranks_without_the_scalar_matrix(self, field, monkeypatch):
        # the battery reads the rank alone: killing_form, which also builds
        # the dim x dim matrix of field scalars, is never called
        L = build_e6(field=field)
        want = killing_form(L)[1]

        def refuse(L):
            raise AssertionError("run_checks must not build the Killing matrix")

        monkeypatch.setattr(exceptional_mod, "killing_form", refuse)
        (entry,) = [c for c in run_checks(L) if c["check"] == "killing-rank"]
        assert (entry["rank"], entry["ok"]) == (want, True)

    def test_large_prime_entries_are_traces(self):
        field = PrimeField((1 << 31) - 1)
        L = build_e6(field=field)
        mat, rank = killing_form(L)
        assert rank == 78
        r = rng(47)
        for _ in range(40):
            i, j = r.randrange(78), r.randrange(78)
            # tr(ad b_i ad b_j) = sum_k coefficient of b_k in [b_i, [b_j, b_k]]
            trace = field.zero()
            for k in range(78):
                for m, c in L.bracket(j, k):
                    trace += c * dict(L.bracket(i, m)).get(k, field.zero())
            assert mat[i][j] == trace


class TestSpanningCheck:
    def test_expected_ranks(self, e6, e7, e8):
        for L, expected in ((e6, 46), (e7, 69), (e8, 120)):
            rep = spanning_check(L)
            assert rep
            assert rep.rank == expected == rep.expected
            assert rep.pairs_used >= expected

    def test_leak_guard(self):
        config = Config(1)

        def fn(la, lb):
            if la[0] == "s" and lb[0] == "s":
                return {("s", 0): 1}
            return {}

        basis = [("ei", 1, 1), ("s", 0), ("s", 1)]
        L = LieAlgebra("leaky", config, basis, label_rule(basis, fn), 1)
        with pytest.raises(RuntimeError):
            spanning_check(L)

    def test_degenerate_coefficients_do_not_span(self):
        L = build_e6(spinor_coeffs=(0, 0))
        rep = spanning_check(L)
        assert not rep
        assert rep.rank == 0 and rep.pairs_used == 0


class TestRootDecomposition:
    def test_types(self, e6, e7, e8):
        for L, tname, rank, count in (
            (e6, "E6", 6, 72),
            (e7, "E7", 7, 126),
            (e8, "E8", 8, 240),
        ):
            rd = root_decomposition(L)
            assert rd.type_name == tname
            assert rd.rank == rank
            assert len(rd.roots) == count
            assert len(rd.simple_roots) == rank
            assert len(rd.positive_roots) == count // 2

    def test_single_root_length(self, e6, e7, e8):
        for L, norm in (
            (e6, Fraction(1, 12)),
            (e7, Fraction(1, 18)),
            (e8, Fraction(1, 30)),
        ):
            rd = root_decomposition(L)
            assert rd.root_norms == frozenset((norm,))

    def test_cartan_matrix_shape(self, e8):
        rd = root_decomposition(e8)
        a = rd.cartan_matrix
        for i in range(8):
            assert a[i][i] == 2
            for j in range(8):
                if i != j:
                    assert a[i][j] in (0, -1)
                    assert (a[i][j] == 0) == (a[j][i] == 0)
        edges = sum(1 for i in range(8) for j in range(i) if a[i][j])
        assert edges == 7

    def test_cartan_labels(self, e6, e7):
        rd6 = root_decomposition(e6)
        assert ("eps",) in rd6.cartan_labels
        rd7 = root_decomposition(e7)
        assert ("sl2", "h") in rd7.cartan_labels
        assert sum(1 for lab in rd7.cartan_labels if lab[0] == "ei") == 6

    @pytest.mark.parametrize("name", ["e6", "e7"])
    def test_cartan_found_without_labels(self, request, name):
        # every label ("x", i), the brackets copied from the built table:
        # the Cartan comes from the table, not from the construction names
        L = request.getfixturevalue(name)
        basis = [("x", i) for i in range(L.dim)]

        def fn(la, lb):
            return {basis[k]: c for k, c in L.numerators(la[1], lb[1])}

        relabelled = LieAlgebra(
            f"{name}-relabelled", L.config, basis, label_rule(basis, fn), L.den
        )
        got, want = root_decomposition(relabelled), root_decomposition(L)
        fields = ("cartan_indices", "roots", "simple_roots", "cartan_matrix",
                  "root_norms", "type_name")
        assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]

    def test_rejects_prime_field(self):
        with pytest.raises(ValueError):
            root_decomposition(build_e6(field=PrimeField(7)))

    def test_rejects_non_eigenvector(self):
        config = Config(1)

        def fn(la, lb):
            if la[0] == "ei" and lb[0] == "s":
                return {("s", 0): 1, ("s", 1): 1}
            if la[0] == "s" and lb[0] == "ei":
                return {("s", 0): -1, ("s", 1): -1}
            return {}

        basis = [("ei", 1, 1), ("s", 0), ("s", 1)]
        L = LieAlgebra("bad", config, basis, label_rule(basis, fn), 1)
        with pytest.raises(ValueError):
            root_decomposition(L)

    def test_rejects_degenerate_cartan(self):
        # two Cartan elements acting alike: the roots (1, 1) and (-1, -1)
        # do not span the rank-2 Cartan, so one root is simple, not two
        config = Config(2)

        def fn(la, lb):
            if la[0] == "ei" and lb[0] == "s":
                return {lb: 1 if lb[1] == 0 else -1}
            if la[0] == "s" and lb[0] == "ei":
                return {la: -1 if la[1] == 0 else 1}
            return {}

        basis = [("ei", 1, 1), ("ei", 2, 2), ("s", 0), ("s", 1)]
        L = LieAlgebra("degenerate", config, basis, label_rule(basis, fn), 1)
        with pytest.raises(ValueError, match="found 1 simple roots, expected 2"):
            root_decomposition(L)

    def test_coroot_read_matches_the_killing_inverse(self, e6, e7, e8):
        for L in (e6, e7, e8):
            rd = root_decomposition(L)
            want = killing_inverse_roots(rd.roots)
            assert (rd.simple_roots, rd.cartan_matrix, rd.root_norms) == want

    @pytest.mark.parametrize(
        "weight, coroot, match",
        [
            # sl2 with h = F_11 passes every coroot check; no rank-1 type
            (-1, {("ei", 1, 1): 1}, "unrecognised Dynkin diagram"),
            (2, {("ei", 1, 1): 1}, "not closed under negation"),
            (-1, {("ei", 1, 1): 1, ("s", 0): 1}, "leaves the Cartan subalgebra"),
            (-1, {}, "vanishes on its coroot"),
        ],
        ids=["sl2", "no-negative", "coroot-off-cartan", "zero-coroot"],
    )
    def test_rank_one_coroot_refusals(self, weight, coroot, match):
        # Cartan H = F_11, root vectors s0 and s1 of weights 1 and `weight`,
        # [s0, s1] = coroot
        def fn(la, lb):
            if la[0] == "ei" and lb[0] == "s":
                return {lb: 1 if lb[1] == 0 else weight}
            if la[0] == "s" and lb[0] == "ei":
                return {la: -1 if la[1] == 0 else -weight}
            if la[0] == lb[0] == "s" and la != lb:
                return {k: c if la[1] == 0 else -c for k, c in coroot.items()}
            return {}

        basis = [("ei", 1, 1), ("s", 0), ("s", 1)]
        L = LieAlgebra("rank-one", Config(1), basis, label_rule(basis, fn), 1)
        with pytest.raises(ValueError, match=match):
            root_decomposition(L)

    @pytest.mark.parametrize(
        "weights, coroots, den, match",
        [
            ([(1,), (-1,)], {}, 2, "non-integral weight"),
            ([(1,), (1,)], {}, 1, "repeated root"),
            # h_b = h1 + 3 h2 for b = (0, 1), so a = (1, 0) gives 2/3
            ([(1, 0), (-1, 0), (0, 1), (0, -1)], {(0, 1): (1, 0), (2, 3): (1, 3)},
             1, "non-integral Cartan matrix entry"),
        ],
        ids=["weight-over-den", "repeated-root", "cartan-entry-2/3"],
    )
    def test_toy_table_refusals(self, weights, coroots, den, match):
        # Cartan h_s = ("ei", s, s), root vectors ("s", m) of the given
        # weights (numerators over den), [x_a, x_b] = coroots[a, b] in
        # Cartan coordinates for a < b, every other bracket zero
        cartan = [("ei", s, s) for s in range(1, len(weights[0]) + 1)]
        basis = cartan + [("s", m) for m in range(len(weights))]

        def fn(la, lb):
            if la in cartan and lb[0] == "s":
                return {lb: weights[lb[1]][la[1] - 1]}
            if lb in cartan and la[0] == "s":
                return {la: -weights[la[1]][lb[1] - 1]}
            if la[0] == lb[0] == "s":
                sign = 1 if la[1] < lb[1] else -1
                h = coroots.get(tuple(sorted((la[1], lb[1]))), ())
                return {cartan[s]: sign * c for s, c in enumerate(h)}
            return {}

        L = LieAlgebra("toy", Config(1), basis, label_rule(basis, fn), den)
        with pytest.raises(ValueError, match=match):
            root_decomposition(L)

    def test_rejects_zero_weight_outside_cartan(self):
        config = Config(1)
        L = LieAlgebra("flat", config, [("ei", 1, 1), ("s", 0)], zero_rule(2), 1)
        with pytest.raises(ValueError):
            root_decomposition(L)

    def test_rejects_zero_weight_outside_the_found_cartan(self):
        # Heisenberg [x0, x1] = x2: only the central x2 is diagonal, and
        # x0, x1 have weight 0 on it (the flat algebra above is all Cartan)
        basis = [("x", a) for a in range(3)]

        def fn(la, lb):
            sign = {(0, 1): 1, (1, 0): -1}.get((la[1], lb[1]))
            return {basis[2]: sign} if sign else {}

        L = LieAlgebra("heisenberg", Config(1), basis, label_rule(basis, fn), 1)
        with pytest.raises(ValueError, match="zero weight outside the Cartan"):
            root_decomposition(L)


class TestCliffordFreeBuild:
    @pytest.mark.parametrize("field", FIELDS, ids=["q", "fp7"])
    def test_builders_form_no_clifford_element(self, field, monkeypatch):
        forms = {n: solve_spinor_norm(Config(n, field)) for n in (5, 6, 8)}

        def refuse(*args, **kwargs):
            raise AssertionError("the build path formed a Clifford element")

        monkeypatch.setattr(CliffordElem, "_make", refuse)
        monkeypatch.setattr(CliffordElem, "__init__", refuse)
        for build, n in ((build_e6, 5), (build_e7, 6), (build_e8, 8)):
            L = build(field=field, form=forms[n])
            assert verify_antisymmetry(L) == []


def package_defs():
    """The parsed package, demos and perfbench, keyed by path, and every
    top-level function and class method of the package as (qualified
    name, name, node, is a method)."""
    root = Path(exceptional_mod.__file__).parents[2]
    src = sorted((root / "src" / "spinor_forge").glob("*.py"))
    readers = src + sorted((root / "demos").glob("*.py"))
    readers += sorted((root / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in readers}
    defs = []
    for path in src:
        for node in trees[path].body:
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{path.stem}.{node.name}", node.name, node, False))
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        name = f"{path.stem}.{node.name}.{sub.name}"
                        defs.append((name, sub.name, sub, True))
    return trees, defs


def imported_names(module):
    """Every module path component and name in module's import statements.

    Read from the source: the package __init__ imports every module, so
    sys.modules cannot show what one module imports.
    """
    out = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            out.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out.update(alias.name.split("."))
    return out


class TestIndependence:
    """The checks import no construction code; the builders import no check."""

    def test_exceptional_imports_no_construction(self):
        construction = {"norms", "pairings", "clifford", "builders", "props", "cli"}
        assert not imported_names(exceptional_mod) & construction

    def test_builders_import_no_verifier(self):
        names = imported_names(builders_mod)
        assert "LieAlgebra" in names
        verifiers = {"killing_form", "spanning_check", "root_decomposition"}
        assert not names & verifiers
        assert not [name for name in names if name.startswith("verify_")]

    def test_cli_runs_the_one_battery(self):
        import spinor_forge.cli as cli_mod

        tree = ast.parse(Path(cli_mod.__file__).read_text())
        from_exceptional = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "exceptional"
            for alias in node.names
        }
        assert from_exceptional == {"run_checks", "to_json"}


    def test_the_sweep_reads_no_label(self):
        # the row source owns its blocks: _sweep names no basis, and the
        # block routine and the bracket alias live in builders
        cls = ast.parse(inspect.getsource(LieAlgebra)).body[0]
        (sweep,) = [f for f in cls.body if getattr(f, "name", "") == "_sweep"]
        assert not [
            node.lineno
            for node in ast.walk(sweep)
            if "basis" in (getattr(node, "attr", None), getattr(node, "id", None))
        ]
        tree = ast.parse(Path(exceptional_mod.__file__).read_text())
        defined = {getattr(node, "name", None) for node in ast.walk(tree)}
        defined |= {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
        assert not defined & {"block_rows", "Bracket"}

    def test_root_decomposition_reads_no_label(self):
        # the Cartan is found in the table, so no comparison holds a str
        tree = ast.parse(inspect.getsource(root_decomposition))
        assert not [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            for sub in ast.walk(node)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
        ]

    def test_only_lie_algebra_touches_its_table(self):
        # no code outside the LieAlgebra class body reads or writes the
        # stored table, the kept antisymmetry verdict or the bracket function
        src = Path(exceptional_mod.__file__).parent
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text())
            inside = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and node.name == "LieAlgebra":
                    inside.update(id(sub) for sub in ast.walk(node))
            touches = [
                (path.name, node.lineno)
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr in ("_table", "_verdict", "_fn")
                and id(node) not in inside
            ]
            assert not touches

    def test_only_the_sweep_runs_the_rule_and_fills_the_table(self):
        # self._fn is called in one place, LieAlgebra._sweep, and the table
        # is bound only there and in __init__; the flipped clone's copy in
        # with_flipped_sign is the one other write, and every method call
        # on a table reads it.  The test-side 1 x 1 read
        # (helpers.bracket_1x1) is the rule's oracle
        src = Path(exceptional_mod.__file__).parent
        fn_uses, writes, methods = [], [], set()
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text())
            owner = {}
            for cls in ast.walk(tree):
                if isinstance(cls, ast.ClassDef):
                    for fn in cls.body:
                        for node in ast.walk(fn):
                            owner[id(node)] = f"{cls.name}.{getattr(fn, 'name', '')}"
            calls = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
            for node in ast.walk(tree):
                where = owner.get(id(node), path.name)
                if isinstance(node, ast.Attribute) and node.attr == "_fn":
                    use = "call" if id(node) in calls else type(node.ctx).__name__
                    fn_uses.append((where, use))
                if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                    if getattr(node.value, "attr", None) == "_table":
                        writes.append((where, "item"))
                if isinstance(node, ast.Attribute) and node.attr == "_table":
                    if isinstance(node.ctx, ast.Store):
                        writes.append((where, "bind"))
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    if getattr(node.func.value, "attr", None) == "_table":
                        methods.add(node.func.attr)
        assert sorted(fn_uses) == [("LieAlgebra.__init__", "Store"),
                                   ("LieAlgebra._sweep", "call")]
        assert sorted(writes) == [
            ("LieAlgebra.__init__", "bind"),
            ("LieAlgebra._sweep", "bind"),
            ("LieAlgebra.with_flipped_sign", "bind"),
            ("LieAlgebra.with_flipped_sign", "item"),
        ]
        assert methods <= {"get", "items", "values"}

    def test_clifford_constructions_written_once(self):
        # one function walks the contraction subsets with the step
        # (sub - 1) & ..., and the blade constructors call no multiply
        path = Path(exceptional_mod.__file__).parent / "clifford.py"
        tree = ast.parse(path.read_text())
        funcs = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}

        def walks_subsets(fn):
            return any(
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.BitAnd)
                and isinstance(node.left, ast.BinOp)
                and isinstance(node.left.op, ast.Sub)
                and isinstance(node.left.right, ast.Constant)
                and node.left.right.value == 1
                for node in ast.walk(fn)
            )

        walkers = [name for name, fn in funcs.items() if walks_subsets(fn)]
        assert walkers == ["_wick"]
        for name in ("q_map", "grading_element", "h_operator"):
            called = {
                node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                for node in ast.walk(funcs[name])
                if isinstance(node, ast.Call)
                and isinstance(node.func, (ast.Name, ast.Attribute))
            }
            assert "multiply" not in called, name

    def test_grade_projections_build_no_blade(self):
        # the projections stay in Witt coordinates: no blade is expanded
        path = Path(exceptional_mod.__file__).parent / "clifford.py"
        tree = ast.parse(path.read_text())
        funcs = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        for name in ("grade_project", "grade_projections"):
            names = {
                node.id for node in ast.walk(funcs[name]) if isinstance(node, ast.Name)
            }
            assert "_blade_terms" not in names, name

    def test_src_holds_no_test_only_code(self):
        # every top-level function and class method in the package is
        # referenced outside its own definition by the package, the demos
        # or perfbench; an import is not a use, and a method counts only
        # attribute references (obj.name), so a function of the same name
        # does not keep it
        trees, defs = package_defs()

        def names(tree, method):
            for ref in ast.walk(tree):
                if isinstance(ref, ast.Name) and not method:
                    yield ref.id
                elif isinstance(ref, ast.Attribute):
                    yield ref.attr

        everywhere = {
            method: Counter(name for tree in trees.values() for name in names(tree, method))
            for method in (False, True)
        }
        unused = [
            qualified
            for qualified, name, node, method in defs
            if not (name.startswith("__") and name.endswith("__"))
            and everywhere[method][name] == Counter(names(node, method))[name]
        ]
        assert unused == []

    def test_src_options_are_set_outside_tests(self):
        # every defaulted parameter of a top-level function or class method
        # in the package is passed, by keyword or by position, by some call
        # in the package, the demos or perfbench.  A call by class name
        # counts for __init__; a call through a subscript of a module-level
        # dict of functions, such as _BUILDERS[...](field=...), counts for
        # the keywords it passes to each function in that dict
        trees, defs = package_defs()
        tables = {
            node.targets[0].id: {v.id for v in node.value.values}
            for tree in trees.values()
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Dict)
            and all(isinstance(v, ast.Name) for v in node.value.values)
        }
        passed = set()  # (callee name, parameter keyword or position)
        for tree in trees.values():
            for call in ast.walk(tree):
                if not isinstance(call, ast.Call):
                    continue
                func, keywords = call.func, {k.arg for k in call.keywords}
                if isinstance(func, ast.Subscript):
                    if isinstance(func.value, ast.Name):
                        for name in tables.get(func.value.id, ()):
                            passed.update((name, k) for k in keywords)
                    continue
                name = getattr(func, "id", getattr(func, "attr", None))
                passed.update((name, k) for k in keywords)
                for at, arg in enumerate(call.args):
                    if isinstance(arg, ast.Starred):
                        break
                    passed.add((name, at))

        unset = set()
        for qualified, name, node, method in defs:
            static = any(
                getattr(d, "id", None) == "staticmethod" for d in node.decorator_list
            )
            bound = method and not static  # self or cls comes unpassed
            if name == "__init__":
                name = qualified.split(".")[1]  # called by class name
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            options = [(at - bound, arg.arg) for at, arg in enumerate(positional)][first:]
            options += [
                (None, arg.arg)
                for arg, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None
            ]
            unset.update(
                (qualified, arg)
                for at, arg in options
                if (name, arg) not in passed and (name, at) not in passed
            )
        assert unset == {
            # the paper builds e8 on either half-spinor module; a test
            # builds it on S^-
            ("builders.build_e8", "half"),
            # e6's Jacobi line b = 48a stays public
            ("builders.build_e6", "spinor_coeffs"),
            # criterion 07 asks for 10^4 triples
            ("props.check_matrix_agreement", "samples"),
            # the entry point's test seam
            ("cli.main", "argv"),
        }

    def test_checks_take_no_option(self):
        # the antisymmetry check always sweeps the whole table, and the
        # props runner and bracket-relations check have fixed sizes
        for fn, params in (
            (verify_antisymmetry, ["L"]),
            (LieAlgebra._sweep, ["self"]),
            (props_mod.check_bracket_relations, ["n"]),
            (props_mod.run_suites, ["n"]),
            (props_mod._sample_spinor, ["config", "r"]),
        ):
            assert list(inspect.signature(fn).parameters) == params, fn


class TestFormRobustness:
    def test_doubled_norm_same_algebra_class(self):
        config = Config(5)
        base = solve_spinor_norm(config)
        doubled = BilinearForm(
            config,
            "plain",
            {k: v * Fraction(2) for k, v in base.entries.items()},
        )
        L = build_e6(form=doubled)
        assert verify_jacobi(L)
        assert spanning_check(L)
        assert root_decomposition(L).type_name == "E6"

    def test_doubled_norm_e7_constants(self):
        config = Config(6)
        base = solve_spinor_norm(config)
        doubled = BilinearForm(
            config,
            "plain",
            {k: v * Fraction(2) for k, v in base.entries.items()},
        )
        solved = builders_mod._solve_e7_constants(e7_one_one(form=doubled))
        assert solved == (Fraction(1), Fraction(1))

    def test_rejects_graded_form(self):
        from spinor_forge.norms import graded_norm

        config = Config(5)
        bad = graded_norm(solve_spinor_norm(config))
        with pytest.raises(ValueError):
            build_e6(form=bad)

    def test_rejects_mismatched_config(self):
        form5 = solve_spinor_norm(Config(5))
        with pytest.raises(ValueError):
            build_e8(form=form5)


class TestExport:
    def test_deterministic_bytes(self, e6):
        assert to_json(e6) == to_json(build_e6())

    def test_schema(self, e7):
        text = to_json(e7)
        assert text.endswith("\n")
        obj = json.loads(text)
        assert list(obj) == ["name", "field", "dim", "basis", "brackets"]
        assert obj["name"] == "e7"
        assert obj["field"] == "q"
        assert obj["dim"] == 133 == len(obj["basis"])
        prev = None
        for rec in obj["brackets"]:
            assert rec["i"] < rec["j"]
            assert rec["terms"]
            key = (rec["i"], rec["j"])
            assert prev is None or prev < key
            prev = key
            for k, s in rec["terms"]:
                assert 0 <= k < 133 and Fraction(s) != 0

    def test_known_entry(self, e6):
        obj = json.loads(to_json(e6))
        eps = obj["basis"].index("eps")
        vac = obj["basis"].index("S{}")
        rec = next(
            r for r in obj["brackets"] if r["i"] == eps and r["j"] == vac
        )
        assert rec["terms"] == [[vac, "1"]]

    def test_prime_field_tag(self):
        obj = json.loads(to_json(build_e6(field=PrimeField(7))))
        assert obj["field"] == "fp:7"
        for rec in obj["brackets"]:
            for _, s in rec["terms"]:
                assert s.endswith(" mod 7")
