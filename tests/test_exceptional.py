"""Tests for the exceptional algebra constructions and their verifiers."""

import json
from collections import Counter
from fractions import Fraction

import pytest

from spinor_forge.clifford import act, commutator
from spinor_forge.exceptional import (
    DecompositionError,
    JacobiReport,
    LieAlgebra,
    build_e6,
    build_e7,
    build_e8,
    c2_coords,
    c2_elem,
    c2_labels,
    killing_form,
    label_str,
    root_decomposition,
    solve_e7_constants,
    spanning_check,
    sweep_e6_coefficients,
    to_json,
    verify_antisymmetry,
    verify_jacobi,
    with_flipped_sign,
)
from spinor_forge.field import PrimeField, Rationals
from spinor_forge.fock import Config, SpinorVec, parity
from spinor_forge.norms import BilinearForm, b_eval, solve_spinor_norm
from spinor_forge.pairings import grade2_pairing, grade2_pairing_projected

from .helpers import rand_spinor, rng


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
        from spinor_forge.clifford import CliffordElem

        bad = CliffordElem.monomial(config, 0b11, 0b01)
        with pytest.raises(DecompositionError):
            c2_coords(bad)

    def test_rejects_stray_constant(self):
        config = Config(2)
        from spinor_forge.clifford import CliffordElem

        with pytest.raises(DecompositionError):
            c2_coords(CliffordElem.one(config))


class TestLieAlgebraCore:
    def test_bracket_orders(self, e6):
        fwd = e6.bracket(0, 50)
        rev = e6.bracket(50, 0)
        assert fwd == tuple((k, -c) for k, c in rev)
        assert e6.bracket(5, 5) == ()

    def test_table_stores_lower_triangle(self, e6):
        e6.bracket(60, 2)
        assert (2, 60) in e6._table and (60, 2) not in e6._table

    def test_duplicate_labels_rejected(self):
        config = Config(1)
        with pytest.raises(ValueError):
            LieAlgebra("dup", config, [("s", 0), ("s", 0)], lambda a, b: {})

    def test_repr(self, e6):
        assert "e6" in repr(e6) and "78" in repr(e6)


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

    def test_antisymmetry_sampled(self, e8):
        r = rng(17)
        pairs = [(i, i) for i in r.sample(range(248), 10)]
        pairs += [
            tuple(sorted(r.sample(range(248), 2))) for _ in range(120)
        ]
        assert verify_antisymmetry(e8, pairs) == []


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
        c1, c2 = solve_e7_constants(field=field)
        assert c1 == field.one() and c2 == field.one()

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

    def test_antisymmetry_sampled(self, e7):
        r = rng(29)
        pairs = [tuple(sorted(r.sample(range(133), 2))) for _ in range(120)]
        assert verify_antisymmetry(e7, pairs) == []


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


class TestMutations:
    def test_flip_detected_by_touching_pairs(self, e8):
        nonzero = [(ij, t) for ij, t in sorted(e8._table.items()) if t]
        (i, j), terms = nonzero[0]
        clone = with_flipped_sign(e8, i, j, terms[0][0])
        rep = verify_jacobi(clone, pairs=pairs_touching(e8, i, j))
        assert not rep
        assert rep.violations

    def test_original_untouched(self, e8):
        nonzero = [(ij, t) for ij, t in sorted(e8._table.items()) if t]
        (i, j), terms = nonzero[3]
        before = e8.bracket(i, j)
        with_flipped_sign(e8, i, j, terms[0][0])
        assert e8.bracket(i, j) == before

    def test_flip_errors(self, e8):
        with pytest.raises(ValueError):
            with_flipped_sign(e8, 4, 4, 0)
        nonzero = [(ij, t) for ij, t in sorted(e8._table.items()) if t]
        (i, j), terms = nonzero[0]
        missing = next(k for k in range(e8.dim) if k not in dict(terms))
        with pytest.raises(ValueError):
            with_flipped_sign(e8, i, j, missing)

    def test_flip_order_normalized(self, e8):
        nonzero = [(ij, t) for ij, t in sorted(e8._table.items()) if t]
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
        (i, j), terms = next(
            (ij, t) for ij, t in sorted(L._table.items()) if t
        )
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
        }
        assert d["ok"] is True and d["violations"] == []


def oracle_violations(L, pairs):
    """Pairs (i, j) with a k where the Jacobiator of (b_i, b_j, b_k) is
    nonzero, from L.bracket alone (no ad matrices, no integer lifts)."""
    zero = L.config.field.zero()

    def bracket_with(x, k):
        # [x, b_k] for x = {m: coefficient}
        out = {}
        for m, c in x.items():
            for t, d in L.bracket(m, k):
                out[t] = out.get(t, zero) + c * d
        return out

    bad = []
    for i, j in pairs:
        for k in range(L.dim):
            # [[b_i, b_j], b_k] - [b_i, [b_j, b_k]] + [b_j, [b_i, b_k]]
            resid = bracket_with(dict(L.bracket(i, j)), k)
            for x, y, sign in ((j, i, 1), (i, j, -1)):
                for t, c in bracket_with(dict(L.bracket(x, k)), y).items():
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
        # e7 has 8778 pairs, so the full sweep spans several batches.  A
        # flip at (i, j) can only break pairs touching i or j, or pairs
        # whose bracket has a b_i or b_j term; the oracle checks exactly
        # those.
        from spinor_forge import exceptional

        if batch is not None:
            monkeypatch.setattr(exceptional, "_BATCH_PAIRS", batch)
        L = build_e7(field=PrimeField(7))
        ((i, j, mutant),) = seeded_flips(L, 11, 1)
        full = verify_jacobi(mutant)
        assert full.pairs_checked > exceptional._BATCH_PAIRS
        candidates = set(pairs_touching(L, i, j))
        for (a, b), terms in L.nonzero_brackets():
            if {i, j} & {k for k, _ in terms}:
                candidates.add((a, b))
        want = oracle_violations(mutant, sorted(candidates))
        assert list(full.violations) == want
        assert any(v not in set(pairs_touching(L, i, j)) for v in want)
        subset = verify_jacobi(mutant, pairs=pairs_touching(L, i, j))
        assert set(subset.violations) == set(want) & set(pairs_touching(L, i, j))


def wrapped_e6(base, broken=None):
    """e6's bracket function behind a call counter, optionally broken on
    one ordered label pair (its result gains one extra term)."""
    calls = Counter()
    extra = base.basis[0]

    def fn(la, lb):
        calls[(la, lb)] += 1
        out = base.raw_bracket(la, lb)
        if (la, lb) == broken:
            out[extra] = out.get(extra, 0) + 1
        return out

    return LieAlgebra("e6~wrapped", base.config, base.basis, fn), calls


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
        assert verify_antisymmetry(L, [(60, 2)]) == []
        assert L.bracket(2, 60) == e6.bracket(2, 60)
        assert calls[(L.basis[2], L.basis[60])] == 1

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
        pairs = [(i, j), (j, i), (3, 71), (5, 5)]
        assert verify_antisymmetry(L, pairs) == [(i, j), (j, i)]
        if not materialize_first:
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
        assert verify_antisymmetry(clone, [(i, j), (j, i)]) == []
        assert clone.bracket(i, j) == flipped != e6.bracket(i, j)

    def test_remember_rejects_bad_pairs(self, e6):
        with pytest.raises(ValueError):
            e6.remember(5, 5, {})
        with pytest.raises(ValueError):
            e6.remember(9, 2, {})


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

    def test_f7_rank_matches_dense_elimination(self):
        from spinor_forge.linalg import echelon_rank

        field = PrimeField(7)
        L = build_e6(field=field)
        mat, rank = killing_form(L)
        assert rank == echelon_rank(mat, field)

    def test_zero_diagonal_on_nilpotents(self, e6):
        # kappa(e1e2, e1e2) = 0: ad of a square-zero partial creation
        mat, _ = killing_form(e6)
        i = e6.index[("ee", 1, 2)]
        assert mat[i][i] == 0

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
        one = config.field.one()

        def fn(la, lb):
            if la[0] == "s" and lb[0] == "s":
                return {("s", 0): one}
            return {}

        L = LieAlgebra("leaky", config, [("ei", 1, 1), ("s", 0), ("s", 1)], fn)
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

    def test_rejects_prime_field(self):
        with pytest.raises(ValueError):
            root_decomposition(build_e6(field=PrimeField(7)))

    def test_rejects_non_eigenvector(self):
        config = Config(1)
        one = config.field.one()

        def fn(la, lb):
            if la[0] == "ei" and lb[0] == "s":
                return {("s", 0): one, ("s", 1): one}
            if la[0] == "s" and lb[0] == "ei":
                return {("s", 0): -one, ("s", 1): -one}
            return {}

        L = LieAlgebra("bad", config, [("ei", 1, 1), ("s", 0), ("s", 1)], fn)
        with pytest.raises(ValueError):
            root_decomposition(L)

    def test_rejects_zero_weight_outside_cartan(self):
        config = Config(1)
        L = LieAlgebra(
            "flat", config, [("ei", 1, 1), ("s", 0)], lambda a, b: {}
        )
        with pytest.raises(ValueError):
            root_decomposition(L)


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
        assert solve_e7_constants(form=doubled) == (Fraction(1), Fraction(1))

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
