"""The property-suite battery: runner plumbing, regimes, and the checks
actually firing on corrupted expectations."""

import ast
from pathlib import Path

import pytest

from spinor_forge import fock, props
from spinor_forge.clifford import CliffordElem
from spinor_forge.field import PrimeField, Rationals
from spinor_forge.fock import Config
from spinor_forge.props import (
    CheckResult,
    GRADE2_TABLE,
    GRADED_NORM_TABLE,
    GRADED_PAIRING_TABLE,
    PLAIN_NORM_TABLE,
    SUITES,
    TOP_TABLE,
    check_bracket_relations,
    check_car_relations,
    check_ck_invariance,
    check_eps_duality,
    check_grade2_symmetry,
    check_graded_pairing_symmetry,
    check_graded_symmetry,
    check_h_eigenvalues,
    check_matrix_agreement,
    check_norm_dimension,
    check_pi_completeness,
    check_plain_symmetry,
    check_q_isometry,
    check_top_symmetry,
    run_suites,
    suite_names,
)

from . import helpers
from .helpers import bracket_relations_by_slots, car_relations_by_spinors


class TestCheckResult:
    def test_bool_and_repr(self):
        good = CheckResult("sample", 3, True, "fine")
        bad = CheckResult("sample", 3, False, "broken")
        assert good and not bad
        assert "ok" in repr(good)
        assert "FAIL" in repr(bad)

    def test_to_dict(self):
        out = CheckResult("sample", 2, True, "fine").to_dict()
        assert out == {"check": "sample", "n": 2, "ok": True, "detail": "fine"}


class TestTables:
    def test_shapes(self):
        for table in (
            PLAIN_NORM_TABLE,
            GRADED_NORM_TABLE,
            GRADE2_TABLE,
            TOP_TABLE,
            GRADED_PAIRING_TABLE,
        ):
            assert sorted(table) == [0, 1, 2, 3]
            for sym, par in table.values():
                assert sym in (1, -1) and par in (0, 1)

    def test_frozen_rows(self):
        assert PLAIN_NORM_TABLE[0] == (1, 0)
        assert PLAIN_NORM_TABLE[2] == (-1, 0)
        assert GRADED_NORM_TABLE[1] == (-1, 1)
        assert GRADE2_TABLE[2] == (1, 0)
        assert TOP_TABLE[3] == (1, 1)
        assert GRADED_PAIRING_TABLE[0] == (-1, 0)


def run_named(n, names):
    """What `spinor-forge props --suite` runs: the checks of the named
    suites, by suite_names and SUITES."""
    return [fn(n) for name in suite_names(n, names) for fn in SUITES[name]]


class TestRunner:
    def test_all_suites_pass_small_n(self):
        results = run_suites(2)
        assert len(results) == sum(len(fns) for fns in SUITES.values())
        assert all(results)
        ids = [r.check for r in results]
        assert len(set(ids)) == len(ids)

    def test_suite_filter(self):
        results = run_named(3, ["norms"])
        assert [r.check for r in results] == [
            "norm-dimension",
            "plain-symmetry",
            "graded-symmetry",
            "ck-invariance",
        ]
        assert all(results)

    def test_filter_order_follows_request(self):
        results = run_named(2, ["pairings", "fock"])
        assert results[0].check == "grade2-symmetry"
        assert results[-1].check == "h-eigenvalues"

    def test_repeated_suite_runs_once(self):
        assert suite_names(1, ["fock", "norms", "fock"]) == ("fock", "norms")
        results = run_named(1, ["fock", "fock"])
        assert [r.check for r in results] == ["car-relations", "h-eigenvalues"]

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            suite_names(2, ["norms", "spectra"])

    @pytest.mark.parametrize("n", [0, 9, -1])
    def test_n_out_of_range(self, n):
        with pytest.raises(ValueError, match="1 <= n <= 8"):
            run_suites(n)

    @pytest.mark.parametrize("n", [True, False, 2.0, "3"])
    def test_n_not_an_int(self, n):
        # True == 1 would run every check at n = 1 and report n: True
        with pytest.raises(ValueError, match="1 <= n <= 8"):
            suite_names(n)
        with pytest.raises(ValueError, match="1 <= n <= 8"):
            run_suites(n)


class TestFockChecks:
    @pytest.mark.parametrize("n", [1, 4])
    def test_car_relations(self, n):
        out = check_car_relations(n)
        assert out and out.n == n
        assert "operator identities" in out.detail

    @pytest.mark.parametrize("n", [2, 5])
    def test_h_eigenvalues(self, n):
        out = check_h_eigenvalues(n)
        assert out
        assert "[H, e_a] = e_a" in out.detail


def _flip_creation_onto_bit_2(hit, emask, imask, mask):
    return (-hit[0], hit[1]) if emask and mask & 2 else hit


def _kill_annihilation_from_3(hit, emask, imask, mask):
    return None if imask and mask == 3 else hit


def _land_creation_off_by_one(hit, emask, imask, mask):
    return (hit[0], hit[1] ^ 1) if emask & 4 else hit


class TestCarRelationsOnMoves:
    """check_car_relations composes signed mask moves; the SpinorVec route
    (create/annihilate on basis vectors, summed as values) is its oracle."""

    @pytest.mark.parametrize("p", [None, 7], ids=["q", "fp7"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_agrees_with_spinor_route(self, monkeypatch, n, p):
        config = Config(n, PrimeField(p) if p else Rationals())
        monkeypatch.setattr(props, "_config", lambda n: config)
        out = check_car_relations(n)
        assert (out.ok, out.detail) == car_relations_by_spinors(config)

    @pytest.mark.parametrize(
        "fault",
        [
            _flip_creation_onto_bit_2,
            _kill_annihilation_from_3,
            _land_creation_off_by_one,
        ],
    )
    @pytest.mark.parametrize("n", [3, 4])
    def test_same_first_failure_on_faulty_moves(self, monkeypatch, n, fault):
        # both routes take every move from apply_monomial: create and
        # annihilate through fock's name, the check through its own
        real = fock.apply_monomial

        def faulty(emask, imask, mask):
            hit = real(emask, imask, mask)
            return hit and fault(hit, emask, imask, mask)

        monkeypatch.setattr(fock, "apply_monomial", faulty)
        monkeypatch.setattr(props, "apply_monomial", faulty)
        out = check_car_relations(n)
        assert not out.ok
        assert (out.ok, out.detail) == car_relations_by_spinors(Config(n))

    @pytest.mark.parametrize(
        "flipped, detail",
        [
            (0, "identity failed at basis mask 0, a=1, b=1"),
            (2, "identity failed at basis mask 0, a=1, b=2"),
            (4, "identity failed at basis mask 0, a=1, b=3"),
            (6, "identity failed at basis mask 2, a=1, b=3"),
        ],
        ids=["mask0", "mask2", "mask4", "mask6"],
    )
    def test_one_flipped_move_is_found(self, monkeypatch, flipped, detail):
        # e_1's move on one mask comes back with the wrong sign: the move
        # lists carry every (generator, mask) move, so the check meets it at
        # the first case whose two-move paths pass through it
        real = props.apply_monomial

        def faulty(emask, imask, mask):
            hit = real(emask, imask, mask)
            if (emask, imask, mask) == (1, 0, flipped):
                return -hit[0], hit[1]
            return hit

        monkeypatch.setattr(props, "apply_monomial", faulty)
        out = check_car_relations(3)
        assert (out.ok, out.detail) == (False, detail)
        monkeypatch.setattr(fock, "apply_monomial", faulty)
        assert car_relations_by_spinors(Config(3)) == (False, detail)

    def test_builds_no_spinor(self):
        # the check stays on (sign, mask) moves: no ladder operator, word
        # loop or SpinorVec constructor inside it
        tree = ast.parse(Path(props.__file__).read_text())
        body = next(
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "check_car_relations"
        )
        called = set()
        for node in ast.walk(body):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    called.add(func.id)
                elif isinstance(func, ast.Attribute):
                    called.add(func.attr)
                    if isinstance(func.value, ast.Name):
                        called.add(func.value.id)
        assert "apply_monomial" in called
        assert not called & {"create", "annihilate", "_apply_words", "SpinorVec"}


class TestBracketRelationsOneSum:
    """check_bracket_relations sums both relations for every slot of a
    pair into one accumulator keyed (relation, slot, monomial); the
    per-slot route, one exact zero test per relation and slot, is its
    oracle."""

    @pytest.mark.parametrize("p", [None, 7], ids=["q", "fp7"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_agrees_with_per_slot_route(self, monkeypatch, n, p):
        config = Config(n, PrimeField(p) if p else Rationals())
        monkeypatch.setattr(props, "_config", lambda n: config)
        out = check_bracket_relations(n)
        assert (out.ok, out.detail) == bracket_relations_by_slots(config)

    @pytest.mark.parametrize("n", [3, 4])
    def test_same_first_failure_on_faulty_pairing(self, monkeypatch, n):
        # both routes take L from grade2_pairing, each through its own name
        real = props.grade2_pairing

        def faulty(form, phi, psi):
            out = real(form, phi, psi)
            return _negate_top_term(out) if max(phi._num) & 1 else out

        monkeypatch.setattr(props, "grade2_pairing", faulty)
        monkeypatch.setattr(helpers, "grade2_pairing", faulty)
        out = check_bracket_relations(n)
        assert not out.ok
        assert (out.ok, out.detail) == bracket_relations_by_slots(Config(n))


class TestCliffordChecks:
    def test_q_isometry_exhaustive_regime(self):
        out = check_q_isometry(2)
        assert out and "exhaustive over all" in out.detail

    def test_q_isometry_sampled_regime(self):
        out = check_q_isometry(6)
        assert out and "stratified" in out.detail

    @pytest.mark.parametrize("n", [3, 5])
    def test_pi_completeness(self, n):
        out = check_pi_completeness(n)
        assert out
        regime = "exhaustive" if n <= 3 else "seeded"
        assert regime in out.detail

    @pytest.mark.parametrize("n", [2, 6])
    def test_eps_duality(self, n):
        assert check_eps_duality(n)


class TestNormChecks:
    @pytest.mark.parametrize("n", [1, 6])
    def test_norm_dimension(self, n):
        out = check_norm_dimension(n)
        assert out and "dimension 1" in out.detail

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_symmetry_checks(self, n):
        assert check_plain_symmetry(n)
        assert check_graded_symmetry(n)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_ck_invariance(self, n):
        out = check_ck_invariance(n)
        assert out
        if n <= 3:
            assert "direct, exhaustive" in out.detail
        else:
            assert "transpose characterization" in out.detail


class TestPairingChecks:
    @pytest.mark.parametrize("n", [4, 7])
    def test_grade2_symmetry(self, n):
        assert check_grade2_symmetry(n)

    @pytest.mark.parametrize("n", [3, 5])
    def test_top_symmetry(self, n):
        out = check_top_symmetry(n)
        assert out and "support pairs" in out.detail

    @pytest.mark.parametrize("n", [3, 5])
    def test_graded_pairing_symmetry(self, n):
        assert check_graded_pairing_symmetry(n)

    def test_bracket_relations_exhaustive_and_random(self):
        out = check_bracket_relations(2)
        assert out and "exhaustive" in out.detail

    def test_bracket_relations_large_n(self):
        assert check_bracket_relations(6)

    def test_matrix_agreement_exhaustive(self):
        out = check_matrix_agreement(2)
        assert out and "exhaustive" in out.detail

    def test_matrix_agreement_sampled(self):
        out = check_matrix_agreement(6, samples=120)
        assert out and "120 seeded" in out.detail

    @pytest.mark.parametrize(
        "run",
        [
            lambda: check_matrix_agreement(4, samples=-5),
            lambda: check_matrix_agreement(6, samples=0),
            lambda: check_matrix_agreement(6, samples=True),
        ],
        ids=["agreement-negative", "agreement-zero", "agreement-bool"],
    )
    def test_empty_sample_rejected_before_work(self, monkeypatch, run):
        def refuse(config):
            raise AssertionError("the norm was solved")

        monkeypatch.setattr(props, "solve_spinor_norm", refuse)
        with pytest.raises(ValueError, match=">= 1"):
            run()


class TestChecksAreLive:
    """Corrupting an expected table row must flip the verdict; the
    checks compare against the tables rather than restating them."""

    def test_plain_symmetry_detects_wrong_row(self, monkeypatch):
        monkeypatch.setitem(props.PLAIN_NORM_TABLE, 2, (1, 0))
        out = check_plain_symmetry(2)
        assert not out and "expected" in out.detail

    def test_grade2_detects_wrong_sign(self, monkeypatch):
        monkeypatch.setitem(props.GRADE2_TABLE, 2, (-1, 0))
        assert not check_grade2_symmetry(2)

    def test_grade2_detects_wrong_parity(self, monkeypatch):
        monkeypatch.setitem(props.GRADE2_TABLE, 3, (1, 0))
        assert not check_grade2_symmetry(3)

    def test_top_detects_wrong_sign(self, monkeypatch):
        monkeypatch.setitem(props.TOP_TABLE, 1, (1, 1))
        assert not check_top_symmetry(1)

    def test_graded_pairing_detects_wrong_sign(self, monkeypatch):
        monkeypatch.setitem(props.GRADED_PAIRING_TABLE, 2, (-1, 0))
        assert not check_graded_pairing_symmetry(2)

    def test_graded_norm_detects_wrong_row(self, monkeypatch):
        monkeypatch.setitem(props.GRADED_NORM_TABLE, 3, (-1, 1))
        assert not check_graded_symmetry(3)


def _negate_top_term(x):
    """x with the coefficient of its largest key negated (x if x is zero).

    The largest key is never the scalar monomial of a nonzero grade-2
    element, so the fault changes every commutator it enters.
    """
    if not x._num:
        return x
    num = dict(x._num)
    key = max(num)
    num[key] = -num[key]
    return type(x)._make(x.config, num, x._den)


def _negate_top_row(row):
    """A numerator row with the value at its largest key negated."""
    key = max(row)
    return {**row, key: -row[key]}


class TestPairingChecksCatchFaults:
    """A fault injected into one pairing route must flip the verdict of
    the check that compares it with another."""

    def test_bracket_relations_catch_grade2_pairing(self, monkeypatch):
        real = props.grade2_pairing

        def faulty(form, phi, psi):
            out = real(form, phi, psi)
            return _negate_top_term(out) if max(phi._num) & 1 else out

        monkeypatch.setattr(props, "grade2_pairing", faulty)
        out = check_bracket_relations(3)
        assert not out and "relation failed" in out.detail

    def test_bracket_relations_catch_orbit_map_adjoint(self, monkeypatch):
        # the orbit-map adjoint rows the check sums for every slot
        real = props._slot_adjoints

        def faulty(form, phi, psi):
            rows, den = real(form, phi, psi)
            if max(phi._num, default=0) & 1:
                rows = {slot: _negate_top_row(row) for slot, row in rows.items()}
            return rows, den

        monkeypatch.setattr(props, "_slot_adjoints", faulty)
        out = check_bracket_relations(3)
        assert not out and "relation failed" in out.detail

    @pytest.mark.parametrize("fault", ["dropped", "doubled", "moved-to-slot-0"])
    def test_bracket_relations_catch_last_slot_of_one_relation(
        self, monkeypatch, fault
    ):
        # only slot 2n - 1 of one relation is wrong: its commutator row
        # (relation 0) dropped, its vector (relation 1) doubled, or its
        # commutator row added to slot 0's instead, which a sum over the
        # slots would not see
        real_comms, real_vec = props.vector_commutators, props.orthonormal_vector

        def comms(x):
            rows = real_comms(x)
            last = rows.pop(2 * x.config.n - 1, {})
            if fault == "moved-to-slot-0":
                row = rows.setdefault(0, {})
                for mono, c in last.items():
                    row[mono] = row.get(mono, 0) + c
            return rows

        def vec(config, slot):
            out = real_vec(config, slot)
            return out + out if slot == 2 * config.n - 1 else out

        if fault == "doubled":
            monkeypatch.setattr(props, "orthonormal_vector", vec)
        else:
            monkeypatch.setattr(props, "vector_commutators", comms)
        out = check_bracket_relations(3)
        assert not out and "relation failed" in out.detail

    def test_matrix_agreement_catches_move_sign(self, monkeypatch):
        # every move of the four-sum oracle taken with sign +1
        from spinor_forge import pairings

        monkeypatch.setattr(pairings, "inversion_parity", lambda low, high: 0)
        out = check_matrix_agreement(4)
        assert not out and "routes disagree" in out.detail

    def test_matrix_agreement_catches_negated_move(self, monkeypatch):
        # every word of the four-sum taken with its coefficients negated
        from spinor_forge import pairings

        real = pairings._four_sum_words

        def faulty(config):
            return tuple(
                (tuple((mono, -c) for mono, c in word), target, weight)
                for word, target, weight in real(config)
            )

        monkeypatch.setattr(pairings, "_four_sum_words", faulty)
        assert not check_matrix_agreement(4)



def _kill_move(emask, imask, mask):
    return None


def _zero_rows(config, xs, ys):
    ys = list(ys)
    return ([config.field.zero()] * len(ys) for _ in xs)


def _scalar_of_first_mask(form, psi1, psi2):
    return CliffordElem.monomial(form.config, max(psi1._num), 0)


# (check, n, props name patched, fault, the detail of the first failing case)
FAULTS = [
    (
        check_car_relations,
        3,
        "apply_monomial",
        _kill_move,
        "identity failed at basis mask 0, a=1, b=1",
    ),
    (
        check_h_eigenvalues,
        3,
        "h_operator",
        CliffordElem.zero,
        "wrong eigenvalue on basis mask 0",
    ),
    (check_q_isometry, 3, "trace_rows", _zero_rows, "failed at pair () x ()"),
    (check_q_isometry, 5, "trace_rows", _zero_rows, "failed at pair () x ()"),
    (
        check_pi_completeness,
        3,
        "grade_projections",
        lambda x: [],
        "projections do not sum back at monomial (0, 0)",
    ),
    (
        check_pi_completeness,
        5,
        "grade_projections",
        lambda x: [],
        "projections do not sum back at sample 0",
    ),
    (
        check_eps_duality,
        3,
        "multiply",
        lambda x, y: y,
        "failed at monomial (0, 0), grade 0",
    ),
    (
        check_eps_duality,
        5,
        "multiply",
        lambda x, y: y,
        "failed at monomial (7, 18), grade 3",
    ),
    (
        check_norm_dimension,
        3,
        "norm_solution_dimension",
        lambda config: 2,
        "solution space has dimension 2, not 1",
    ),
    (
        check_ck_invariance,
        3,
        "b_eval",
        lambda form, phi, psi: 1,
        "direct identity failed at blade (0, 1), pair (0, 0)",
    ),
    (
        check_ck_invariance,
        5,
        "transpose",
        lambda x: x,
        "transpose(c) != -c at blade (0, 1)",
    ),
    (
        check_top_symmetry,
        4,
        "top_grade_coefficient",
        lambda form, phi, psi: 0,
        "vanishes on its support at pair (0, 15)",
    ),
    (
        check_graded_pairing_symmetry,
        3,
        "graded_pairing",
        _scalar_of_first_mask,
        "failed at basis pair (0, 0)",
    ),
    (
        check_graded_pairing_symmetry,
        5,
        "graded_pairing",
        _scalar_of_first_mask,
        "failed at basis pair (22, 1)",
    ),
    (
        check_bracket_relations,
        3,
        "b_eval",
        lambda form, phi, psi: 0,
        "relation failed at basis pair (0, 7)",
    ),
    (
        check_bracket_relations,
        5,
        "b_eval",
        lambda form, phi, psi: 0,
        "relation failed at random basis pair 39",
    ),
    (
        check_bracket_relations,
        3,
        "vector_commutators",
        lambda x: {},
        "relation failed at basis pair (0, 1)",
    ),
    (
        check_bracket_relations,
        5,
        "vector_commutators",
        lambda x: {},
        "relation failed at random basis pair 1",
    ),
]


@pytest.mark.parametrize(
    "check, n, name, fault, detail",
    FAULTS,
    ids=[f"{check.__name__[6:]}-n{n}-{name}" for check, n, name, *_ in FAULTS],
)
def test_fault_reports_first_failing_case(monkeypatch, check, n, name, fault, detail):
    """A faulty kernel fails the check, whose detail names the first
    failing case."""
    monkeypatch.setattr(props, name, fault)
    out = check(n)
    assert out.ok is False
    assert out.detail == detail
