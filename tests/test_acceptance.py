"""Acceptance gate: one test per criterion, at the stated budgets.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Every check is exact (no tolerances); the only numeric
bounds are the stated runtime budgets.
"""

import json
import random
import time
from math import comb
from pathlib import Path

import pytest

from spinor_forge.cli import main as cli_main
from spinor_forge.clifford import act
from spinor_forge.exceptional import (
    build_e6,
    build_e7,
    build_e8,
    killing_form,
    root_decomposition,
    spanning_check,
    to_json,
    verify_jacobi,
    with_flipped_sign,
)
from spinor_forge.field import PrimeField
from spinor_forge.fock import SpinorVec, parity
from spinor_forge.norms import b_eval, solve_spinor_norm
from spinor_forge.pairings import grade2_pairing
from spinor_forge.props import SUITES, check_matrix_agreement, run_suites

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


@pytest.fixture(scope="module")
def e6q():
    return build_e6()


@pytest.fixture(scope="module")
def e7q():
    return build_e7()


@pytest.fixture(scope="module")
def e8q():
    algebra = build_e8()
    algebra.materialize()
    return algebra


def passed(num: int, detail: str) -> None:
    print(f"criterion {num:02d}: PASS ({detail})")


def test_criterion_01_dimensions():
    budgets = []
    for builder, want in ((build_e8, 248), (build_e7, 133), (build_e6, 78)):
        start = time.perf_counter()
        algebra = builder()
        dim = algebra.dim
        elapsed = time.perf_counter() - start
        assert dim == want
        assert elapsed < 1.0, f"{want}-dim basis took {elapsed:.2f}s to enumerate"
        budgets.append(f"{want} in {elapsed:.2f}s")
    passed(1, "; ".join(budgets))


def test_criterion_02_jacobi_all_triples_both_fields(e6q, e7q, e8q):
    report8 = verify_jacobi(e8q)
    assert not report8.violations
    assert report8.triples_covered == comb(248, 3) == 2511496
    assert report8.seconds <= 60.0, f"e8 sweep took {report8.seconds:.1f}s"

    for algebra, dim in ((e7q, 133), (e6q, 78)):
        report = verify_jacobi(algebra)
        assert not report.violations
        assert report.triples_covered == comb(dim, 3)

    for builder, dim in ((build_e6, 78), (build_e7, 133), (build_e8, 248)):
        modular = builder(field=PrimeField(7))
        report = verify_jacobi(modular)
        assert not report.violations
        assert report.triples_covered == comb(dim, 3)
    passed(
        2,
        f"e8 {report8.triples_covered} triples in {report8.seconds:.1f}s "
        "single-threaded; e7/e6 full sweeps; all three rebuilt and swept over "
        "the 7-element field",
    )


def test_criterion_03_spanning_ranks(e6q, e7q, e8q):
    for algebra, want in ((e8q, 120), (e7q, 69), (e6q, 46)):
        report = spanning_check(algebra)
        assert report, f"rank {report.rank} != {report.expected}"
        assert (report.rank, report.expected) == (want, want)
    passed(3, "spinor brackets span the full degree-zero parts: 120/69/46")


def test_criterion_04_killing_rank(e6q, e7q, e8q):
    start = time.perf_counter()
    _, rank8 = killing_form(e8q)
    elapsed = time.perf_counter() - start
    assert rank8 == 248
    assert elapsed <= 300.0, f"248x248 exact rank took {elapsed:.1f}s"
    for algebra, want in ((e7q, 133), (e6q, 78)):
        _, rank = killing_form(algebra)
        assert rank == want
    passed(4, f"killing rank = dim for all three; 248x248 in {elapsed:.1f}s")


def test_criterion_05_root_identification(e6q, e7q, e8q):
    expected = {
        "E8": (e8q, 240, 8),
        "E7": (e7q, 126, 7),
        "E6": (e6q, 72, 6),
    }
    for type_name, (algebra, roots, rank) in expected.items():
        datum = root_decomposition(algebra)
        assert datum.type_name == type_name
        assert len(datum.roots) == roots
        assert datum.rank == rank
        assert len(datum.positive_roots) == roots // 2
        matrix = datum.cartan_matrix
        assert len(matrix) == rank and all(len(row) == rank for row in matrix)
        assert all(matrix[i][i] == 2 for i in range(rank))
    passed(5, "240/126/72 roots, ranks 8/7/6, Cartan matrix types E8/E7/E6")


def test_criterion_06_property_suites_all_n():
    want_checks = {fn.__name__ for fns in SUITES.values() for fn in fns}
    assert len(want_checks) == 14
    for n in range(1, 9):
        results = run_suites(n)
        failing = [r for r in results if not r]
        assert not failing, f"n={n}: {[(r.check, r.detail) for r in failing]}"
        assert len(results) == 14
        relations = next(r for r in results if r.check == "bracket-relations")
        assert "1000 seeded pairs" in relations.detail
        if n <= 3:
            assert "exhaustive" in relations.detail
    passed(6, "all 14 checks of the four suites pass exactly for n = 1..8")


def test_criterion_07_matrix_route_agreement():
    for n in range(1, 6):
        result = check_matrix_agreement(n)
        assert result, result.detail
        assert "exhaustive" in result.detail
    for n in (6, 8):
        result = check_matrix_agreement(n, samples=10_000)
        assert result, result.detail
        assert "10000 seeded" in result.detail
    passed(7, "exhaustive triples for n <= 5; 10^4 random triples at n = 6 and 8")


def test_criterion_08_spinor_triple_identity(e7q):
    config = e7q.config
    form = solve_spinor_norm(config)
    field = config.field
    two = field.from_int(2)
    evens = [m for m in range(config.size) if parity(m) == 0]
    basis = {m: SpinorVec.basis(config, m) for m in evens}
    pairing = {
        (m1, m2): grade2_pairing(form, basis[m1], basis[m2])
        for m1 in evens
        for m2 in evens
    }
    norm = {
        (m1, m2): b_eval(form, basis[m1], basis[m2])
        for m1 in evens
        for m2 in evens
    }
    checked = 0
    for m1 in evens:
        for m2 in evens:
            for m3 in evens:
                lhs = act(pairing[(m1, m2)], basis[m3]) - act(
                    pairing[(m1, m3)], basis[m2]
                )
                rhs = (
                    basis[m3].scale(-norm[(m1, m2)])
                    + basis[m2].scale(norm[(m1, m3)])
                    + basis[m1].scale(two * norm[(m2, m3)])
                )
                assert lhs == rhs, f"identity failed at triple {(m1, m2, m3)}"
                checked += 1
    assert checked == len(evens) ** 3 == 32768
    passed(8, f"triple identity verbatim on all {checked} even basis triples")


def test_criterion_09_mutation_sensitivity(e8q):
    stored = e8q.nonzero_brackets()
    assert len(stored) == 8088
    r = random.Random(20240814)
    detected = 0
    for _ in range(100):
        (i, j), terms = r.choice(stored)
        k, _ = r.choice(terms)
        mutant = with_flipped_sign(e8q, i, j, k)
        touching = set()
        for x in range(mutant.dim):
            if x != i:
                touching.add((min(i, x), max(i, x)))
            if x != j:
                touching.add((min(j, x), max(j, x)))
        report = verify_jacobi(mutant, pairs=sorted(touching))
        assert report.violations, f"flip ({i},{j})->{k} went undetected"
        detected += 1
    assert detected == 100
    passed(9, "100 random single-sign flips each produced a Jacobi violation")


def test_criterion_10_export_determinism(e6q, e7q, e8q, tmp_path):
    first, second = tmp_path / "one.json", tmp_path / "two.json"
    assert cli_main(["export", "--algebra", "e6", "--out", str(first)]) == 0
    assert cli_main(["export", "--algebra", "e6", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    for algebra, name in ((e6q, "e6"), (e7q, "e7"), (e8q, "e8")):
        golden = (GOLDEN_DIR / f"{name}.json").read_bytes()
        assert to_json(algebra).encode("utf-8") == golden
        parsed = json.loads(golden)
        assert parsed["dim"] == algebra.dim
    passed(10, "re-export byte-identical; live tables match the golden files")
