"""Tests for the exact linear algebra helpers."""

import ast
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinor_forge.builders as builders_mod
import spinor_forge.exceptional as exceptional_mod
import spinor_forge.linalg as linalg_mod
from spinor_forge.builders import build_e6
from spinor_forge.field import PrimeField, Rationals
from spinor_forge.linalg import IncrementalRank

from .helpers import dense_rank

Q = Rationals()
F7 = PrimeField(7)


def frac_rows(data):
    return [[Fraction(x) for x in row] for row in data]


def f7_rows(data):
    return [[F7.from_int(x) for x in row] for row in data]


def rank(rows, field):
    """The rank of a dense matrix, its rows added to one IncrementalRank."""
    acc = IncrementalRank(field)
    for row in rows:
        acc.add({c: x for c, x in enumerate(row) if x})
    return acc.rank


class TestEchelonRank:
    """Ranks of dense matrices through the reducer, against dense_rank."""

    @staticmethod
    def check(rows, field, want):
        assert rank(rows, field) == dense_rank(rows, field) == want

    def test_identity(self):
        self.check(frac_rows([[1, 0], [0, 1]]), Q, 2)

    def test_zero(self):
        self.check(frac_rows([[0, 0], [0, 0]]), Q, 0)
        self.check([], Q, 0)

    def test_dependent_rows(self):
        self.check(frac_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]]), Q, 2)

    def test_rank_depends_on_field(self):
        # second column is divisible by 7, so mod 7 the rank drops
        data = [[1, 7], [3, 14]]
        self.check(frac_rows(data), Q, 2)
        self.check(f7_rows(data), F7, 1)

    def test_wide_and_tall(self):
        self.check(frac_rows([[1, 2, 3, 4]]), Q, 1)
        self.check(frac_rows([[1], [2], [5]]), Q, 1)


class TestIncrementalRank:
    def test_matches_dense_rank(self):
        r = random.Random(11)
        rows = [[Fraction(r.randint(-3, 3)) for _ in range(6)] for _ in range(8)]
        acc = IncrementalRank(Q)
        for row in rows:
            acc.add({i: x for i, x in enumerate(row) if x})
        assert acc.rank == dense_rank(rows, Q)

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
        assert acc.rank == dense_rank(rows, Q)
        # the same rows as ints, as killing_form and spanning_check add them
        assert rank(data, Q) == acc.rank


class TestRankModP:
    """Ranks over F_p, from the same elimination as every other field."""

    def test_small_known(self):
        assert rank(f7_rows([[1, 2], [2, 4]]), F7) == 1
        assert rank(f7_rows([[1, 2], [2, 5]]), F7) == 2

    def test_reduction_changes_rank(self):
        # full rank over Q but rank 1 mod p
        assert rank(f7_rows([[1, 7], [3, 14]]), F7) == 1
        p = (1 << 31) - 1
        field = PrimeField(p)
        rows = [[field.from_int(x) for x in row] for row in [[p, 1], [0, 1]]]
        assert rank(rows, field) == dense_rank(rows, field) == 1

    def test_matches_field_elimination(self):
        r = random.Random(3)
        for p in (7, 11):
            field = PrimeField(p)
            for _ in range(10):
                data = [[r.randint(-20, 20) for _ in range(6)] for _ in range(6)]
                rows = [[field.from_int(x) for x in row] for row in data]
                assert rank(rows, field) == dense_rank(rows, field)
                # int rows reduced mod p give the same rank
                assert rank([[x % p for x in row] for row in data], field) == dense_rank(
                    rows, field
                )

    def test_empty(self):
        assert rank([], F7) == 0


def parsed(module):
    return ast.parse(Path(module.__file__).read_text())


class TestOneElimination:
    """linalg holds one exact elimination, and the verifiers rank by it."""

    def test_linalg_imports_no_numpy(self):
        imported = set()
        for node in ast.walk(parsed(linalg_mod)):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").split(".")[0])
        assert "numpy" not in imported

    def test_no_second_elimination_in_src(self):
        gone = {"rank_mod_p", "_reduce", "echelon_rank", "nullspace", "_normalize_pair",
                "inverse", "reduced"}
        for path in sorted(Path(linalg_mod.__file__).parent.glob("*.py")):
            names = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            assert not names & gone, path.name

    def test_verifiers_take_one_rank_route(self):
        # every call that could rank, reduce or solve a matrix, numpy's
        # linalg included, must be the reducer; root_decomposition reads
        # its coroots off the table and makes no such call at all
        route = re.compile(r"rank|reduc|echelon|elimin|nullspace|inverse|solve|linalg", re.I)
        funcs = {
            node.name: node
            for node in ast.walk(parsed(exceptional_mod))
            if isinstance(node, ast.FunctionDef)
        }
        for name, want in (
            ("killing_form", {"IncrementalRank"}),
            ("spanning_check", {"IncrementalRank"}),
            ("root_decomposition", set()),
        ):
            routes = set()
            for node in ast.walk(funcs[name]):
                if isinstance(node, ast.Call):
                    for sub in ast.walk(node.func):
                        word = getattr(sub, "id", None) or getattr(sub, "attr", None)
                        if word and route.search(word):
                            routes.add(word)
            assert routes == want, (name, routes)

    def test_structure_constants_reach_the_reducer_as_ints(self, monkeypatch):
        # linalg keeps the reducer alone; the builders solve the e7
        # constants on int numerators, and killing_form ranks the int Gram
        linalg_defs = set()
        for node in parsed(linalg_mod).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                linalg_defs.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                linalg_defs.update(t.id for t in targets if isinstance(t, ast.Name))
        public = {name for name in linalg_defs if not name.startswith("_")}
        assert public == {"IncrementalRank"}

        scalar_calls = {"bracket", "from_fraction", "from_int", "zero", "one"}
        for node in ast.walk(parsed(builders_mod)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
                modules += [alias.name for alias in node.names]
                assert not any("linalg" in m for m in modules), ast.dump(node)
            if isinstance(node, ast.Call):
                func = node.func
                word = getattr(func, "attr", None) or getattr(func, "id", None)
                assert word not in scalar_calls, (word, node.lineno)

        (killing,) = [
            node
            for node in parsed(exceptional_mod).body
            if isinstance(node, ast.FunctionDef) and node.name == "killing_form"
        ]
        words = {
            getattr(sub, "id", None) or getattr(sub, "attr", None)
            for sub in ast.walk(killing)
        }
        assert "echelon_rank" not in words
        added = []

        class Recording(IncrementalRank):
            def add(self, vec):
                added.append(vec)
                return super().add(vec)

        monkeypatch.setattr(exceptional_mod, "IncrementalRank", Recording)
        for field in (Q, F7):
            added.clear()
            L = build_e6(field=field)
            assert exceptional_mod.killing_form(L)[1] == 78
            assert len(added) == L.dim
            assert all(type(v) is int for vec in added for v in vec.values())
