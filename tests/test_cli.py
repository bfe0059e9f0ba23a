"""Command line surface: exit codes, JSON shape, and determinism."""

import json

import pytest

from spinor_forge.builders import build_e6
from spinor_forge.cli import main
from spinor_forge.exceptional import with_flipped_sign

from .helpers import flip_f12_parity


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_e6_over_q(self, capsys):
        code, out, err = run_cli(capsys, ["verify", "--algebra", "e6"])
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "verify"
        assert report["algebra"] == "e6"
        assert report["field"] == "q"
        assert report["dim"] == 78
        assert report["ok"] is True
        ids = [c["check"] for c in report["checks"]]
        assert ids == [
            "antisymmetry",
            "jacobi",
            "degree-zero-spanning",
            "killing-rank",
        ]
        assert all(c["ok"] for c in report["checks"])
        jacobi = report["checks"][1]
        assert jacobi["triples_covered"] == 76076
        assert jacobi["violations"] == []
        span = report["checks"][2]
        assert (span["rank"], span["expected"]) == (46, 46)
        assert "killing rank: 78 of 78" in err

    def test_reports_stage_seconds(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--algebra", "e6", "--field", "fp:7"])
        assert code == 0
        report = json.loads(out)
        assert list(report) == [
            "command",
            "algebra",
            "field",
            "dim",
            "norm_seconds",
            "build_seconds",
            "checks",
            "seconds",
            "ok",
        ]
        stages = [report["norm_seconds"], report["build_seconds"]]
        stages += [c["seconds"] for c in report["checks"]]
        assert all(isinstance(t, float) and t >= 0 for t in stages)
        assert report["seconds"] >= report["norm_seconds"] + report["build_seconds"]
        assert [list(c) for c in report["checks"]] == [
            ["check", "ok", "violations", "brackets_evaluated", "nonzero", "seconds"],
            [
                "check",
                "dim",
                "pairs_checked",
                "triples_covered",
                "violations",
                "ok",
                "seconds",
                "batches",
                "engine_seconds",
            ],
            ["check", "rank", "expected", "pairs_used", "ok", "seconds"],
            ["check", "rank", "dim", "ok", "seconds"],
        ]

    def test_characteristic_2_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, ["verify", "--algebra", "e8", "--field", "fp:2"]
        )
        assert code == 2
        assert out == ""
        assert "characteristic 2 unsupported" in err

    def test_composite_modulus_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, ["verify", "--algebra", "e6", "--field", "fp:9"]
        )
        assert code == 2
        assert "not prime" in err

    @pytest.mark.parametrize("p", ["3317044064679887385961981", "2147483659"])
    def test_prime_outside_bound_rejected(self, capsys, monkeypatch, p):
        from spinor_forge import cli

        def never(field=None, form=None):
            raise AssertionError("built despite a usage error")

        monkeypatch.setitem(cli._BUILDERS, "e6", never)
        code, out, err = run_cli(
            capsys, ["verify", "--algebra", "e6", "--field", f"fp:{p}"]
        )
        assert code == 2
        assert out == ""
        assert "bound 2^31 - 1" in err

    @pytest.mark.parametrize("command", ["verify", "export"])
    def test_prime_of_5000_digits_exit_2_with_the_bound(
        self, capsys, monkeypatch, tmp_path, command
    ):
        from spinor_forge import cli

        def never(field=None, form=None):
            raise AssertionError("built despite a usage error")

        monkeypatch.setitem(cli._BUILDERS, "e6", never)
        argv = [command, "--algebra", "e6", "--field", "fp:" + "9" * 5000]
        if command == "export":
            argv += ["--out", str(tmp_path / "e6.json")]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "bound 2^31 - 1" in err
        assert "4300" not in err

    @pytest.mark.parametrize("command", ["verify", "export"])
    def test_prime_field_built_once(self, capsys, monkeypatch, tmp_path, command):
        from spinor_forge import field as field_mod

        calls = []
        real = field_mod.is_prime

        def counted(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(field_mod, "is_prime", counted)
        argv = [command, "--algebra", "e6", "--field", "fp:2147483647"]
        if command == "export":
            argv += ["--out", str(tmp_path / "e6.json")]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert json.loads(out)["field"] == "fp:2147483647"
        assert calls == [2147483647]

    @pytest.mark.parametrize("command", ["verify", "export"])
    @pytest.mark.parametrize("spec", ["fp:+7", "fp: 7", "fp:1_000_003"])
    def test_non_digit_prime_spec_exit_2_before_building(
        self, capsys, monkeypatch, tmp_path, command, spec
    ):
        from spinor_forge import cli

        def never(field=None, form=None):
            raise AssertionError("built despite a usage error")

        monkeypatch.setitem(cli._BUILDERS, "e7", never)
        argv = [command, "--algebra", "e7", "--field", spec]
        if command == "export":
            argv += ["--out", str(tmp_path / "e7.json")]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "bad field spec" in err

    def test_bad_field_spec_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, ["verify", "--algebra", "e6", "--field", "r"]
        )
        assert code == 2
        assert "bad field spec" in err

    def test_unknown_algebra_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--algebra", "g2"])
        assert exc.value.code == 2


class TestExitCodes:
    def test_internal_failure_exit_3(self, capsys, monkeypatch):
        from spinor_forge import cli

        def broken(field=None, form=None):
            raise RuntimeError("builder failed while running")

        monkeypatch.setitem(cli._BUILDERS, "e6", broken)
        code, out, err = run_cli(capsys, ["verify", "--algebra", "e6"])
        assert code == 3
        report = json.loads(out)
        assert report["command"] == "verify"
        assert report["error"].startswith("RuntimeError: builder failed")
        assert "internal error" in err

    def test_verification_failure_exit_1(self, capsys, monkeypatch):
        from spinor_forge import cli

        def flipped(field=None, form=None):
            L = build_e6(field=field, form=form).materialize()
            (i, j), terms = L.nonzero_brackets()[0]
            return with_flipped_sign(L, i, j, terms[0][0])

        monkeypatch.setitem(cli._BUILDERS, "e6", flipped)
        code, out, err = run_cli(capsys, ["verify", "--algebra", "e6"])
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False
        bad = [c for c in report["checks"] if not c["ok"]]
        assert [c["check"] for c in bad] == ["jacobi"]
        assert bad[0]["violations"]
        assert f"jacobi: {len(bad[0]['violations'])} violating pairs" in err

    def test_parity_change_is_a_verification_failure(self, capsys, monkeypatch):
        # a grade-2 move that breaks [eps, F_12] = 0 is found by the
        # battery (exit 1), not raised inside the bracket (exit 3)
        flip_f12_parity(monkeypatch)
        code, out, err = run_cli(capsys, ["verify", "--algebra", "e6"])
        assert code == 1
        report = json.loads(out)
        bad = [c for c in report["checks"] if not c["ok"]]
        assert [c["check"] for c in bad] == ["jacobi"]
        assert "internal error" not in err

    def test_runtime_error_exit_3(self, capsys, monkeypatch):
        from spinor_forge import cli

        def broken(field=None):
            raise RuntimeError("no bracket constants satisfy the Jacobi identity")

        monkeypatch.setitem(cli._BUILDERS, "e7", broken)
        code, out, _ = run_cli(
            capsys, ["export", "--algebra", "e7", "--out", "unused.json"]
        )
        assert code == 3
        assert json.loads(out)["error"].startswith("RuntimeError: ")

    def test_bad_field_exit_2_before_building(self, capsys, monkeypatch):
        from spinor_forge import cli

        def never(field=None):
            raise AssertionError("built despite a usage error")

        monkeypatch.setitem(cli._BUILDERS, "e8", never)
        code, out, _ = run_cli(capsys, ["export", "--algebra", "e8", "--field",
                                        "fp:4", "--out", "unused.json"])
        assert code == 2
        assert out == ""


class TestExport:
    def test_export_writes_schema_and_digest(self, capsys, tmp_path):
        out_path = tmp_path / "e6.json"
        code, out, err = run_cli(
            capsys, ["export", "--algebra", "e6", "--out", str(out_path)]
        )
        assert code == 0
        report = json.loads(out)
        raw = out_path.read_bytes()
        assert report["bytes"] == len(raw)
        import hashlib

        assert report["sha256"] == hashlib.sha256(raw).hexdigest()
        assert list(report) == [
            "command", "algebra", "field", "dim", "out", "bytes", "sha256",
            "build_seconds", "table_seconds", "seconds",
        ]
        assert 0 <= report["build_seconds"] <= report["seconds"]
        data = json.loads(raw)
        assert list(data) == ["name", "field", "dim", "basis", "brackets"]
        assert data["dim"] == 78
        assert str(out_path) in err

    def test_table_built_before_to_json(self, capsys, tmp_path, monkeypatch):
        from math import comb

        from spinor_forge import cli

        real = cli.to_json
        stored = []

        def checked(algebra):
            stored.append(len(algebra._table))
            assert stored[-1] == comb(algebra.dim, 2)
            return real(algebra)

        monkeypatch.setattr(cli, "to_json", checked)
        code, out, _ = run_cli(
            capsys, ["export", "--algebra", "e6", "--out", str(tmp_path / "e6.json")]
        )
        assert code == 0
        assert stored == [comb(78, 2)]
        report = json.loads(out)
        assert 0 <= report["table_seconds"] <= report["seconds"]

    def test_reexport_identical(self, capsys, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["export", "--algebra", "e6", "--out", str(first)]) == 0
        assert main(["export", "--algebra", "e6", "--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_unknown_algebra_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["export", "--algebra", "e9", "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2

    def test_missing_out_directory_exit_2_before_building(
        self, capsys, monkeypatch, tmp_path
    ):
        from spinor_forge import cli

        def never(field=None):
            raise AssertionError("built despite a usage error")

        monkeypatch.setitem(cli._BUILDERS, "e6", never)
        out_path = tmp_path / "missing" / "e6.json"
        code, out, err = run_cli(
            capsys, ["export", "--algebra", "e6", "--out", str(out_path)]
        )
        assert code == 2
        assert out == ""
        assert "does not exist" in err
        assert not out_path.parent.exists()

    def test_empty_out_exit_2_before_building(self, capsys, monkeypatch):
        from spinor_forge import cli

        def never(field=None):
            raise AssertionError("built despite a usage error")

        monkeypatch.setitem(cli._BUILDERS, "e6", never)
        code, out, err = run_cli(capsys, ["export", "--algebra", "e6", "--out", ""])
        assert code == 2
        assert out == ""
        assert "output path is empty" in err

    def test_out_directory_exit_2_before_building(
        self, capsys, monkeypatch, tmp_path
    ):
        from spinor_forge import cli

        def never(field=None):
            raise AssertionError("built despite a usage error")

        monkeypatch.setitem(cli._BUILDERS, "e6", never)
        code, out, err = run_cli(
            capsys, ["export", "--algebra", "e6", "--out", str(tmp_path)]
        )
        assert code == 2
        assert out == ""
        assert "is a directory" in err
        assert list(tmp_path.iterdir()) == []

    def test_out_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["export", "--algebra", "e6"])
        assert exc.value.code == 2


class TestProps:
    def test_all_suites_n1(self, capsys):
        code, out, err = run_cli(capsys, ["props", "--n", "1"])
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "props"
        assert report["n"] == 1
        assert report["suites"] == ["clifford", "fock", "norms", "pairings"]
        assert len(report["results"]) == 14
        assert report["ok"] is True
        assert err.count("ok  ") == 14

    def test_per_check_seconds(self, capsys):
        code, out, err = run_cli(capsys, ["props", "--n", "2", "--suite", "clifford"])
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"command", "n", "suites", "results", "seconds", "ok"}
        for res in report["results"]:
            assert set(res) == {"check", "n", "ok", "detail", "seconds"}
            assert isinstance(res["seconds"], float) and res["seconds"] >= 0
            assert f"{res['check']} (n=2, " in err
        assert report["seconds"] >= sum(r["seconds"] for r in report["results"]) - 0.01
        assert out.count("\n") == 1

    def test_suite_filter_repeatable(self, capsys):
        code, out, _ = run_cli(
            capsys, ["props", "--n", "2", "--suite", "fock", "--suite", "clifford"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["suites"] == ["fock", "clifford"]
        assert [r["check"] for r in report["results"]] == [
            "car-relations",
            "h-eigenvalues",
            "q-isometry",
            "pi-completeness",
            "eps-duality",
        ]

    def test_repeated_suite_reported_once(self, capsys):
        code, out, _ = run_cli(
            capsys, ["props", "--n", "1", "--suite", "fock", "--suite", "fock"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["suites"] == ["fock"]
        assert [r["check"] for r in report["results"]] == [
            "car-relations",
            "h-eigenvalues",
        ]

    def test_n_zero_exit_2(self, capsys):
        code, out, err = run_cli(capsys, ["props", "--n", "0"])
        assert code == 2
        assert out == ""
        assert "1 <= n <= 8" in err

    def test_n_nine_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, ["props", "--n", "9"])
        assert code == 2

    def test_unknown_suite_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["props", "--n", "2", "--suite", "spectra"])
        assert exc.value.code == 2


class TestPlumbing:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_module_invocation(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        # the checkout's package, not one installed in the environment
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "spinor_forge.cli", "props", "--n", "1",
             "--suite", "fock"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ok"] is True
