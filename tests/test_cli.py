"""Command line surface: exit codes, JSON shape, and determinism."""

import json

import pytest

from spinor_forge.cli import RunConfig, main


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
        from spinor_forge.exceptional import DecompositionError

        def broken(field=None):
            raise DecompositionError("monomial lies outside the grade-2 span")

        monkeypatch.setitem(cli._BUILDERS, "e6", broken)
        code, out, err = run_cli(capsys, ["verify", "--algebra", "e6"])
        assert code == 3
        report = json.loads(out)
        assert report["command"] == "verify"
        assert report["error"].startswith("DecompositionError: monomial")
        assert "internal error" in err

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
        data = json.loads(raw)
        assert list(data) == ["name", "field", "dim", "basis", "brackets"]
        assert data["dim"] == 78
        assert str(out_path) in err

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

    def test_run_config_defaults(self):
        cfg = RunConfig("verify")
        assert cfg.field == "q"
        assert cfg.algebra is None and cfg.out is None and cfg.suite is None

    def test_module_invocation(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "spinor_forge.cli", "props", "--n", "1",
             "--suite", "fock"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ok"] is True
