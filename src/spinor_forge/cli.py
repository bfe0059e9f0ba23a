"""Command line entry point.

Three subcommands: `verify` builds one algebra and runs
exceptional.run_checks, the one battery (antisymmetry, Jacobi,
spanning, Killing rank), one stderr line per check; `export`
writes the JSON structure constants; `props` runs the property suites
for one n, timing each check.  JSON goes to stdout, human-readable
summaries to stderr.  Exit codes: 0 success, 1 verification failure,
2 usage error (arguments are checked before any work starts), 3 internal
failure while running, reported as {"error": ...} on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import traceback
from typing import Optional, Sequence

from .builders import SPINOR_N, build_e6, build_e7, build_e8
from .exceptional import run_checks, to_json
from .field import Field, make_field
from .fock import Config
from .norms import solve_spinor_norm
from .props import SUITES, suite_names

_BUILDERS = {"e6": build_e6, "e7": build_e7, "e8": build_e8}


def _emit(report: dict) -> None:
    json.dump(report, sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")


def _say(line: str) -> None:
    print(line, file=sys.stderr)


def _summary(c: dict) -> str:
    """The stderr line of one run_checks entry."""
    name, bad = c["check"], len(c.get("violations", ()))
    if name == "antisymmetry":
        return f"antisymmetry: {f'{bad} violations' if bad else 'ok'}"
    if name == "jacobi":
        head = f"jacobi: {bad} violating pairs" if bad else "jacobi: ok"
        return f"{head} ({c['triples_covered']} triples, {c['seconds']:.1f}s)"
    if name == "degree-zero-spanning":
        return f"degree-zero spanning: rank {c['rank']} of {c['expected']}"
    return f"killing rank: {c['rank']} of {c['dim']}"


def cmd_verify(args: argparse.Namespace, field: Field) -> int:
    start = time.perf_counter()
    form = solve_spinor_norm(Config(SPINOR_N[args.algebra], field))
    norm_seconds = time.perf_counter() - start
    t0 = time.perf_counter()
    algebra = _BUILDERS[args.algebra](field=field, form=form)
    build_seconds = time.perf_counter() - t0
    _say(f"norm solve {norm_seconds:.2f}s, build {build_seconds:.2f}s")
    checks = run_checks(algebra)
    for c in checks:
        _say(_summary(c))
    ok = all(c["ok"] for c in checks)
    _emit(
        {
            "command": "verify",
            "algebra": args.algebra,
            "field": field.spec,
            "dim": algebra.dim,
            "norm_seconds": round(norm_seconds, 3),
            "build_seconds": round(build_seconds, 3),
            "checks": checks,
            "seconds": round(time.perf_counter() - start, 3),
            "ok": ok,
        }
    )
    return 0 if ok else 1


def cmd_export(args: argparse.Namespace, field: Field) -> int:
    start = time.perf_counter()
    algebra = _BUILDERS[args.algebra](field=field)
    build_seconds = time.perf_counter() - start
    t0 = time.perf_counter()
    algebra.materialize()
    table_seconds = time.perf_counter() - t0
    raw = to_json(algebra).encode("utf-8")
    with open(args.out, "wb") as fh:
        fh.write(raw)
    digest = hashlib.sha256(raw).hexdigest()
    _say(f"wrote {args.out}: {len(raw)} bytes, sha256 {digest}")
    _emit(
        {
            "command": "export",
            "algebra": args.algebra,
            "field": field.spec,
            "dim": algebra.dim,
            "out": args.out,
            "bytes": len(raw),
            "sha256": digest,
            "build_seconds": round(build_seconds, 3),
            "table_seconds": round(table_seconds, 3),
            "seconds": round(time.perf_counter() - start, 3),
        }
    )
    return 0


def cmd_props(args: argparse.Namespace, field: None) -> int:
    results = []
    start = time.perf_counter()
    names = suite_names(args.n, args.suite)
    for name in names:
        for fn in SUITES[name]:
            t0 = time.perf_counter()
            res = fn(args.n)
            seconds = time.perf_counter() - t0
            results.append({**res.to_dict(), "seconds": round(seconds, 3)})
            status = "ok  " if res.ok else "FAIL"
            _say(f"{status} {res.check} (n={res.n}, {seconds:.2f}s): {res.detail}")
    ok = all(res["ok"] for res in results)
    _emit(
        {
            "command": "props",
            "n": args.n,
            "suites": sorted(SUITES) if args.suite is None else list(names),
            "results": results,
            "seconds": round(time.perf_counter() - start, 3),
            "ok": ok,
        }
    )
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinor-forge",
        description="Build, verify and export the exceptional Lie algebras "
        "constructed from spinor pairings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify", help="build one algebra and run the verification battery"
    )
    verify.set_defaults(run=cmd_verify)
    verify.add_argument("--algebra", required=True, choices=sorted(_BUILDERS))
    verify.add_argument(
        "--field",
        default="q",
        help="q (default) or fp:<p> with p a prime, 5 <= p < 2^31",
    )

    export = sub.add_parser("export", help="write the JSON structure constants")
    export.set_defaults(run=cmd_export)
    export.add_argument("--algebra", required=True, choices=sorted(_BUILDERS))
    export.add_argument(
        "--field", default="q", help="as for verify: q or fp:<p>, 5 <= p < 2^31"
    )
    export.add_argument("--out", required=True, help="output file path")

    props = sub.add_parser("props", help="run the property suites for one n")
    props.set_defaults(run=cmd_props)
    props.add_argument("--n", required=True, type=int, help="number of Witt pairs")
    props.add_argument(
        "--suite",
        action="append",
        choices=sorted(SUITES),
        help="restrict to one suite; repeatable (default: all suites)",
    )
    return parser


def _validate(args: argparse.Namespace) -> Optional[Field]:
    """Raise ValueError for a usage error, before any work starts.

    Returns the field that verify and export run over (None for props),
    built once here and handed to the command.  An export path that is
    empty, whose directory does not exist, or that names a directory, is
    a usage error too.
    """
    if args.command == "props":
        suite_names(args.n, args.suite)
        return None
    if args.command == "export":
        if not args.out:
            raise ValueError("output path is empty")
        folder = os.path.dirname(args.out) or "."
        if not os.path.isdir(folder):
            raise ValueError(f"output directory {folder} does not exist")
        if os.path.isdir(args.out):
            raise ValueError(f"output path {args.out} is a directory")
    return make_field(args.field)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        field = _validate(args)
    except ValueError as exc:
        _say(f"error: {exc}")
        return 2
    try:
        return args.run(args, field)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        message = f"{type(exc).__name__}: {exc}"
        _say(f"internal error: {message}")
        _emit({"command": args.command, "error": message})
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
