"""Command line entry point.

Three subcommands: `verify` builds one algebra and runs the
antisymmetry, Jacobi, spanning and Killing-rank battery; `export`
writes the JSON structure constants; `props` runs the property suites
for one n.  Machine-readable JSON goes to stdout, human-readable
summaries to stderr.  Exit codes: 0 success, 1 verification failure,
2 usage error (arguments are checked before any work starts), 3 internal
failure while running, reported as {"error": ...} on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import traceback
from typing import Optional, Sequence

from .exceptional import (
    build_e6,
    build_e7,
    build_e8,
    killing_form,
    spanning_check,
    to_json,
    verify_antisymmetry,
    verify_jacobi,
)
from .field import make_field
from .props import SUITES, run_suites, suite_names

_BUILDERS = {"e6": build_e6, "e7": build_e7, "e8": build_e8}


class RunConfig:
    """One parsed invocation: the command plus its arguments."""

    __slots__ = ("command", "algebra", "n", "field", "out", "suite")

    def __init__(
        self,
        command: str,
        algebra: Optional[str] = None,
        n: Optional[int] = None,
        field: str = "q",
        out: Optional[str] = None,
        suite: Optional[Sequence[str]] = None,
    ) -> None:
        self.command = command
        self.algebra = algebra
        self.n = n
        self.field = field
        self.out = out
        self.suite = suite


def _emit(report: dict) -> None:
    json.dump(report, sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")


def _say(line: str) -> None:
    print(line, file=sys.stderr)


def cmd_verify(cfg: RunConfig) -> int:
    field = make_field(cfg.field)
    algebra = _BUILDERS[cfg.algebra](field=field)
    checks = []

    bad_pairs = verify_antisymmetry(algebra)
    checks.append(
        {
            "check": "antisymmetry",
            "ok": not bad_pairs,
            "violations": [list(p) for p in bad_pairs],
        }
    )
    _say(f"antisymmetry: {'ok' if not bad_pairs else f'{len(bad_pairs)} violations'}")

    jacobi = verify_jacobi(algebra)
    entry = {"check": "jacobi"}
    entry.update(
        {k: v for k, v in jacobi.to_dict().items() if k not in ("algebra", "field")}
    )
    checks.append(entry)
    _say(
        f"jacobi: {'ok' if jacobi else f'{len(jacobi.violations)} violating pairs'} "
        f"({jacobi.triples_covered} triples, {jacobi.seconds:.1f}s)"
    )

    span = spanning_check(algebra)
    checks.append({"check": "degree-zero-spanning", **span.to_dict()})
    _say(f"degree-zero spanning: rank {span.rank} of {span.expected}")

    _, rank = killing_form(algebra)
    checks.append(
        {
            "check": "killing-rank",
            "rank": rank,
            "dim": algebra.dim,
            "ok": rank == algebra.dim,
        }
    )
    _say(f"killing rank: {rank} of {algebra.dim}")

    ok = all(c["ok"] for c in checks)
    _emit(
        {
            "command": "verify",
            "algebra": cfg.algebra,
            "field": field.spec,
            "dim": algebra.dim,
            "checks": checks,
            "ok": ok,
        }
    )
    return 0 if ok else 1


def cmd_export(cfg: RunConfig) -> int:
    field = make_field(cfg.field)
    algebra = _BUILDERS[cfg.algebra](field=field)
    raw = to_json(algebra).encode("utf-8")
    with open(cfg.out, "wb") as fh:
        fh.write(raw)
    digest = hashlib.sha256(raw).hexdigest()
    _say(f"wrote {cfg.out}: {len(raw)} bytes, sha256 {digest}")
    _emit(
        {
            "command": "export",
            "algebra": cfg.algebra,
            "field": field.spec,
            "dim": algebra.dim,
            "out": cfg.out,
            "bytes": len(raw),
            "sha256": digest,
        }
    )
    return 0


def cmd_props(cfg: RunConfig) -> int:
    results = run_suites(cfg.n, cfg.suite)
    for res in results:
        status = "ok  " if res.ok else "FAIL"
        _say(f"{status} {res.check} (n={res.n}): {res.detail}")
    ok = all(res.ok for res in results)
    _emit(
        {
            "command": "props",
            "n": cfg.n,
            "suites": sorted(SUITES) if cfg.suite is None else list(cfg.suite),
            "results": [res.to_dict() for res in results],
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
    verify.add_argument("--algebra", required=True, choices=sorted(_BUILDERS))
    verify.add_argument(
        "--field",
        default="q",
        help="q (default) or fp:<p> with p a prime other than 2 and 3",
    )

    export = sub.add_parser("export", help="write the JSON structure constants")
    export.add_argument("--algebra", required=True, choices=sorted(_BUILDERS))
    export.add_argument("--field", default="q")
    export.add_argument("--out", required=True, help="output file path")

    props = sub.add_parser("props", help="run the property suites for one n")
    props.add_argument("--n", required=True, type=int, help="number of Witt pairs")
    props.add_argument(
        "--suite",
        action="append",
        choices=sorted(SUITES),
        help="restrict to one suite; repeatable (default: all suites)",
    )
    return parser


def _validate(cfg: RunConfig) -> None:
    """Raise ValueError for a usage error, before any work starts."""
    if cfg.command == "props":
        suite_names(cfg.n, cfg.suite)
        return
    make_field(cfg.field)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        algebra=getattr(args, "algebra", None),
        n=getattr(args, "n", None),
        field=getattr(args, "field", "q"),
        out=getattr(args, "out", None),
        suite=getattr(args, "suite", None),
    )
    handlers = {"verify": cmd_verify, "export": cmd_export, "props": cmd_props}
    try:
        _validate(cfg)
    except ValueError as exc:
        _say(f"error: {exc}")
        return 2
    try:
        return handlers[cfg.command](cfg)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        message = f"{type(exc).__name__}: {exc}"
        _say(f"internal error: {message}")
        _emit({"command": cfg.command, "error": message})
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
