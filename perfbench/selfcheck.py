"""Shows that the benchmark's oracle is not vacuous.

    python3 perfbench/selfcheck.py

Run from the root of a checkout; the package is imported from its src/.
Each case feeds a check in perfbench/oracle.py one correct and one broken
input and expects the broken one to be reported as a failed operation:

- verify-e8 export: e8 over Q with one structure constant's sign flipped
  must not match golden/e8.json, while the unmodified export does;
- mutants-e7-fp7: a Jacobi report with no violations (the touching pairs
  of an unflipped e7 table over F_7) counts as an undetected mutant;
- props-n7: one changed detail string fails exactly that check.

Exits 0 when every expectation holds.  Takes about half a minute, most of
it materializing e8.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
from job import touching_pairs  # noqa: E402
from spinor_forge import PrimeField, build_e7, build_e8, to_json, verify_jacobi  # noqa: E402
from spinor_forge.exceptional import with_flipped_sign  # noqa: E402
from spinor_forge.props import CheckResult  # noqa: E402


def expect(case: str, records: list[dict], want_failed: list[str]) -> bool:
    """True when exactly the operations in want_failed fail."""
    failed = [r["op"] for r in records if not r["ok"]]
    good = failed == want_failed
    print(f"{'ok ' if good else 'BAD'} {case}: failed {failed or 'nothing'}")
    for r in records:
        if not r["ok"]:
            print(f"      {r['op']}: {r['detail']}")
    return good


def main() -> int:
    rng = random.Random("selfcheck")
    results = []

    e8 = build_e8().materialize()
    (i, j), terms = rng.choice(e8.nonzero_brackets())
    k = rng.choice(terms)[0]
    results.append(expect("e8 export", [oracle.check_export(to_json(e8).encode())], []))
    flipped = to_json(with_flipped_sign(e8, i, j, k)).encode()
    results.append(
        expect(f"e8 export, ({i},{j},{k}) flipped", [oracle.check_export(flipped)], ["export"])
    )

    e7 = build_e7(field=PrimeField(7)).materialize()
    (i, j), terms = rng.choice(e7.nonzero_brackets())
    k = rng.choice(terms)[0]
    pairs = touching_pairs(e7.dim, i, j)
    flip = (i, j, k)
    caught = verify_jacobi(with_flipped_sign(e7, i, j, k), pairs=pairs)
    results.append(expect("e7 mutant", [oracle.check_mutant(flip, caught, e7.dim)], []))
    missed = verify_jacobi(e7, pairs=pairs)
    results.append(
        expect(
            "e7 unflipped table as a mutant",
            [oracle.check_mutant(flip, missed, e7.dim)],
            [f"mutant{flip}"],
        )
    )

    props = [CheckResult(check, 7, True, detail) for check, detail in oracle.PROPS_N7]
    results.append(expect("props as recorded", oracle.check_props(props), []))
    props[3] = CheckResult(props[3].check, 7, True, "changed")
    results.append(
        expect("props, one detail changed", oracle.check_props(props), [props[3].check])
    )
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
